"""Fuzz tests: any input to parse_keypoint_file either parses or raises ParseError."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from gaitlab.errors import ParseError
from gaitlab.ingest import parse_keypoint_file
from gaitlab.pose import KeypointId

NAMES = [k.json_name for k in KeypointId]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5),
    st.integers(min_value=-(10**400), max_value=10**400),
)
values = st.one_of(scalars, st.lists(scalars, max_size=4))
keypoints = st.dictionaries(st.sampled_from(NAMES + ["Nose"]), values, max_size=16)
lines = st.fixed_dictionaries(
    {},
    optional={"frame": values, "t_ms": values, "kp": st.one_of(keypoints, values)},
)


def parses_or_raises_parse_error(data):
    try:
        seq = parse_keypoint_file(data)
    except ParseError:
        return
    assert len(seq) >= 1
    assert seq.xy.shape == (len(seq), 14, 2) and seq.conf.shape == (len(seq), 14)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300))
def test_any_bytes(data):
    parses_or_raises_parse_error(data)


@settings(max_examples=300, deadline=None)
@given(st.lists(lines, min_size=1, max_size=4))
def test_json_shaped_lines(objs):
    parses_or_raises_parse_error("\n".join(json.dumps(obj) for obj in objs).encode())
