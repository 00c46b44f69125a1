"""Fuzz tests: any input to parse_keypoint_file either parses or raises
ParseError, and serialize_sequence writes json.dumps's bytes, which parse back."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitlab.errors import ParseError
from gaitlab.ingest import parse_keypoint_file, serialize_sequence
from gaitlab.pose import KeypointId, PoseSequence

from helpers import serialize_sequence_oracle

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


# floats whose shortest repr takes each of its forms: signed zero, the
# smallest subnormal, an exponent above and below the fixed-point range
SPECIAL = st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, 1.0])
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), SPECIAL)
CONFIDENCE = st.one_of(st.floats(0.0, 1.0), SPECIAL.filter(lambda c: c <= 1.0))
STAMP = st.one_of(st.none(), st.integers(), FINITE)
FRAME = st.one_of(st.integers(0, 2**63 - 1), st.just(2**63 - 1))


@st.composite
def sequences(draw):
    """A sequence whose frames name all, some or none of the joints; an absent
    joint has NaN confidence and coordinates."""
    frames = sorted(draw(st.lists(FRAME, min_size=1, max_size=4, unique=True)))
    n = len(frames)
    xy = np.array(draw(st.lists(FINITE, min_size=28 * n, max_size=28 * n))).reshape(n, 14, 2)
    conf = np.array(draw(st.lists(CONFIDENCE, min_size=14 * n, max_size=14 * n))).reshape(n, 14)
    for t in range(n):
        kind = draw(st.sampled_from(["all", "some", "none"]))
        if kind == "some":
            conf[t, draw(st.lists(st.booleans(), min_size=14, max_size=14))] = math.nan
        elif kind == "none":
            conf[t] = math.nan
    xy[np.isnan(conf)] = math.nan
    stamps = draw(st.lists(STAMP, min_size=n, max_size=n))
    return PoseSequence(xy, conf, np.array(frames, dtype=np.int64), stamps)


@settings(max_examples=300, deadline=None)
@given(sequences())
def test_writer_matches_json_dumps_and_parses_back(seq):
    text = serialize_sequence(seq)
    assert text == serialize_sequence_oracle(seq)
    assert parse_keypoint_file(text) == seq
