"""Fuzz tests: any input to parse_keypoint_file either parses or raises
ParseError, the column checks agree with the line-by-line parser, and
serialize_sequence writes json.dumps's bytes, which parse back."""

import json
import math
from random import Random

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, seed, settings
from hypothesis import strategies as st

from gaitlab.errors import ParseError
from gaitlab.ingest import _decode, parse_keypoint_file, serialize_sequence
from gaitlab.pose import KeypointId, PoseSequence

from helpers import parse_keypoint_file_oracle, serialize_sequence_oracle

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


# values that some check refuses, or that sit at the edge of one: bools,
# integers beyond 2**53, 2**64 and the float range, NaN and Infinity
# literals, non-numbers and confidences outside [0, 1]
EDGE_NUMBERS = st.sampled_from([True, False, None, "1", [], math.nan, math.inf, -math.inf,
                                2**53 + 1, 2**64 + 1, 10**309, -(10**309), 1.5, -0.5, -0.0])
EDGE_FRAMES = st.sampled_from([-1, -(2**63), 2**63, 2**63 - 1, True, False, None, 1.0, "0"])
EDGE_STAMPS = st.sampled_from([None, math.nan, math.inf, True, False, "1", 1.5, 10**309, [1]])
EDGE_JOINTS = st.sampled_from([None, [1, 2], [1, 2, 3, 4], {"x": 1}, 5, "ab"])
EDGE_KPS = st.sampled_from([None, [], 1, "kp"])
EDGE_LINES = st.sampled_from(["[]", "3", '"kp"', "null", "{not json", '{"frame": 1',
                              "[" * 5000 + "]" * 5000, '{"kp": {}}'])
BLANKS = st.sampled_from(["", "  ", "\r", "\t"])


@st.composite
def keypoint_files(draw):
    """The text of a .kp.jsonl file: lines naming all, some or none of the
    joints, with frames that may repeat or come out of order and optional
    stamps; then up to two edge cases (a field replaced or dropped, or a line
    that is not a frame object) and blank lines, all in a shuffled order."""
    n = draw(st.integers(0, 4))
    frames = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n, unique=draw(st.booleans())))
    objs = []
    for frame in frames:
        obj = {"frame": frame}
        if draw(st.booleans()):
            obj["t_ms"] = draw(st.one_of(st.integers(), st.floats(allow_nan=False,
                                                                  allow_infinity=False)))
        kind = draw(st.sampled_from(["all", "some", "none"]))
        names = {"all": NAMES, "none": [],
                 "some": draw(st.lists(st.sampled_from(NAMES + ["Nose"]), unique=True))}[kind]
        kp = {name: [draw(st.floats(-1e3, 1e3)), draw(st.integers(-10**20, 10**20)),
                     draw(st.floats(0.0, 1.0))] for name in names}
        if kind != "none" or draw(st.booleans()):
            obj["kp"] = kp
        objs.append(obj)
    texts = []
    for _ in range(draw(st.integers(0, 2)) if objs else 0):
        obj = draw(st.sampled_from(objs))
        field = draw(st.sampled_from(["frame", "no frame", "t_ms", "kp", "no kp", "joint",
                                      "number", "number", "number", "line", "line", "nesting"]))
        if field == "frame":
            obj["frame"] = draw(EDGE_FRAMES)
        elif field.startswith("no "):
            obj.pop(field[3:], None)
        elif field == "t_ms":
            obj["t_ms"] = draw(EDGE_STAMPS)
        elif field == "kp":
            obj["kp"] = draw(EDGE_KPS)
        elif field in ("joint", "number") and isinstance(obj.get("kp", {}), dict):
            kp, name = obj.setdefault("kp", {}), draw(st.sampled_from(NAMES))
            if field == "joint":
                kp[name] = draw(EDGE_JOINTS)
            else:
                kp[name] = list(kp[name]) if type(kp.get(name)) is list else [0.0, 0.0, 1.0]
                kp[name][draw(st.integers(0, len(kp[name]) - 1))] = draw(EDGE_NUMBERS)
        elif field == "line":
            texts.append(draw(EDGE_LINES))
        elif field == "nesting":  # EDGE_LINES' deep line again: seeded runs rarely drew it there
            texts.append("[" * 5000 + "]" * 5000)
    texts += [json.dumps(obj) for obj in objs] + draw(st.lists(BLANKS, max_size=2))
    return draw(st.sampled_from(["\n", "\r\n"])).join(draw(st.permutations(texts)))


# one file per outcome kind: accepted with every joint named, accepted with
# one named, then each refusal in REFUSALS' order
_JOINT = NAMES[0]
OUTCOME_FILES = [
    json.dumps({"frame": 0, "kp": {name: [1.0, 2.0, 0.5] for name in NAMES}}),
    json.dumps({"frame": 0, "kp": {_JOINT: [1.0, 2.0, 0.5]}}),
    "\n",
    "{not json",
    "[" * 5000 + "]" * 5000,
    json.dumps({"kp": {}}),
    json.dumps({"frame": -1}),
    json.dumps({"frame": 0}) + "\n" + json.dumps({"frame": 0}),
    json.dumps({"frame": 0, "t_ms": "1"}),
    json.dumps({"frame": 0, "kp": 1}),
    json.dumps({"frame": 0, "kp": {_JOINT: [1.0, 2.0]}}),
    json.dumps({"frame": 0, "kp": {_JOINT: [1.0, 2.0, "0.5"]}}),
    json.dumps({"frame": 0, "kp": {_JOINT: [10**309, 2.0, 0.5]}}),
    json.dumps({"frame": 0, "kp": {_JOINT: [1.0, 2.0, 1.5]}}),
]


def with_outcome_files(test):
    """A hypothesis test that also runs each of OUTCOME_FILES as an explicit example."""
    for text in OUTCOME_FILES:
        test = example(text)(test)
    return test


def outcome(parse, data):
    """A parser's PoseSequence, or the type and message of its ParseError."""
    try:
        return parse(data)
    except ParseError as exc:
        return type(exc), str(exc)


@with_outcome_files
@settings(max_examples=500, deadline=None)
@given(keypoint_files())
def test_column_checks_agree_with_the_line_walk(data):
    assert outcome(parse_keypoint_file, data) == outcome(parse_keypoint_file_oracle, data)


def decoded(decode, line):
    """The repr of a line's value (NaN included), or which error refused it."""
    try:
        return repr(decode(line))
    except RecursionError:
        return "too deep"
    except ValueError:
        return "refused"


@settings(max_examples=300, deadline=None)
@given(keypoint_files())
def test_line_decode_agrees_with_json_loads(data):
    for line in filter(str.strip, data.split("\n")):
        assert decoded(_decode, line) == decoded(json.loads, line)


@pytest.mark.parametrize("line", [
    "\ufeff{}", "{} {}", "\x0c{}", "\xa0{}", "NaN", "[" * 5000 + "]" * 5000, "]", "x",
    " \t{\"frame\": 1}\r ", "-0.0",
])
def test_line_decode_agrees_with_json_loads_at_the_edges(line):
    """A byte order mark, trailing data, whitespace json.loads does not skip,
    a NaN literal, nesting too deep, and lines that start no JSON value."""
    assert decoded(_decode, line) == decoded(json.loads, line)


# a fragment of each refusal's message, from JSON errors to the array check
REFUSALS = ("no frames parsed", "Expecting", "maximum recursion", "missing 'frame' field",
            "bad frame index", "duplicate frame index", "bad t_ms", "'kp' must be an object",
            "is not an [x, y, conf] triple", "keypoint values must be numbers",
            "beyond the float range", "non-finite coordinates")


def test_keypoint_files_reach_every_outcome():
    """The files above are accepted with and without absent joints, and each
    kind of refusal occurs. Hypothesis mixes literals of the code under test
    into its draws, so a fixed seed's examples move with any edit of gaitlab:
    OUTCOME_FILES gives the seeded pass one file of each kind, and an outcome
    that the pass still misses is searched for on its own."""
    def kinds(data):
        result = outcome(parse_keypoint_file_oracle, data)
        if isinstance(result, PoseSequence):
            return {"some absent" if np.isnan(result.conf).any() else "all named"}
        return {reason for reason in REFUSALS if reason in result[1]}

    seen = set()

    @with_outcome_files
    @seed(0)
    @settings(max_examples=400, database=None, deadline=None)
    @given(keypoint_files())
    def record(data):
        seen.update(kinds(data))

    record()
    search = settings(max_examples=5000, database=None, deadline=None, phases=[Phase.generate])
    for kind in {"all named", "some absent", *REFUSALS} - seen:
        find(keypoint_files(), lambda data: kind in kinds(data), settings=search,
             random=Random(0))


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
