import json

import numpy as np
import pytest

from gaitlab.errors import ParseError, TooFewValidFrames
from gaitlab.ingest import (
    filter_valid,
    parse_keypoint_file,
    save_keypoint_file,
    serialize_sequence,
)
from gaitlab.pose import KeypointId, PoseSequence

from helpers import serialize_sequence_oracle

ALL_NAMES = [k.json_name for k in KeypointId]


def line_for(frame_idx, names=ALL_NAMES, conf=0.9, t_ms=None):
    obj = {"frame": frame_idx}
    if t_ms is not None:
        obj["t_ms"] = t_ms
    obj["kp"] = {n: [10.0 * i, 20.0 * i, conf] for i, n in enumerate(names)}
    return json.dumps(obj)


def test_parse_single_complete_frame():
    seq = parse_keypoint_file(line_for(0), source_id="clip")
    assert len(seq) == 1
    assert seq.frame_index.tolist() == [0]
    assert not np.isnan(seq.conf).any()
    assert seq.xy[0, KeypointId.LEFT_EAR - 1].tolist() == [0.0, 0.0]
    assert seq.conf[0, KeypointId.LEFT_EAR - 1] == 0.9
    assert seq.source_id == "clip"


def test_missing_name_stays_absent():
    names = [n for n in ALL_NAMES if n != "LeftAnkle"]
    seq = parse_keypoint_file(line_for(0, names=names))
    assert np.isnan(seq.conf[0, KeypointId.LEFT_ANKLE - 1])
    assert np.isnan(seq.xy[0, KeypointId.LEFT_ANKLE - 1]).all()
    assert int((~np.isnan(seq.conf[0])).sum()) == 13


def test_unknown_names_ignored():
    obj = {"frame": 0, "kp": {"Nose": [1, 2, 0.5], "LeftEar": [3, 4, 0.5]}}
    seq = parse_keypoint_file(json.dumps(obj))
    assert np.flatnonzero(~np.isnan(seq.conf[0])).tolist() == [KeypointId.LEFT_EAR - 1]


def test_duplicate_frame_rejected():
    data = "\n".join([line_for(5), line_for(5)])
    with pytest.raises(ParseError) as exc:
        parse_keypoint_file(data)
    assert str(exc.value) == "line 2: duplicate frame index 5" and exc.value.line == 2


def test_malformed_line_reports_number():
    data = "\n".join([line_for(0), "{not json"])
    with pytest.raises(ParseError) as exc:
        parse_keypoint_file(data)
    assert exc.value.line == 2


@pytest.mark.parametrize("middle", ["]", "x"])
def test_a_line_that_starts_no_json_value_is_refused_by_its_number(middle):
    """Not one frame from the lines before it: the line's own refusal."""
    with pytest.raises(ParseError, match="line 2: Expecting value") as exc:
        parse_keypoint_file("\n".join([line_for(0), middle, line_for(2)]))
    assert exc.value.line == 2


def test_bad_triple_is_malformed():
    obj = {"frame": 0, "kp": {"LeftEar": [1, 2]}}
    with pytest.raises(ParseError, match="line 1: keypoint 'LeftEar' is not an") as exc:
        parse_keypoint_file(json.dumps(obj))
    assert exc.value.line == 1


# every character other than "\n" at which str.splitlines breaks a line
SEPARATORS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", SEPARATORS, ids=lambda sep: f"U+{ord(sep):04X}")
def test_a_line_ends_only_at_newline(sep):
    """As the only break between two lines, any other line break leaves one
    line, which is not valid JSON."""
    with pytest.raises(ParseError, match="line 1: Extra data") as exc:
        parse_keypoint_file(line_for(0) + sep + line_for(1))
    assert exc.value.line == 1


@pytest.mark.parametrize("sep", ["\x85", "\u2028", "\u2029"],
                         ids=lambda sep: f"U+{ord(sep):04X}")
def test_a_raw_line_separator_inside_a_string_stays_in_its_line(sep):
    obj = json.loads(line_for(0))
    obj["note"] = f"a{sep}b"
    text = json.dumps(obj, ensure_ascii=False)
    assert sep in text
    seq = parse_keypoint_file((text + "\n" + line_for(1)).encode())
    assert seq == parse_keypoint_file(line_for(0) + "\n" + line_for(1))


def test_crlf_line_ends_parse():
    """A "\\r" before "\\n", or anywhere between tokens, is JSON whitespace."""
    lines = [line_for(0).replace(", ", ",\r "), "", line_for(1), "{not json"]
    assert parse_keypoint_file("\r\n".join(lines[:3]) + "\r\n") == parse_keypoint_file(
        "\n".join([line_for(0), line_for(1)]))
    with pytest.raises(ParseError) as exc:
        parse_keypoint_file("\r\n".join(lines))
    assert exc.value.line == 4


def test_empty_input():
    with pytest.raises(ParseError, match="no frames parsed from input ''"):
        parse_keypoint_file("")
    with pytest.raises(ParseError, match="no frames parsed from input ''"):
        parse_keypoint_file("\n\n")


def test_frames_sorted_by_index():
    data = "\n".join([line_for(3), line_for(1), line_for(2)])
    seq = parse_keypoint_file(data)
    assert seq.frame_index.tolist() == [1, 2, 3]


def random_sequence(rng, n_frames=5, source_id="rt"):
    conf = np.repeat(rng.integers(0, 101, (n_frames, 1)) / 100, 14, axis=1)
    return PoseSequence(rng.uniform(0, 500, (n_frames, 14, 2)), conf, source_id=source_id)


def test_serialize_parse_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        seq = random_sequence(rng, n_frames=int(rng.integers(1, 8)))
        back = parse_keypoint_file(serialize_sequence(seq), source_id=seq.source_id)
        assert back == seq



def test_fractional_timestamp_survives_parse_and_serialize():
    seq = parse_keypoint_file(line_for(0, t_ms=33.7) + "\n" + line_for(1, t_ms=67))
    assert seq.t_ms == (33.7, 67)
    assert [json.loads(line)["t_ms"] for line in serialize_sequence(seq).splitlines()] == [33.7, 67]
    assert parse_keypoint_file(serialize_sequence(seq)) == seq


def test_writer_keeps_negative_zero_apart_from_zero():
    """Each distinct value is formatted once; -0.0 equals 0.0 but is written as -0.0."""
    xy = np.zeros((2, 14, 2))
    xy[0, :, 0] = -0.0
    xy[1, 3] = [5e-324, -5e-324]
    seq = PoseSequence(xy, np.full((2, 14), -0.0))
    assert serialize_sequence(seq) == serialize_sequence_oracle(seq)
    assert '"LeftEar": [-0.0, 0.0, -0.0]' in serialize_sequence(seq)
    assert np.signbit(parse_keypoint_file(serialize_sequence(seq)).xy[0, :, 0]).all()


def test_numpy_timestamps_are_written_as_plain_numbers():
    seq = PoseSequence(np.ones((3, 14, 2)), t_ms=(np.int64(7), np.float64(0.5), np.float32(2.0)))
    assert [json.loads(line)["t_ms"] for line in serialize_sequence(seq).splitlines()] == [
        7, 0.5, 2.0]
    assert parse_keypoint_file(serialize_sequence(seq)).t_ms == (7, 0.5, 2.0)


def _edited(frame=1, joint=KeypointId.LEFT_WRIST, x=None, conf=None, t_ms=None, index=None):
    """A 3-frame sequence with one value replaced."""
    xy, confs = np.ones((3, 14, 2)), np.full((3, 14), 0.5)
    stamps = [0, 33, 67]
    if x is not None:
        xy[frame, joint - 1, 0] = x
    if conf is not None:
        confs[frame, joint - 1] = conf
    if t_ms is not None:
        stamps[frame] = t_ms
    return PoseSequence(xy, confs, index, t_ms=stamps)


@pytest.mark.parametrize("seq, message", [
    (_edited(x=np.inf), "frame 1: keypoint 'LeftWrist' has non-finite coordinates"),
    (_edited(x=np.nan), "frame 1: keypoint 'LeftWrist' has non-finite coordinates"),
    (_edited(conf=1.5), "frame 1: keypoint 'LeftWrist' has non-finite coordinates or a "
                        "confidence outside [0, 1]"),
    (_edited(conf=-0.1, index=np.array([4, 9, 12])), "frame 9: keypoint 'LeftWrist'"),
    (_edited(t_ms=True), "frame 1: bad t_ms True"),
    (_edited(t_ms=np.nan), "frame 1: bad t_ms nan"),
    (_edited(t_ms=-np.inf), "frame 1: bad t_ms -inf"),
    (_edited(t_ms="33"), "frame 1: bad t_ms '33'"),
    (_edited(index=np.array([0, 1, 2**63], dtype=np.uint64)),
     "frame index 9223372036854775808 is beyond the int64 range"),
], ids=["inf-coordinate", "nan-coordinate", "confidence-above-1", "negative-confidence",
        "bool-t_ms", "nan-t_ms", "inf-t_ms", "string-t_ms", "frame-beyond-int64"])
def test_writer_refuses_what_the_reader_refuses(tmp_path, seq, message):
    """A value parse_keypoint_file would refuse is a ValueError naming its frame,
    raised before any file is written."""
    with pytest.raises(ValueError) as exc:
        serialize_sequence(seq)
    assert str(exc.value).startswith(message)
    path = tmp_path / "v.kp.jsonl"
    with pytest.raises(ValueError):
        save_keypoint_file(seq, path)
    assert not path.exists()


def test_writer_ignores_the_coordinates_of_an_absent_joint():
    """A joint with a NaN confidence is absent: its coordinates are not written
    and not checked, as the reader leaves them NaN."""
    seq = _edited(x=np.inf, conf=np.nan)
    back = parse_keypoint_file(serialize_sequence(seq))
    assert np.isnan(back.conf[1, KeypointId.LEFT_WRIST - 1])
    assert np.isnan(back.xy[1, KeypointId.LEFT_WRIST - 1]).all()


def test_filter_valid_passthrough():
    rng = np.random.default_rng(2)
    seq = random_sequence(rng, n_frames=10)
    # force all confidences high
    seq = PoseSequence(seq.xy, np.full_like(seq.conf, 0.9), source_id=seq.source_id)
    kept, report = filter_valid(seq, 0.5, 5)
    assert len(kept) == 10
    assert report.dropped_frames == 0
    assert report.total_frames == report.valid_frames + report.dropped_frames


def _mixed_validity_sequence(n_valid, n_invalid):
    n = n_valid + n_invalid
    conf = np.repeat(np.where(np.arange(n) < n_valid, 0.9, 0.1)[:, None], 14, axis=1)
    xy = np.repeat(np.arange(n, dtype=float), 28).reshape(n, 14, 2)
    return PoseSequence(xy, conf, source_id="mix")


def test_filter_valid_too_few():
    seq = _mixed_validity_sequence(3, 7)
    with pytest.raises(TooFewValidFrames) as exc:
        filter_valid(seq, 0.5, 5)
    assert (exc.value.valid, exc.value.required) == (3, 5)


def test_filter_valid_preserves_order_and_is_idempotent():
    seq = _mixed_validity_sequence(6, 4)
    kept, report = filter_valid(seq, 0.5, 5)
    assert len(kept) == 6
    assert report.dropped_frames == 4
    indices = kept.frame_index.tolist()
    assert indices == sorted(indices)
    again, report2 = filter_valid(kept, 0.5, 5)
    assert again == kept
    assert report2.dropped_frames == 0


@pytest.mark.parametrize("obj", [
    {"frame": True},
    {"frame": False},
    {"frame": 1, "t_ms": False},
    {"frame": 1, "t_ms": True},
    {"frame": 1, "kp": {"LeftEar": [True, False, 1]}},
    {"frame": 1, "kp": {"LeftEar": [1.0, 2.0, True]}},
    {"frame": 1, "kp": {"LeftEar": ["1.0", 2.0, 0.5]}},
    {"frame": 1, "kp": {"LeftEar": [1.0, 2.0, None]}},
    {"frame": 1, "kp": {"LeftEar": None}},
    {"frame": 2**63},
])
def test_non_numbers_are_malformed(obj):
    with pytest.raises(ParseError) as exc:
        parse_keypoint_file(line_for(0) + "\n" + json.dumps(obj))
    assert exc.value.line == 2


@pytest.mark.parametrize("text", ["1e999", "-1e999", "NaN", "Infinity",
                                  pytest.param("1" * 400, id="400-digit-int")])
def test_out_of_range_values_are_malformed(text):
    line = '{"frame": 1, "kp": {"RightAnkle": [%s, 0, 0.5]}}' % text
    with pytest.raises(ParseError) as exc:
        parse_keypoint_file(line_for(0) + "\n" + line)
    assert exc.value.line == 2


def test_non_utf8_bytes_are_a_parse_error():
    with pytest.raises(ParseError):
        parse_keypoint_file(line_for(0).encode() + b"\n\xff\xfe{}\n")
