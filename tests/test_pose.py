import json

import numpy as np
import pytest

from gaitlab.errors import ParseError, TooFewValidFrames
from gaitlab.ingest import filter_valid, parse_keypoint_file
from gaitlab.pose import KEYPOINT_ORDER, GaitLabel, KeypointId, PoseSequence

from helpers import sequence_from_coords


def frame_is_valid(seq, threshold):
    """Whether filter_valid keeps the single frame of seq at this threshold."""
    try:
        filter_valid(seq, threshold, min_valid_frames=1)
    except TooFewValidFrames:
        return False
    return True


def test_keypoint_index_roundtrip():
    for i in range(1, 15):
        assert KeypointId(i).value == i
    assert len(KEYPOINT_ORDER) == 14


def test_keypoint_order_is_frozen():
    expected = [
        "LeftEar", "RightEar", "LeftShoulder", "RightShoulder",
        "LeftElbow", "RightElbow", "LeftWrist", "RightWrist",
        "LeftHip", "RightHip", "LeftKnee", "RightKnee",
        "LeftAnkle", "RightAnkle",
    ]
    assert [k.json_name for k in KEYPOINT_ORDER] == expected


def test_gait_labels():
    assert len(GaitLabel) == 5
    assert GaitLabel.from_name("parkinson") is GaitLabel.PARKINSON
    with pytest.raises(ValueError):
        GaitLabel.from_name("stroke")


def test_keypoint_validation():
    for triple in ([float("nan"), 0.0, 1.0], [0.0, float("inf"), 1.0], [0.0, 0.0, 1.5]):
        line = json.dumps({"frame": 0, "kp": {"LeftEar": triple}})
        with pytest.raises(ParseError, match="line 1: keypoint 'LeftEar': non-finite") as exc:
            parse_keypoint_file(line)
        assert exc.value.line == 1


def test_sequence_ordering_enforced():
    xy = np.zeros((2, 14, 2))
    PoseSequence(xy, frame_index=[0, 1])
    with pytest.raises(ValueError):
        PoseSequence(xy, frame_index=[1, 0])
    with pytest.raises(ValueError):
        PoseSequence(np.zeros((0, 14, 2)))


@pytest.mark.parametrize("fields, message", [
    ({"conf": np.ones((3, 14))}, "one entry per frame"),
    ({"frame_index": [0, 1, 2]}, "one entry per frame"),
    ({"t_ms": [0.0]}, "one entry per frame"),
    ({"frame_index": [-1, 0]}, "frame_index must hold integers >= 0"),
])
def test_sequence_refuses_per_frame_fields_that_disagree_with_xy(fields, message):
    with pytest.raises(ValueError, match=message):
        PoseSequence(np.zeros((2, 14, 2)), **fields)


@pytest.mark.parametrize("kwargs, message", [
    ({"min_valid_frames": 0}, r"min_valid_frames must be >= 1"),
    ({"min_confidence": 1.5}, r"min_confidence must be in \[0, 1\]"),
])
def test_filter_valid_refuses_bad_thresholds(kwargs, message):
    seq = sequence_from_coords(np.arange(28.0).reshape(1, 14, 2))
    with pytest.raises(ValueError, match=message):
        filter_valid(seq, **kwargs)


def test_frame_is_valid_all_present():
    seq = sequence_from_coords(np.arange(28).reshape(1, 14, 2), confidence=0.9)
    assert frame_is_valid(seq, 0.5) is True


def test_frame_is_valid_missing_keypoint():
    seq = sequence_from_coords(np.arange(28).reshape(1, 14, 2), confidence=0.9)
    conf = seq.conf.copy()
    conf[0, KeypointId.LEFT_ANKLE - 1] = np.nan  # how the parser marks an absent joint
    incomplete = PoseSequence(seq.xy, conf)
    for threshold in (0.0, 0.5, 1.0):
        assert frame_is_valid(incomplete, threshold) is False


def test_frame_is_valid_confidence_threshold():
    seq = sequence_from_coords(np.arange(28).reshape(1, 14, 2), confidence=0.9)
    conf = seq.conf.copy()
    conf[0, KeypointId.RIGHT_KNEE - 1] = 0.3
    seq = PoseSequence(seq.xy, conf)
    assert frame_is_valid(seq, 0.5) is False
    assert frame_is_valid(seq, 0.2) is True


def test_frame_is_valid_monotone_in_threshold():
    rng = np.random.default_rng(0)
    for _ in range(20):
        seq = sequence_from_coords(
            rng.uniform(0, 100, (1, 14, 2)), confidence=float(rng.uniform(0, 1))
        )
        results = [frame_is_valid(seq, t) for t in np.linspace(0, 1, 11)]
        # once invalid, stays invalid as the threshold rises
        assert all(a >= b for a, b in zip(results, results[1:]))
