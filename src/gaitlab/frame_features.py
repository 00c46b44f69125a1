"""Frame-level gait features from complete 14-keypoint poses.

Six feature families, 113 values per frame, in a frozen order:

    limb straightness (4) | hand-leg coordination (2) | upper-body
    straightness (1) | body straightness (1) | central distances (14) |
    mutual distances (91)

Straightness values are perpendicular point-to-line distances in pixels.
Coordination values are angles between undirected limb lines, folded to
[0, pi/2]. Central/mutual distances are normalized by the maximum distance
in their block (per frame by default, per video optionally).

Every function takes coordinates of shape (..., 14, 2) -- one pose or a
(T, 14, 2) stack -- in keypoint order, and computes over the leading axes
at once.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateLine, DegeneratePose
from .pose import KeypointId, PoseSequence

EPS = 1e-9  # pixels; below this two defining points are considered coincident

K = KeypointId

# (name, center joint, end joints) per limb, in feature order
_LIMBS = (
    ("left-hand", K.LEFT_ELBOW, K.LEFT_SHOULDER, K.LEFT_WRIST),
    ("right-hand", K.RIGHT_ELBOW, K.RIGHT_SHOULDER, K.RIGHT_WRIST),
    ("left-leg", K.LEFT_KNEE, K.LEFT_HIP, K.LEFT_ANKLE),
    ("right-leg", K.RIGHT_KNEE, K.RIGHT_HIP, K.RIGHT_ANKLE),
)

# hand (shoulder->wrist) paired with the opposite leg (hip->ankle)
_PAIRS = (
    ("left-hand", K.LEFT_SHOULDER, K.LEFT_WRIST, "right-leg", K.RIGHT_HIP, K.RIGHT_ANKLE),
    ("right-hand", K.RIGHT_SHOULDER, K.RIGHT_WRIST, "left-leg", K.LEFT_HIP, K.LEFT_ANKLE),
)


def _joints(table, column):
    """0-based joint indices of one column of a joint table."""
    return np.array([row[column] - 1 for row in table])


_LIMB_MIDDLE, _LIMB_END_A, _LIMB_END_B = (_joints(_LIMBS, c) for c in (1, 2, 3))
_SHOULDER, _WRIST, _HIP, _ANKLE = (_joints(_PAIRS, c) for c in (1, 2, 4, 5))
_LIMB_NAMES = tuple(row[0] for row in _LIMBS)
_PAIR_NAMES = tuple(name for row in _PAIRS for name in (row[0], row[3]))  # hand, then leg

_PAIR_I, _PAIR_J = np.triu_indices(14, k=1)  # lexicographic (i, j), i < j

# every defining line, in the order the first degeneracy of a frame is reported
_LINE_NAMES = _LIMB_NAMES + _PAIR_NAMES + ("upper-body axis", "body axis")

FEATURE_NAMES: tuple[str, ...] = (
    tuple(f"ls{i}" for i in range(1, 5))
    + ("hl1", "hl2", "us", "bs")
    + tuple(f"cd{i}" for i in range(1, 15))
    + tuple(f"md{i}" for i in range(1, 92))
)

NORM_SCOPES = ("frame", "video")


def _check_lines(lengths, names):
    """Raise DegenerateLine for the first line shorter than EPS, in frame
    order and then in ``names`` order (the last axis of ``lengths``)."""
    short = np.flatnonzero(np.reshape(lengths, (-1, len(names))) < EPS)
    if short.size:
        raise DegenerateLine(names[short[0] % len(names)])


def _point_line(p, a, b):
    """(distance from p to the line through a and b, |b - a|) over (..., 2) points."""
    d = b - a
    length = np.hypot(d[..., 0], d[..., 1])
    cross = d[..., 0] * (p[..., 1] - a[..., 1]) - d[..., 1] * (p[..., 0] - a[..., 0])
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate lines are reported by length
        return np.abs(cross) / length, length


def point_line_distance(p, a, b):
    """Euclidean distance from point p to the infinite line through a and b.

    Cross-product form |(b-a) x (p-a)| / ||b-a||: agrees with the
    slope-intercept distance formula wherever the slope is defined and also
    handles vertical lines. Points are (..., 2) arrays and broadcast.
    """
    distance, length = _point_line(*(np.asarray(v, dtype=float) for v in (p, a, b)))
    _check_lines(length, ("line endpoints",))
    return distance


def _limb_straightness(xy):
    return _point_line(xy[..., _LIMB_MIDDLE, :], xy[..., _LIMB_END_A, :], xy[..., _LIMB_END_B, :])


def limb_straightness(xy) -> np.ndarray:
    """Displacement of each limb's middle joint from its end-to-end line.

    Order: left hand, right hand, left leg, right leg. Shape (..., 4).
    """
    distance, length = _limb_straightness(np.asarray(xy, dtype=float))
    _check_lines(length, _LIMB_NAMES)
    return distance


def _hand_leg_coordination(xy):
    u = xy[..., _WRIST, :] - xy[..., _SHOULDER, :]  # hand lines
    v = xy[..., _ANKLE, :] - xy[..., _HIP, :]  # opposite leg lines
    cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    dot = u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
    angle = np.arctan2(np.abs(cross), dot)  # in [0, pi]
    lengths = np.stack([np.hypot(u[..., 0], u[..., 1]), np.hypot(v[..., 0], v[..., 1])], axis=-1)
    # fold the angle, since lines have no direction; lengths run hand, leg, hand, leg
    return np.minimum(angle, np.pi - angle), lengths.reshape(*lengths.shape[:-2], 4)


def hand_leg_coordination(xy) -> np.ndarray:
    """Angle in [0, pi/2] between each hand line and the opposite leg line.

    Order: (left hand, right leg), (right hand, left leg). Shape (..., 2).
    """
    angle, lengths = _hand_leg_coordination(np.asarray(xy, dtype=float))
    _check_lines(lengths, _PAIR_NAMES)
    return angle


def _midpoint(xy, left: KeypointId, right: KeypointId):
    return (xy[..., left - 1, :] + xy[..., right - 1, :]) / 2.0


def _upper_body_straightness(xy):
    ear = _midpoint(xy, K.LEFT_EAR, K.RIGHT_EAR)
    shoulder = _midpoint(xy, K.LEFT_SHOULDER, K.RIGHT_SHOULDER)
    hip = _midpoint(xy, K.LEFT_HIP, K.RIGHT_HIP)
    return _point_line(shoulder, ear, hip)


def upper_body_straightness(xy) -> np.ndarray:
    """Displacement of the effective shoulder from the effective ear-hip line."""
    distance, length = _upper_body_straightness(np.asarray(xy, dtype=float))
    _check_lines(length, ("upper-body axis",))
    return distance


def _body_straightness(xy):
    shoulder = _midpoint(xy, K.LEFT_SHOULDER, K.RIGHT_SHOULDER)
    hip = _midpoint(xy, K.LEFT_HIP, K.RIGHT_HIP)
    ankle = _midpoint(xy, K.LEFT_ANKLE, K.RIGHT_ANKLE)
    return _point_line(hip, shoulder, ankle)


def body_straightness(xy) -> np.ndarray:
    """Displacement of the effective hip from the effective shoulder-ankle line."""
    distance, length = _body_straightness(np.asarray(xy, dtype=float))
    _check_lines(length, ("body axis",))
    return distance


def _central_distances(xy):
    """Unnormalized distances from each keypoint to the 14-point centroid."""
    return np.linalg.norm(xy - xy.mean(axis=-2, keepdims=True), axis=-1)


def _mutual_distances(xy):
    """Unnormalized pairwise keypoint distances, lexicographic (i, j) with i < j."""
    return np.linalg.norm(xy[..., _PAIR_I, :] - xy[..., _PAIR_J, :], axis=-1)


def _per_frame_normalized(distances):
    top = distances.max(axis=-1, keepdims=True)
    if (top < EPS).any():
        raise DegeneratePose()
    return distances / top


def central_distances(xy) -> np.ndarray:
    """Centroid distances normalized by the frame maximum; in [0, 1], max = 1."""
    return _per_frame_normalized(_central_distances(np.asarray(xy, dtype=float)))


def mutual_distances(xy) -> np.ndarray:
    """Pairwise distances normalized by the frame maximum; 91 values in [0, 1]."""
    return _per_frame_normalized(_mutual_distances(np.asarray(xy, dtype=float)))


def extract_sequence(
    seq: PoseSequence,
    norm_scope: str = "frame",
    skip_degenerate: bool = True,
) -> tuple[np.ndarray, int]:
    """Per-frame features of a whole sequence: ((n, 113) array, n_degenerate).

    Every frame must have all 14 keypoints (run ingest.filter_valid first).
    A frame is degenerate when one of its defining lines is shorter than EPS
    or all its keypoints coincide. Degenerate frames are dropped (n rows
    remain) and counted; with skip_degenerate=False the first one raises
    instead, naming its first short line. norm_scope "frame" divides each
    frame's central/mutual distances by that frame's maximum; "video"
    divides by the maximum over all kept frames (one max per block).
    """
    if norm_scope not in NORM_SCOPES:
        raise ValueError(f"norm_scope must be 'frame' or 'video', got {norm_scope!r}")
    xy = seq.xy
    incomplete = np.flatnonzero(np.isnan(xy).any(axis=(1, 2)))
    if incomplete.size:
        raise ValueError(f"frame {seq.frame_index[incomplete[0]]} is missing keypoints")
    families = (_limb_straightness(xy), _hand_leg_coordination(xy),
                _upper_body_straightness(xy), _body_straightness(xy))
    lines = np.column_stack([family[0] for family in families])  # (T, 8)
    short = np.column_stack([family[1] for family in families]) < EPS  # (T, 10)
    cd, md = _central_distances(xy), _mutual_distances(xy)
    cd_top, md_top = cd.max(axis=1, keepdims=True), md.max(axis=1, keepdims=True)
    degenerate = short.any(axis=1) | (cd_top[:, 0] < EPS) | (md_top[:, 0] < EPS)

    if degenerate.any() and not skip_degenerate:
        t = int(np.argmax(degenerate))
        frame_index = int(seq.frame_index[t])
        if short[t].any():
            raise DegenerateLine(_LINE_NAMES[int(np.argmax(short[t]))], frame_index=frame_index)
        raise DegeneratePose(frame_index=frame_index)

    keep = ~degenerate
    cd_top, md_top = cd_top[keep], md_top[keep]
    if norm_scope == "video" and keep.any():
        cd_top, md_top = cd_top.max(), md_top.max()
    features = np.hstack([lines[keep], cd[keep] / cd_top, md[keep] / md_top])
    return features, int(degenerate.sum())


def extract_frame_features(xy) -> np.ndarray:
    """The 113 features of one complete (14, 2) pose; raises its first degeneracy."""
    features, _ = extract_sequence(PoseSequence(np.asarray(xy, dtype=float)[None]),
                                   skip_degenerate=False)
    return features[0]
