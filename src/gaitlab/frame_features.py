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

# midpoints of joint pairs, numbered after the 14 joints as points 15-18
_MIDPOINTS = (
    (K.LEFT_EAR, K.RIGHT_EAR),
    (K.LEFT_SHOULDER, K.RIGHT_SHOULDER),
    (K.LEFT_HIP, K.RIGHT_HIP),
    (K.LEFT_ANKLE, K.RIGHT_ANKLE),
)
_EAR, _SHOULDER, _HIP, _ANKLE = range(15, 19)

# (line name, point, line end, line end) per straightness value, which is the
# point's distance from the line through the two ends; order ls1-ls4, us, bs
_LINES = (
    ("left-hand", K.LEFT_ELBOW, K.LEFT_SHOULDER, K.LEFT_WRIST),
    ("right-hand", K.RIGHT_ELBOW, K.RIGHT_SHOULDER, K.RIGHT_WRIST),
    ("left-leg", K.LEFT_KNEE, K.LEFT_HIP, K.LEFT_ANKLE),
    ("right-leg", K.RIGHT_KNEE, K.RIGHT_HIP, K.RIGHT_ANKLE),
    ("upper-body axis", _SHOULDER, _EAR, _HIP),
    ("body axis", _HIP, _SHOULDER, _ANKLE),
)

# hand (shoulder->wrist) paired with the opposite leg (hip->ankle)
_PAIRS = (
    ("left-hand", K.LEFT_SHOULDER, K.LEFT_WRIST, "right-leg", K.RIGHT_HIP, K.RIGHT_ANKLE),
    ("right-hand", K.RIGHT_SHOULDER, K.RIGHT_WRIST, "left-leg", K.LEFT_HIP, K.LEFT_ANKLE),
)


def _points(table, column):
    """0-based point indices of one column of a point table."""
    return np.array([row[column] - 1 for row in table])


_MID_A, _MID_B = (_points(_MIDPOINTS, c) for c in (0, 1))
_POINT, _END_A, _END_B = (_points(_LINES, c) for c in (1, 2, 3))
_HAND_A, _HAND_B, _LEG_A, _LEG_B = (_points(_PAIRS, c) for c in (1, 2, 4, 5))
_PAIR_I, _PAIR_J = np.triu_indices(14, k=1)  # lexicographic (i, j), i < j

# every defining line, in the order the first degeneracy of a frame is reported;
# a pair's lines are limbs' end-to-end lines, so a limb is named before its pair
_LINE_NAMES = (tuple(row[0] for row in _LINES)
               + tuple(name for row in _PAIRS for name in (row[0], row[3])))

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


def _geometry(xy):
    """Every unnormalized measurement of (..., 14, 2) poses in one pass:
    (8 line values in feature order, 10 defining-line lengths in _LINE_NAMES
    order, 14 centroid distances, 91 pairwise distances)."""
    with np.errstate(over="ignore", invalid="ignore"):  # aggregate refuses non-finite features
        mid = (xy[..., _MID_A, :] + xy[..., _MID_B, :]) / 2.0
        points = np.concatenate([xy, mid], axis=-2)
        straight, length = _point_line(points[..., _POINT, :], points[..., _END_A, :],
                                       points[..., _END_B, :])
        u = xy[..., _HAND_B, :] - xy[..., _HAND_A, :]  # hand lines
        v = xy[..., _LEG_B, :] - xy[..., _LEG_A, :]  # opposite leg lines
        cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
        dot = u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
        angle = np.arctan2(np.abs(cross), dot)  # in [0, pi]
        pair_lengths = np.stack([np.hypot(u[..., 0], u[..., 1]), np.hypot(v[..., 0], v[..., 1])],
                                axis=-1)  # hand, leg, hand, leg
        folded = np.minimum(angle, np.pi - angle)  # lines have no direction
        lines = np.concatenate([straight[..., :4], folded, straight[..., 4:]], axis=-1)
        lengths = np.concatenate([length, pair_lengths.reshape(*u.shape[:-2], 4)], axis=-1)
        central = np.linalg.norm(xy - xy.mean(axis=-2, keepdims=True), axis=-1)
        mutual = np.linalg.norm(xy[..., _PAIR_I, :] - xy[..., _PAIR_J, :], axis=-1)
    return lines, lengths, central, mutual


def _line_family(xy, columns, lines):
    """One line family's columns of the pass; raises its own first short line."""
    values, lengths, _, _ = _geometry(np.asarray(xy, dtype=float))
    _check_lines(lengths[..., lines], _LINE_NAMES[lines])
    return values[..., columns]


def limb_straightness(xy) -> np.ndarray:
    """Displacement of each limb's middle joint from its end-to-end line.

    Order: left hand, right hand, left leg, right leg. Shape (..., 4).
    """
    return _line_family(xy, slice(0, 4), slice(0, 4))


def hand_leg_coordination(xy) -> np.ndarray:
    """Angle in [0, pi/2] between each hand line and the opposite leg line.

    Order: (left hand, right leg), (right hand, left leg). Shape (..., 2).
    """
    return _line_family(xy, slice(4, 6), slice(6, 10))


def upper_body_straightness(xy) -> np.ndarray:
    """Displacement of the effective shoulder from the effective ear-hip line."""
    return _line_family(xy, 6, slice(4, 5))


def body_straightness(xy) -> np.ndarray:
    """Displacement of the effective hip from the effective shoulder-ankle line."""
    return _line_family(xy, 7, slice(5, 6))


def _per_frame_normalized(distances):
    top = distances.max(axis=-1, keepdims=True)
    if (top < EPS).any():
        raise DegeneratePose()
    return distances / top


def central_distances(xy) -> np.ndarray:
    """Centroid distances normalized by the frame maximum; in [0, 1], max = 1."""
    return _per_frame_normalized(_geometry(np.asarray(xy, dtype=float))[2])


def mutual_distances(xy) -> np.ndarray:
    """Pairwise distances normalized by the frame maximum; 91 values in [0, 1]."""
    return _per_frame_normalized(_geometry(np.asarray(xy, dtype=float))[3])


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
    lines, lengths, cd, md = _geometry(xy)
    short = lengths < EPS  # (T, 10)
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
    with np.errstate(over="ignore", invalid="ignore"):
        features = np.hstack([lines[keep], cd[keep] / cd_top, md[keep] / md_top])
    return features, int(degenerate.sum())


def extract_frame_features(xy) -> np.ndarray:
    """The 113 features of one complete (14, 2) pose; raises its first degeneracy."""
    features, _ = extract_sequence(PoseSequence(np.asarray(xy, dtype=float)[None]),
                                   skip_degenerate=False)
    return features[0]
