"""Frame-level gait features from complete 14-keypoint poses.

Six feature families, 113 values per frame, in a frozen order:

    limb straightness (4) | hand-leg coordination (2) | upper-body
    straightness (1) | body straightness (1) | central distances (14) |
    mutual distances (91)

Straightness values are perpendicular point-to-line distances in pixels.
Coordination values are angles between undirected limb lines, folded to
[0, pi/2]. Central/mutual distances are normalized by the maximum distance
in their block (per frame by default, per video optionally).

extract_sequence computes every family of a (T, 14, 2) stack in one pass;
a family is its columns, named by FEATURE_NAMES.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateLine, DegeneratePose, ParseError
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
# point's distance from the line through the two ends; order ls1-ls4, us, bs.
# The limbs' end-to-end lines are also the hand and leg lines of hl1 and hl2.
_LINES = (
    ("left-hand", K.LEFT_ELBOW, K.LEFT_SHOULDER, K.LEFT_WRIST),
    ("right-hand", K.RIGHT_ELBOW, K.RIGHT_SHOULDER, K.RIGHT_WRIST),
    ("left-leg", K.LEFT_KNEE, K.LEFT_HIP, K.LEFT_ANKLE),
    ("right-leg", K.RIGHT_KNEE, K.RIGHT_HIP, K.RIGHT_ANKLE),
    ("upper-body axis", _SHOULDER, _EAR, _HIP),
    ("body axis", _HIP, _SHOULDER, _ANKLE),
)


def _points(table, column):
    """0-based point indices of one column of a point table."""
    return np.array([row[column] - 1 for row in table])


_MID_A, _MID_B = (_points(_MIDPOINTS, c) for c in (0, 1))
_POINT, _END_A, _END_B = (_points(_LINES, c) for c in (1, 2, 3))
_PAIR_I, _PAIR_J = np.triu_indices(14, k=1)  # lexicographic (i, j), i < j

# every defining line, in the order the first degeneracy of a frame is reported
_LINE_NAMES = tuple(row[0] for row in _LINES)

FEATURE_NAMES: tuple[str, ...] = (
    tuple(f"ls{i}" for i in range(1, 5))
    + ("hl1", "hl2", "us", "bs")
    + tuple(f"cd{i}" for i in range(1, 15))
    + tuple(f"md{i}" for i in range(1, 92))
)

NORM_SCOPES = ("frame", "video")


def _point_line(p, a, d):
    """(distance from p to the line through a along d, |d|) over (..., 2) points."""
    length = np.hypot(d[..., 0], d[..., 1])
    cross = d[..., 0] * (p[..., 1] - a[..., 1]) - d[..., 1] * (p[..., 0] - a[..., 0])
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate lines are reported by length
        return np.abs(cross) / length, length


def point_line_distance(p, a, b):
    """Euclidean distance from point p to the infinite line through a and b.

    Cross-product form |(b-a) x (p-a)| / ||b-a||: agrees with the
    slope-intercept distance formula wherever the slope is defined and also
    handles vertical lines. Points are (..., 2) arrays and broadcast. Raises
    DegenerateLine when a and b are closer than EPS, and ValueError when a
    distance is not finite (non-finite input, or coordinates that overflow).
    """
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    with np.errstate(over="ignore", invalid="ignore"):
        distance, length = _point_line(p, a, b - a)
    if (length < EPS).any():
        raise DegenerateLine("line endpoints")
    if not np.isfinite(distance).all():
        raise ValueError("point-line distance is not finite")
    return distance


def _geometry(xy):
    """Every unnormalized measurement of (..., 14, 2) poses in one pass:
    (8 line values in feature order, 6 defining-line lengths in _LINE_NAMES
    order, 14 centroid distances, 91 pairwise distances)."""
    with np.errstate(over="ignore", invalid="ignore"):  # extract_sequence refuses what overflows
        mid = (xy[..., _MID_A, :] + xy[..., _MID_B, :]) / 2.0
        points = np.concatenate([xy, mid], axis=-2)
        a = points[..., _END_A, :]
        d = points[..., _END_B, :] - a  # every defining line, end to end
        straight, lengths = _point_line(points[..., _POINT, :], a, d)
        u, v = d[..., [0, 1], :], d[..., [3, 2], :]  # left/right hand, right/left leg lines
        cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
        dot = u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
        angle = np.arctan2(np.abs(cross), dot)  # in [0, pi]
        folded = np.minimum(angle, np.pi - angle)  # lines have no direction
        lines = np.concatenate([straight[..., :4], folded, straight[..., 4:]], axis=-1)
        central = np.linalg.norm(xy - xy.mean(axis=-2, keepdims=True), axis=-1)
        mutual = np.linalg.norm(xy[..., _PAIR_I, :] - xy[..., _PAIR_J, :], axis=-1)
    return lines, lengths, central, mutual


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
    divides by the maximum over all kept frames (one max per block). A kept
    frame whose features overflow raises ParseError naming the source and frame.
    """
    if norm_scope not in NORM_SCOPES:
        raise ValueError(f"norm_scope must be 'frame' or 'video', got {norm_scope!r}")
    xy = seq.xy
    incomplete = np.flatnonzero(np.isnan(xy).any(axis=(1, 2)))
    if incomplete.size:
        raise ValueError(f"frame {seq.frame_index[incomplete[0]]} is missing keypoints")
    lines, lengths, cd, md = _geometry(xy)
    short = lengths < EPS  # (T, 6)
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
    if not np.isfinite(features).all():
        t = np.argmin(np.isfinite(features).all(axis=1))
        raise ParseError(f"{seq.source_id!r} frame {seq.frame_index[keep][t]} has non-finite "
                         "features; are its coordinates too large?")
    return features, int(degenerate.sum())


def extract_frame_features(xy) -> np.ndarray:
    """The 113 features of one complete (14, 2) pose; raises its first degeneracy."""
    features, _ = extract_sequence(PoseSequence(np.asarray(xy, dtype=float)[None]),
                                   skip_degenerate=False)
    return features[0]
