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

# every difference of two points that the features use, as _PLUS - _MINUS
# over the joints and midpoints: the 6 defining lines (end to end), the 6
# straightness offsets (end to point) and the 91 pairs
_PLUS = np.concatenate([_END_B, _POINT, _PAIR_I])
_MINUS = np.concatenate([_END_A, _END_A, _PAIR_J])

# every defining line, in the order the first degeneracy of a frame is reported
_LINE_NAMES = tuple(row[0] for row in _LINES)

FEATURE_NAMES: tuple[str, ...] = (
    tuple(f"ls{i}" for i in range(1, 5))
    + ("hl1", "hl2", "us", "bs")
    + tuple(f"cd{i}" for i in range(1, 15))
    + tuple(f"md{i}" for i in range(1, 92))
)

NORM_SCOPES = ("frame", "video")


def _geometry(xy):
    """Every unnormalized measurement of (..., 14, 2) poses in one pass:
    (8 line values in feature order, 6 defining-line lengths in _LINE_NAMES
    order, 14 centroid distances, 91 pairwise distances)."""
    # extract_sequence refuses what overflows and reports short lines by their length
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mid = (np.take(xy, _MID_A, axis=-2) + np.take(xy, _MID_B, axis=-2)) / 2.0
        planes = np.moveaxis(np.concatenate([xy, mid], axis=-2), -1, 0)  # x and y, (2, ..., 18)
        dx, dy = np.take(planes, _PLUS, axis=-1) - np.take(planes, _MINUS, axis=-1)  # (2, ..., 103)
        # each point's distance from its line: |line x offset| / |line|
        lengths = np.hypot(dx[..., :6], dy[..., :6])
        cross = dx[..., :6] * dy[..., 6:12] - dy[..., :6] * dx[..., 6:12]
        straight = np.abs(cross) / lengths
        ux, uy = dx[..., :2], dy[..., :2]  # left/right hand lines
        vx, vy = dx[..., 3:1:-1], dy[..., 3:1:-1]  # right/left leg lines
        angle = np.arctan2(np.abs(ux * vy - uy * vx), ux * vx + uy * vy)  # in [0, pi]
        folded = np.minimum(angle, np.pi - angle)  # lines have no direction
        lines = np.concatenate([straight[..., :4], folded, straight[..., 4:]], axis=-1)
        # |v| as np.linalg.norm computes it on 2-vectors, from x and y planes
        cx, cy = np.moveaxis(xy - xy.mean(axis=-2, keepdims=True), -1, 0)
        central = np.sqrt(cx * cx + cy * cy)
        mx, my = dx[..., 12:], dy[..., 12:]
        mutual = np.sqrt(mx * mx + my * my)
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
    if norm_scope == "video" and keep.any():
        cd_top, md_top = cd_top[keep].max(), md_top[keep].max()
    # every frame is normalized, then the degenerate ones are dropped at once
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        features = np.hstack([lines, cd / cd_top, md / md_top])[keep]
    if not np.isfinite(features).all():
        t = np.argmin(np.isfinite(features).all(axis=1))
        raise ParseError(f"{seq.source_id!r} frame {seq.frame_index[keep][t]} has non-finite "
                         "features; are its coordinates too large?")
    return features, int(degenerate.sum())
