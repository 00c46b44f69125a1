"""Core domain types: keypoint identifiers, pose sequences and class labels.

Coordinates follow the usual pose-estimator image convention: x grows
rightward, y grows downward, units are pixels. Every feature downstream is
an absolute distance or angle, so the y-direction choice is harmless -- it
is fixed here only to keep mixed-convention datasets out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np


class KeypointId(enum.IntEnum):
    """The 14 body joints used for gait features, indexed 1..14."""

    LEFT_EAR = 1
    RIGHT_EAR = 2
    LEFT_SHOULDER = 3
    RIGHT_SHOULDER = 4
    LEFT_ELBOW = 5
    RIGHT_ELBOW = 6
    LEFT_WRIST = 7
    RIGHT_WRIST = 8
    LEFT_HIP = 9
    RIGHT_HIP = 10
    LEFT_KNEE = 11
    RIGHT_KNEE = 12
    LEFT_ANKLE = 13
    RIGHT_ANKLE = 14

    @property
    def json_name(self) -> str:
        """CamelCase name used in the .kp.jsonl interchange format."""
        return "".join(part.capitalize() for part in self.name.split("_"))


KEYPOINT_ORDER = tuple(KeypointId)  # index order 1..14


class GaitLabel(enum.Enum):
    """The five gait classes (four abnormalities plus normal)."""

    CHOREIFORM = "Choreiform"
    DIPLEGIA = "Diplegia"
    HEMIPLEGIA = "Hemiplegia"
    NORMAL = "Normal"
    PARKINSON = "Parkinson"

    @classmethod
    def from_name(cls, name: str) -> "GaitLabel":
        for label in cls:
            if label.value.lower() == name.strip().lower():
                return label
        raise ValueError(f"unknown gait label {name!r}")


@dataclass(frozen=True, eq=False)
class PoseSequence:
    """Keypoints of one single-person video, one row per frame.

    ``xy`` (T, 14, 2) holds pixel coordinates and ``conf`` (T, 14) detector
    confidences, both NaN where the estimator reported no joint, in
    ``KEYPOINT_ORDER``. ``frame_index`` (T,) is strictly increasing and
    ``t_ms`` holds each frame's timestamp or None. Omitted, ``conf`` is all
    ones, ``frame_index`` counts from 0 and ``t_ms`` is all None.
    """

    xy: np.ndarray
    conf: Optional[np.ndarray] = None
    frame_index: Optional[np.ndarray] = None
    t_ms: Optional[tuple] = None
    source_id: str = ""

    def __post_init__(self):
        xy = np.asarray(self.xy, dtype=float)
        if xy.ndim != 3 or xy.shape[1:] != (14, 2) or len(xy) == 0:
            raise ValueError(f"xy must be a non-empty (T, 14, 2) array, got shape {xy.shape}")
        n = len(xy)
        conf = np.ones((n, 14)) if self.conf is None else np.asarray(self.conf, dtype=float)
        index = np.arange(n) if self.frame_index is None else np.asarray(self.frame_index)
        t_ms = (None,) * n if self.t_ms is None else tuple(self.t_ms)
        if conf.shape != (n, 14) or index.shape != (n,) or len(t_ms) != n:
            raise ValueError("conf, frame_index and t_ms must have one entry per frame")
        if index.dtype.kind not in "iu" or (index < 0).any():
            raise ValueError("frame_index must hold integers >= 0")
        if (np.diff(index) <= 0).any():
            raise ValueError("frames must be strictly ordered by frame_index")
        for name, value in (("xy", xy), ("conf", conf), ("frame_index", index), ("t_ms", t_ms)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.xy)

    def __getitem__(self, frames) -> "PoseSequence":
        """The frames a boolean mask selects, as a new sequence."""
        rows = np.arange(len(self))[frames]
        return PoseSequence(self.xy[rows], self.conf[rows], self.frame_index[rows],
                            tuple(self.t_ms[i] for i in rows), self.source_id)

    def __eq__(self, other):
        if not isinstance(other, PoseSequence):
            return NotImplemented
        return (
            self.source_id == other.source_id
            and self.t_ms == other.t_ms
            and np.array_equal(self.frame_index, other.frame_index)
            and np.array_equal(self.xy, other.xy, equal_nan=True)
            and np.array_equal(self.conf, other.conf, equal_nan=True)
        )

    __hash__ = None
