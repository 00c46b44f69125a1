"""Procedural stick-figure gait sequences for the five gait classes.

A 2-D sagittal/frontal hybrid walking model on the 14-keypoint skeleton:
limbs swing sinusoidally, and four knobs imitate the qualitative signatures
of the abnormal gaits -- trunk flexion and bent arms (parkinsonian), lateral
leg circumduction on one or both sides (hemiplegic/diplegic), and per-joint
jitter (choreiform). This is a test/benchmark harness with deliberately
simple kinematics, not a claim of biomechanical fidelity.

Units: the torso (hip center to shoulder center) is 1.0 unit = 100 px.
Circumduction and jitter amplitudes are expressed in torso-widths
(0.35 torso-lengths).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ParseError
from .ingest import save_keypoint_file
from .pose import GaitLabel, KeypointId, PoseSequence

TORSO_PX = 100.0
TORSO_WIDTH = 0.35  # torso-widths unit, in torso-lengths

# bone lengths / offsets in torso units
_NECK_LEN = 0.35
_SHOULDER_HALF = 0.18
_HIP_HALF = 0.12
_EAR_HALF = 0.07
_ARM_SEG = 0.40  # upper arm and forearm
_LEG_LEN = 0.95
_SWING_DEG = 15.0  # arm and leg swing amplitude (equal: normal limbs parallel)
_NECK_LEAN_FACTOR = 1.8  # head droops more than the trunk when leaning

K = KeypointId

DEFAULT_COUNTS = {
    GaitLabel.CHOREIFORM: 51,
    GaitLabel.DIPLEGIA: 55,
    GaitLabel.HEMIPLEGIA: 70,
    GaitLabel.NORMAL: 31,
    GaitLabel.PARKINSON: 51,
}


# the five abnormality amplitudes in field order, which is also the order
# _perturbed_params draws their variation in, and each class's defaults
_AMPLITUDES = ("forward_lean_deg", "arm_bend_deg", "circumduct_left", "circumduct_right",
               "jitter_std")
_CLASS_AMPLITUDES = {
    GaitLabel.CHOREIFORM: {"jitter_std": 0.15},
    GaitLabel.DIPLEGIA: {"circumduct_left": 0.35, "circumduct_right": 0.35},
    GaitLabel.HEMIPLEGIA: {"circumduct_right": 0.35},
    GaitLabel.NORMAL: {},
    GaitLabel.PARKINSON: {"forward_lean_deg": 25.0, "arm_bend_deg": 60.0},
}


@dataclass(frozen=True)
class GaitParams:
    label: GaitLabel
    n_frames: int = 60
    stride_period_frames: int = 30
    forward_lean_deg: float = 0.0
    arm_bend_deg: float = 0.0
    circumduct_left: float = 0.0  # torso-widths
    circumduct_right: float = 0.0  # torso-widths
    jitter_std: float = 0.0  # torso-widths
    seed: int = 0

    def __post_init__(self):
        if (not isinstance(self.n_frames, (int, np.integer)) or isinstance(self.n_frames, bool)
                or self.n_frames < 2):
            raise ValueError("n_frames must be an integer >= 2")
        if not (math.isfinite(self.stride_period_frames) and self.stride_period_frames > 0):
            raise ValueError("stride_period_frames must be finite and > 0")
        for name in _AMPLITUDES:
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be finite and >= 0")


def default_params(label: GaitLabel, seed: int = 0) -> GaitParams:
    """Per-class default knobs; Normal has all abnormality amplitudes at zero."""
    return GaitParams(label=label, seed=seed, **_CLASS_AMPLITUDES[label])


def _unit(angle: np.ndarray) -> np.ndarray:
    """(T, 2) direction vectors (sin, cos) of per-frame angles from straight down."""
    return np.stack([np.sin(angle), np.cos(angle)], axis=1)


def generate(params: GaitParams, source_id: str = "") -> PoseSequence:
    """Deterministic sequence of complete frames for the given parameters."""
    rng = np.random.default_rng(params.seed)
    phase0 = rng.uniform(0.0, 2.0 * math.pi)
    omega = 2.0 * math.pi / params.stride_period_frames
    ph = omega * np.arange(params.n_frames) + phase0

    lean = math.radians(params.forward_lean_deg)
    neck = _NECK_LEAN_FACTOR * lean
    bend = math.radians(params.arm_bend_deg)
    swing = math.radians(_SWING_DEG)
    xy = np.empty((params.n_frames, len(KeypointId), 2))  # column k - 1 holds joint k

    hip_c = np.stack([np.full(params.n_frames, 250.0), 300.0 + 2.0 * np.sin(2.0 * ph)], axis=1)
    shoulder_c = hip_c + TORSO_PX * np.array([math.sin(lean), -math.cos(lean)])
    ear_c = shoulder_c + _NECK_LEN * TORSO_PX * np.array([math.sin(neck), -math.cos(neck)])
    for left, right, center, half in (
        (K.LEFT_EAR, K.RIGHT_EAR, ear_c, _EAR_HALF),
        (K.LEFT_SHOULDER, K.RIGHT_SHOULDER, shoulder_c, _SHOULDER_HALF),
        (K.LEFT_HIP, K.RIGHT_HIP, hip_c, _HIP_HALF),
    ):
        xy[:, left - 1] = center + [half * TORSO_PX, 0.0]
        xy[:, right - 1] = center - [half * TORSO_PX, 0.0]

    # legs: straight (knee at the midpoint), with lateral circumduction
    # offsets applied linearly along the limb so it stays collinear
    for side, circumduct, hip_k, knee_k, ankle_k, leg_phase in (
        (+1, params.circumduct_left, K.LEFT_HIP, K.LEFT_KNEE, K.LEFT_ANKLE, 0.0),
        (-1, params.circumduct_right, K.RIGHT_HIP, K.RIGHT_KNEE, K.RIGHT_ANKLE, math.pi),
    ):
        s = np.sin(ph + leg_phase)
        ankle = xy[:, hip_k - 1] + _LEG_LEN * TORSO_PX * _unit(swing * s)
        ankle[:, 0] += side * (circumduct * TORSO_WIDTH * TORSO_PX) * np.abs(s)
        xy[:, ankle_k - 1] = ankle
        xy[:, knee_k - 1] = (xy[:, hip_k - 1] + ankle) / 2.0

    # arms: swing in phase with the opposite leg; elbow flexion bends
    # the forearm forward (+x)
    for shoulder_k, elbow_k, wrist_k, arm_phase in (
        (K.LEFT_SHOULDER, K.LEFT_ELBOW, K.LEFT_WRIST, math.pi),
        (K.RIGHT_SHOULDER, K.RIGHT_ELBOW, K.RIGHT_WRIST, 0.0),
    ):
        theta = swing * np.sin(ph + arm_phase)
        xy[:, elbow_k - 1] = xy[:, shoulder_k - 1] + _ARM_SEG * TORSO_PX * _unit(theta)
        xy[:, wrist_k - 1] = xy[:, elbow_k - 1] + _ARM_SEG * TORSO_PX * _unit(theta + bend)

    jitter_px = params.jitter_std * TORSO_WIDTH * TORSO_PX
    if jitter_px > 0:
        xy += rng.normal(0.0, jitter_px, size=xy.shape)
    return PoseSequence(xy, t_ms=tuple(round(t * 1000 / 30) for t in range(params.n_frames)),
                        source_id=source_id)


def _perturbed_params(label: GaitLabel, rng: np.random.Generator, n_frames: int) -> GaitParams:
    """Defaults with +/-20% variation on amplitudes (and stride period) per sequence."""
    base = default_params(label, seed=int(rng.integers(2**31)))
    stride = max(4, round(base.stride_period_frames * rng.uniform(0.8, 1.2)))
    return replace(base, n_frames=n_frames, stride_period_frames=stride,
                   **{name: getattr(base, name) * rng.uniform(0.8, 1.2) for name in _AMPLITUDES})


def _corpus_params(
    counts: dict[GaitLabel, int] | None, seed: int, n_frames: int
) -> list[tuple[str, GaitLabel, GaitParams]]:
    """(source_id, label, params) of every corpus sequence; refused counts or
    frame counts raise here, before any sequence is built."""
    counts = DEFAULT_COUNTS if counts is None else counts
    for label, n in counts.items():
        if n < 1:
            raise ValueError(f"count for {label.value} must be >= 1")
    total = sum(counts.get(label, 0) for label in GaitLabel)
    children = iter(np.random.SeedSequence(seed).spawn(total))
    return [(f"{label.value.lower()}_{i:03d}", label,
             _perturbed_params(label, np.random.default_rng(next(children)), n_frames))
            for label in GaitLabel for i in range(counts.get(label, 0))]


def generate_corpus(
    counts: dict[GaitLabel, int] | None = None,
    seed: int = 0,
    n_frames: int = 60,
) -> list[tuple[PoseSequence, GaitLabel]]:
    """Labeled corpus with per-sequence derived seeds and parameter variation."""
    return [(generate(params, source_id), label)
            for source_id, label, params in _corpus_params(counts, seed, n_frames)]


def write_corpus(
    out_dir,
    counts: dict[GaitLabel, int] | None = None,
    seed: int = 0,
    n_frames: int = 60,
) -> list[tuple[str, GaitLabel]]:
    """Emit ``<source_id>.kp.jsonl`` files plus ``manifest.csv`` into out_dir.

    Every sequence's parameters are drawn first, so refused counts or frame
    counts leave out_dir as it was; then each sequence is generated, written
    and dropped in turn, so no more than one is held at a time."""
    items = _corpus_params(counts, seed, n_frames)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source_id", "label", "seed"])
        for source_id, label, params in items:
            save_keypoint_file(generate(params, source_id), out_dir / f"{source_id}.kp.jsonl")
            writer.writerow([source_id, label.value, params.seed])
    return [(source_id, label) for source_id, label, _ in items]


def read_manifest(path) -> dict[str, GaitLabel]:
    """source_id -> label mapping from a corpus manifest.csv.

    A missing column, a short row, a repeated source_id, an unknown label,
    non-UTF-8 bytes or a defect the csv module finds raise ParseError naming
    the file and line."""
    labels = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if not {"source_id", "label"} <= set(reader.fieldnames or ()):
                raise ParseError(f"{path} line 1: the header needs source_id and label columns")
            for row in reader:
                where = f"{path} line {reader.line_num}"
                if row["source_id"] is None or row["label"] is None:
                    raise ParseError(f"{where}: row has too few cells")
                if row["source_id"] in labels:
                    raise ParseError(f"{where}: duplicate source_id {row['source_id']!r}")
                try:
                    labels[row["source_id"]] = GaitLabel.from_name(row["label"])
                except ValueError as exc:
                    raise ParseError(f"{where}: {exc}") from None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not a readable manifest: {exc}") from None
    return labels
