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
        if self.n_frames < 2:
            raise ValueError("n_frames must be >= 2")
        for name in ("forward_lean_deg", "arm_bend_deg", "circumduct_left",
                     "circumduct_right", "jitter_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def default_params(label: GaitLabel, seed: int = 0) -> GaitParams:
    """Per-class default knobs; Normal has all abnormality amplitudes at zero."""
    base = GaitParams(label=label, seed=seed)
    if label is GaitLabel.PARKINSON:
        return replace(base, forward_lean_deg=25.0, arm_bend_deg=60.0)
    if label is GaitLabel.HEMIPLEGIA:
        return replace(base, circumduct_right=0.35)
    if label is GaitLabel.DIPLEGIA:
        return replace(base, circumduct_left=0.35, circumduct_right=0.35)
    if label is GaitLabel.CHOREIFORM:
        return replace(base, jitter_std=0.15)
    return base


def generate(params: GaitParams, source_id: str = "") -> PoseSequence:
    """Deterministic sequence of complete frames for the given parameters."""
    rng = np.random.default_rng(params.seed)
    phase0 = rng.uniform(0.0, 2.0 * math.pi)
    omega = 2.0 * math.pi / params.stride_period_frames

    lean = math.radians(params.forward_lean_deg)
    neck_angle = _NECK_LEAN_FACTOR * lean
    bend = math.radians(params.arm_bend_deg)
    swing = math.radians(_SWING_DEG)
    circ_px = {
        +1: params.circumduct_left * TORSO_WIDTH * TORSO_PX,
        -1: params.circumduct_right * TORSO_WIDTH * TORSO_PX,
    }
    jitter_px = params.jitter_std * TORSO_WIDTH * TORSO_PX

    frames = []
    for t in range(params.n_frames):
        ph = omega * t + phase0
        hip_c = np.array([250.0, 300.0 + 2.0 * math.sin(2.0 * ph)])
        shoulder_c = hip_c + TORSO_PX * np.array([math.sin(lean), -math.cos(lean)])
        ear_c = shoulder_c + _NECK_LEN * TORSO_PX * np.array(
            [math.sin(neck_angle), -math.cos(neck_angle)]
        )

        pts = {}
        pts[K.LEFT_EAR] = ear_c + [_EAR_HALF * TORSO_PX, 0.0]
        pts[K.RIGHT_EAR] = ear_c - [_EAR_HALF * TORSO_PX, 0.0]
        pts[K.LEFT_SHOULDER] = shoulder_c + [_SHOULDER_HALF * TORSO_PX, 0.0]
        pts[K.RIGHT_SHOULDER] = shoulder_c - [_SHOULDER_HALF * TORSO_PX, 0.0]
        pts[K.LEFT_HIP] = hip_c + [_HIP_HALF * TORSO_PX, 0.0]
        pts[K.RIGHT_HIP] = hip_c - [_HIP_HALF * TORSO_PX, 0.0]

        # legs: straight (knee at the midpoint), with lateral circumduction
        # offsets applied linearly along the limb so it stays collinear
        for side, hip_k, knee_k, ankle_k, leg_phase in (
            (+1, K.LEFT_HIP, K.LEFT_KNEE, K.LEFT_ANKLE, 0.0),
            (-1, K.RIGHT_HIP, K.RIGHT_KNEE, K.RIGHT_ANKLE, math.pi),
        ):
            theta = swing * math.sin(ph + leg_phase)
            lateral = side * circ_px[side] * abs(math.sin(ph + leg_phase))
            ankle = pts[hip_k] + _LEG_LEN * TORSO_PX * np.array(
                [math.sin(theta), math.cos(theta)]
            ) + [lateral, 0.0]
            pts[ankle_k] = ankle
            pts[knee_k] = (pts[hip_k] + ankle) / 2.0

        # arms: swing in phase with the opposite leg; elbow flexion bends
        # the forearm forward (+x)
        for shoulder_k, elbow_k, wrist_k, arm_phase in (
            (K.LEFT_SHOULDER, K.LEFT_ELBOW, K.LEFT_WRIST, math.pi),
            (K.RIGHT_SHOULDER, K.RIGHT_ELBOW, K.RIGHT_WRIST, 0.0),
        ):
            theta = swing * math.sin(ph + arm_phase)
            elbow = pts[shoulder_k] + _ARM_SEG * TORSO_PX * np.array(
                [math.sin(theta), math.cos(theta)]
            )
            wrist = elbow + _ARM_SEG * TORSO_PX * np.array(
                [math.sin(theta + bend), math.cos(theta + bend)]
            )
            pts[elbow_k] = elbow
            pts[wrist_k] = wrist

        coords = np.array([pts[k] for k in KeypointId])
        if jitter_px > 0:
            coords = coords + rng.normal(0.0, jitter_px, size=coords.shape)

        frames.append(coords)
    return PoseSequence(
        xy=np.stack(frames),
        t_ms=tuple(round(t * 1000 / 30) for t in range(params.n_frames)),
        source_id=source_id,
    )


def _perturbed_params(label: GaitLabel, rng: np.random.Generator, n_frames: int) -> GaitParams:
    """Defaults with +/-20% variation on amplitudes (and stride period) per sequence."""
    base = default_params(label, seed=int(rng.integers(2**31)))
    scale = lambda v: v * rng.uniform(0.8, 1.2)  # noqa: E731
    return replace(
        base,
        n_frames=n_frames,
        stride_period_frames=max(4, round(base.stride_period_frames * rng.uniform(0.8, 1.2))),
        forward_lean_deg=scale(base.forward_lean_deg),
        arm_bend_deg=scale(base.arm_bend_deg),
        circumduct_left=scale(base.circumduct_left),
        circumduct_right=scale(base.circumduct_right),
        jitter_std=scale(base.jitter_std),
    )


def _corpus_items(
    counts: dict[GaitLabel, int], seed: int, n_frames: int
) -> list[tuple[PoseSequence, GaitLabel, GaitParams]]:
    for label, n in counts.items():
        if n < 1:
            raise ValueError(f"count for {label} must be >= 1")
    total = sum(counts.get(label, 0) for label in GaitLabel)
    children = np.random.SeedSequence(seed).spawn(total)
    items = []
    j = 0
    for label in GaitLabel:
        for i in range(counts.get(label, 0)):
            rng = np.random.default_rng(children[j])
            j += 1
            params = _perturbed_params(label, rng, n_frames)
            source_id = f"{label.value.lower()}_{i:03d}"
            items.append((generate(params, source_id=source_id), label, params))
    return items


def generate_corpus(
    counts: dict[GaitLabel, int] | None = None,
    seed: int = 0,
    n_frames: int = 60,
) -> list[tuple[PoseSequence, GaitLabel]]:
    """Labeled corpus with per-sequence derived seeds and parameter variation."""
    if counts is None:
        counts = DEFAULT_COUNTS
    return [(seq, label) for seq, label, _ in _corpus_items(counts, seed, n_frames)]


def write_corpus(
    out_dir,
    counts: dict[GaitLabel, int] | None = None,
    seed: int = 0,
    n_frames: int = 60,
) -> list[tuple[str, GaitLabel]]:
    """Emit ``<source_id>.kp.jsonl`` files plus ``manifest.csv`` into out_dir."""
    if counts is None:
        counts = DEFAULT_COUNTS
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    with open(out_dir / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source_id", "label", "seed"])
        for seq, label, params in _corpus_items(counts, seed, n_frames):
            save_keypoint_file(seq, out_dir / f"{seq.source_id}.kp.jsonl")
            writer.writerow([seq.source_id, label.value, params.seed])
            written.append((seq.source_id, label))
    return written


def read_manifest(path) -> dict[str, GaitLabel]:
    """source_id -> label mapping from a corpus manifest.csv.

    A missing column, a short row, an unknown label, non-UTF-8 bytes or a
    defect the csv module finds raise ParseError naming the file and line."""
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
                try:
                    labels[row["source_id"]] = GaitLabel.from_name(row["label"])
                except ValueError as exc:
                    raise ParseError(f"{where}: {exc}") from None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not a readable manifest: {exc}") from None
    return labels
