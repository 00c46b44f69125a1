"""Parsing and filtering of keypoint JSONL files.

Interchange format (extension ``.kp.jsonl``): one JSON object per line,

    {"frame": <int>, "t_ms": <number, optional>,
     "kp": {"LeftEar": [x, y, conf], ..., "RightAnkle": [x, y, conf]}}

Keypoint names are the CamelCase forms of the 14 joint identifiers; unknown
names are ignored so richer estimator exports can be fed through a simple
field rename. Coordinates must be finite numbers and confidences numbers in
[0, 1]; a joint a line does not name is absent (NaN in the parsed arrays).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import DuplicateFrame, EmptyInput, MalformedLine, ParseError, TooFewValidFrames
from .pose import KEYPOINT_ORDER, PoseSequence

DEFAULT_MIN_CONFIDENCE = 0.05
DEFAULT_MIN_VALID_FRAMES = 10

_NAMES = tuple(k.json_name for k in KEYPOINT_ORDER)
_ABSENT = [math.nan] * 3  # an absent joint's [x, y, conf]; also the lookup default marking it
_NUMBER_TYPES = {int, float}  # bool is not among them: JSON true/false are not numbers
_MAX_FRAME_INDEX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class IngestReport:
    total_frames: int
    valid_frames: int
    dropped_frames: int
    source_id: str = ""


def _keypoint_row(kp: dict, line_no: int) -> tuple[list, list]:
    """One line's 14 [x, y, conf] triples, flattened, and which joints it names."""
    row, named = [], []
    for name in _NAMES:
        value = kp.get(name, _ABSENT)
        if value is not _ABSENT and (type(value) is not list or len(value) != 3):
            raise MalformedLine(line_no, f"keypoint {name!r} is not an [x, y, conf] triple")
        row += value
        named.append(value is not _ABSENT)
    if not set(map(type, row)) <= _NUMBER_TYPES:
        raise MalformedLine(line_no, "keypoint values must be numbers")
    return list(map(float, row)), named


def parse_keypoint_file(data: Union[bytes, str], source_id: str = "") -> PoseSequence:
    """Parse JSONL keypoint data into a PoseSequence (frames sorted by index)."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"keypoint data is not UTF-8: {exc}") from None
    line_nos, indices, stamps, rows, named = [], [], [], [], []
    seen = set()
    for line_no, line in enumerate(data.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad JSON, overlong integer, deep nesting
            raise MalformedLine(line_no, str(exc)) from None
        if not isinstance(obj, dict) or "frame" not in obj:
            raise MalformedLine(line_no, "missing 'frame' field")
        idx = obj["frame"]
        if type(idx) is not int or not 0 <= idx <= _MAX_FRAME_INDEX:
            raise MalformedLine(line_no, f"bad frame index {idx!r}")
        if idx in seen:
            raise DuplicateFrame(idx)
        seen.add(idx)
        t_ms = obj.get("t_ms")
        if t_ms is not None and not (
            type(t_ms) is int or (type(t_ms) is float and math.isfinite(t_ms))
        ):
            raise MalformedLine(line_no, f"bad t_ms {t_ms!r}")
        kp = obj.get("kp", {})
        if not isinstance(kp, dict):
            raise MalformedLine(line_no, "'kp' must be an object")
        try:
            row, row_named = _keypoint_row(kp, line_no)
        except OverflowError:
            raise MalformedLine(line_no, "keypoint value beyond the float range") from None
        line_nos.append(line_no)
        indices.append(idx)
        stamps.append(t_ms)
        rows.append(row)
        named.append(row_named)
    if not indices:
        raise EmptyInput(source_id)

    frame_index = np.array(indices, dtype=np.int64)
    order = np.argsort(frame_index)
    values = np.array(rows).reshape(-1, 14, 3)
    xy, conf = values[..., :2], values[..., 2]
    ok = np.isfinite(xy).all(axis=-1) & (conf >= 0.0) & (conf <= 1.0)
    bad = np.argwhere(np.array(named) & ~ok)
    if bad.size:
        frame, joint = bad[0]
        raise MalformedLine(line_nos[frame], f"keypoint {_NAMES[joint]!r}: non-finite "
                                             "coordinates or confidence outside [0, 1]")
    return PoseSequence(xy[order], conf[order], frame_index[order],
                        tuple(stamps[i] for i in order), source_id)


def load_keypoint_file(path) -> PoseSequence:
    path = Path(path)
    return parse_keypoint_file(path.read_bytes(), source_id=path.stem.removesuffix(".kp"))


def serialize_sequence(seq: PoseSequence) -> str:
    """Inverse of parse_keypoint_file over the JSONL format."""
    lines = []
    xy, conf = seq.xy.tolist(), seq.conf.tolist()
    for t, idx in enumerate(seq.frame_index.tolist()):
        obj: dict = {"frame": idx}
        if seq.t_ms[t] is not None:
            obj["t_ms"] = seq.t_ms[t]
        obj["kp"] = {
            name: [x, y, c]
            for name, (x, y), c in zip(_NAMES, xy[t], conf[t])
            if not math.isnan(c)
        }
        lines.append(json.dumps(obj))
    return "\n".join(lines) + "\n"


def save_keypoint_file(seq: PoseSequence, path) -> None:
    Path(path).write_text(serialize_sequence(seq), encoding="utf-8")


def filter_valid(
    seq: PoseSequence,
    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
    min_valid_frames: int = DEFAULT_MIN_VALID_FRAMES,
) -> tuple[PoseSequence, IngestReport]:
    """Keep the frames whose 14 joints are all present with confidence >=
    min_confidence, in their original order."""
    if min_valid_frames < 1:
        raise ValueError("min_valid_frames must be >= 1")
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError("min_confidence must be in [0, 1]")
    keep = (seq.conf >= min_confidence).all(axis=1)  # an absent joint's NaN fails too
    valid = int(keep.sum())
    report = IngestReport(
        total_frames=len(seq),
        valid_frames=valid,
        dropped_frames=len(seq) - valid,
        source_id=seq.source_id,
    )
    if valid < min_valid_frames:
        raise TooFewValidFrames(valid, min_valid_frames)
    return seq[keep], report
