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

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import DuplicateFrame, MalformedLine, ParseError, TooFewValidFrames
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


def _valid_stamp(t_ms) -> bool:
    """Whether a t_ms is None, an int or a finite float (a bool is not a number here)."""
    return t_ms is None or type(t_ms) is int or (type(t_ms) is float and math.isfinite(t_ms))


def _first_bad_joint(xy: np.ndarray, conf: np.ndarray, named: np.ndarray):
    """(frame, joint) of the first named joint with a non-finite coordinate or
    a confidence outside [0, 1], or None."""
    bad = np.argwhere(named & ~(np.isfinite(xy).all(axis=-1) & (conf >= 0.0) & (conf <= 1.0)))
    return tuple(bad[0]) if bad.size else None


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
        if not _valid_stamp(t_ms):
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
        raise ParseError(f"no frames parsed from input {source_id!r}")

    frame_index = np.array(indices, dtype=np.int64)
    order = np.argsort(frame_index)
    values = np.array(rows).reshape(-1, 14, 3)
    xy, conf = values[..., :2], values[..., 2]
    bad = _first_bad_joint(xy, conf, np.array(named))
    if bad:
        raise MalformedLine(line_nos[bad[0]], f"keypoint {_NAMES[bad[1]]!r}: non-finite "
                                              "coordinates or confidence outside [0, 1]")
    return PoseSequence(xy[order], conf[order], frame_index[order],
                        tuple(stamps[i] for i in order), source_id)


def load_keypoint_file(path) -> PoseSequence:
    path = Path(path)
    return parse_keypoint_file(path.read_bytes(), source_id=path.stem.removesuffix(".kp"))


@functools.lru_cache(maxsize=64)
def _line_format(stamped: bool, named: tuple) -> str:
    """The %-format of one line naming the joints ``named`` marks, filled by
    (frame, t_ms if stamped, the x, y and conf text of each named joint)."""
    kp = ", ".join(f'"{name}": [%s, %s, %s]' for name, n in zip(_NAMES, named) if n)
    return '{"frame": %d, ' + ('"t_ms": %r, ' if stamped else "") + '"kp": {' + kp + "}}"


def _stamp(t_ms, frame):
    """A t_ms as written, a numpy scalar as the plain number it holds;
    ValueError if the parser would refuse it."""
    if isinstance(t_ms, np.generic):
        t_ms = t_ms.item()
    if not _valid_stamp(t_ms):
        raise ValueError(f"frame {frame}: bad t_ms {t_ms!r}")
    return t_ms


def serialize_sequence(seq: PoseSequence) -> str:
    """Inverse of parse_keypoint_file over the JSONL format. A value the parser
    would refuse raises ValueError naming its frame and joint (or t_ms)."""
    named = ~np.isnan(seq.conf)
    bad = _first_bad_joint(seq.xy, seq.conf, named)
    if bad:
        raise ValueError(f"frame {seq.frame_index[bad[0]]}: keypoint {_NAMES[bad[1]]!r} has "
                         "non-finite coordinates or a confidence outside [0, 1]")
    if seq.frame_index[-1] > _MAX_FRAME_INDEX:
        raise ValueError(f"frame index {seq.frame_index[-1]} is beyond the int64 range")
    frames = seq.frame_index.tolist()
    stamps = [_stamp(t_ms, frame) for t_ms, frame in zip(seq.t_ms, frames)]
    values = np.concatenate([seq.xy, seq.conf[..., None]], axis=-1).reshape(len(seq), 42)
    # json.dumps writes a float as its repr. Each distinct value is formatted
    # once, told apart by its bits so that -0.0 and 0.0 stay apart: a video of
    # the synthetic corpus repeats 72% of its values, and where none repeat
    # this costs no more than a repr per value.
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    rows = texts[where.reshape(values.shape)].tolist()
    lines = []
    for frame, t_ms, row, row_named in zip(frames, stamps, rows, named.tolist()):
        if not all(row_named):
            row = [v for j, n in enumerate(row_named) if n for v in row[3 * j:3 * j + 3]]
        head = (frame,) if t_ms is None else (frame, t_ms)
        lines.append(_line_format(t_ms is not None, tuple(row_named)) % (*head, *row))
    return "\n".join(lines) + "\n"


def save_keypoint_file(seq: PoseSequence, path) -> None:
    """Write a sequence as a .kp.jsonl file; what serialize_sequence refuses
    is refused before the file is opened."""
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
