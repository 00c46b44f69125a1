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
from itertools import chain, compress, count, cycle, repeat
from operator import is_not
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ParseError, TooFewValidFrames
from .pose import KEYPOINT_ORDER, PoseSequence

DEFAULT_MIN_CONFIDENCE = 0.05
DEFAULT_MIN_VALID_FRAMES = 10

_NAMES = tuple(k.json_name for k in KEYPOINT_ORDER)
_ABSENT = [math.nan] * 3  # an absent joint's [x, y, conf]; also the lookup default marking it
_NUMBER_TYPES = {int, float}  # bool is not among them: JSON true/false are not numbers
_MAX_FRAME_INDEX = np.iinfo(np.int64).max
_SCAN = json.JSONDecoder().scan_once  # the scanner json.loads calls, C where built


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


def _decode(line: str):
    """json.loads(line) by one call of the scanner it wraps: the same value,
    or a ValueError where json.loads refuses the line."""
    text = line.strip(" \t\n\r")  # the whitespace json.loads skips around a value
    try:
        value, end = _SCAN(text, 0)
    except StopIteration:  # no JSON value starts the line; map() would end at it
        raise ValueError("no JSON value") from None
    if end != len(text):
        raise ValueError("extra data after the JSON value")
    return value


def _columns(lines: list):
    """(frame indices, stamps, (n, 14, 3) values, (n, 14) named mask) of the
    non-blank lines, each decoded once and then checked one field at a time
    over all of them, or None when there are none or one would be refused.
    Iteration stays in C: map, set and the itertools."""
    try:
        objs = list(map(_decode, filter(str.strip, lines)))
    except (ValueError, RecursionError):
        return None
    if not objs or set(map(type, objs)) != {dict}:
        return None
    frames = list(map(dict.get, objs, repeat("frame")))  # None where a line has no frame
    if (set(map(type, frames)) != {int} or min(frames) < 0 or max(frames) > _MAX_FRAME_INDEX
            or len(set(frames)) != len(frames)):
        return None
    stamps = list(map(dict.get, objs, repeat("t_ms")))
    kps = list(map(dict.get, objs, repeat("kp"), repeat({})))
    if not all(map(_valid_stamp, stamps)) or set(map(type, kps)) != {dict}:
        return None
    triples = list(map(dict.get, chain.from_iterable(map(repeat, kps, repeat(14))),
                       cycle(_NAMES), repeat(_ABSENT)))  # the 14 joints of each line, in order
    if set(map(type, triples)) != {list} or set(map(len, triples)) != {3}:
        return None
    named = np.fromiter(map(is_not, triples, repeat(_ABSENT)), bool, len(triples)).reshape(-1, 14)
    numbers = list(chain.from_iterable(triples))
    if not set(map(type, numbers)) <= _NUMBER_TYPES:
        return None
    try:
        values = np.array(numbers, dtype=float)
    except OverflowError:
        return None
    return frames, stamps, values.reshape(-1, 14, 3), named


def _raise_first_refusal(lines: list, source_id: str) -> None:
    """Walk the lines in order and raise the error of the first one refused,
    or that there are no lines."""
    seen = set()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:  # a refused field raises ValueError, given the line number below
            obj = json.loads(line)
            if not isinstance(obj, dict) or "frame" not in obj:
                raise ValueError("missing 'frame' field")
            idx = obj["frame"]
            if type(idx) is not int or not 0 <= idx <= _MAX_FRAME_INDEX:
                raise ValueError(f"bad frame index {idx!r}")
            if idx in seen:
                raise ParseError(f"duplicate frame index {idx}", line=line_no)
            seen.add(idx)
            t_ms = obj.get("t_ms")
            if not _valid_stamp(t_ms):
                raise ValueError(f"bad t_ms {t_ms!r}")
            kp = obj.get("kp", {})
            if not isinstance(kp, dict):
                raise ValueError("'kp' must be an object")
            row = []
            for name in _NAMES:
                value = kp.get(name, _ABSENT)
                if type(value) is not list or len(value) != 3:
                    raise ValueError(f"keypoint {name!r} is not an [x, y, conf] triple")
                row += value
            if not set(map(type, row)) <= _NUMBER_TYPES:
                raise ValueError("keypoint values must be numbers")
            try:
                list(map(float, row))
            except OverflowError:
                raise ValueError("keypoint value beyond the float range") from None
        except (ValueError, RecursionError) as exc:  # also bad JSON, overlong integer, deep nesting
            raise ParseError(str(exc), line=line_no) from None
    if not seen:
        raise ParseError(f"no frames parsed from input {source_id!r}")
    raise AssertionError("the column checks refused lines that every line check passes")


def parse_keypoint_file(data: Union[bytes, str], source_id: str = "") -> PoseSequence:
    """Parse JSONL keypoint data into a PoseSequence (frames sorted by index).

    A line ends only at "\\n". The file is checked field by field; when a
    check fails, the lines are walked in order to raise the first refused
    line's error."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"keypoint data is not UTF-8: {exc}") from None
    lines = data.split("\n")
    columns = _columns(lines)
    if columns is None:
        _raise_first_refusal(lines, source_id)
    frames, stamps, values, named = columns

    frame_index = np.array(frames, dtype=np.int64)
    order = np.argsort(frame_index)
    xy, conf = values[..., :2], values[..., 2]
    bad = _first_bad_joint(xy, conf, named)
    if bad:
        line_nos = list(compress(count(1), map(str.strip, lines)))
        raise ParseError(f"keypoint {_NAMES[bad[1]]!r}: non-finite coordinates or "
                         "confidence outside [0, 1]", line=line_nos[bad[0]])
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
