"""Video-level aggregation: per-dimension mean and std of frame features.

The video row is [113 means, 113 stds] = 226 values. Standard deviation
is population (1/N) by default; sample (1/(N-1)) is available behind the
``std_mode`` flag and is recorded in the schema fingerprint, which a features
CSV carries in its header.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InsufficientDataError, ParseError, SchemaMismatch
from .frame_features import FEATURE_NAMES, NORM_SCOPES, extract_sequence
from .pose import GaitLabel, PoseSequence

N_VIDEO_FEATURES = 2 * len(FEATURE_NAMES)

STD_MODES = ("population", "sample")

# (norm_scope, std_mode) -> stable hash of the feature ordering plus that config
_FINGERPRINTS = {
    (norm_scope, std_mode): hashlib.sha256(json.dumps(
        {"features": list(FEATURE_NAMES), "norm_scope": norm_scope, "std": std_mode},
        sort_keys=True).encode()).hexdigest()[:16]
    for norm_scope in NORM_SCOPES for std_mode in STD_MODES
}
_CONFIGS = {fingerprint: config for config, fingerprint in _FINGERPRINTS.items()}


def schema_fingerprint(norm_scope: str = "frame", std_mode: str = "population") -> str:
    """Stable hash of the feature ordering plus normalization config."""
    if norm_scope not in NORM_SCOPES:
        raise ValueError(f"bad norm_scope {norm_scope!r}")
    if std_mode not in STD_MODES:
        raise ValueError(f"bad std_mode {std_mode!r}")
    return _FINGERPRINTS[norm_scope, std_mode]


def schema_config(fingerprint: str) -> Optional[tuple[str, str]]:
    """The (norm_scope, std_mode) that ``schema_fingerprint`` hashes to ``fingerprint``, or None."""
    return _CONFIGS.get(fingerprint)


@dataclass(frozen=True)
class VideoFeatures:
    """One video's row of a FeatureTable: ``x`` (226,) is [113 means, 113 stds]."""

    x: np.ndarray
    source_id: str
    schema_fingerprint: str

    def vector(self) -> np.ndarray:
        """``x`` as a read-only view, so a caller cannot change the row through it."""
        view = self.x.view()
        view.flags.writeable = False
        return view


def aggregate(features, std_mode: str = "population") -> np.ndarray:
    """Mean and std over the (n, 113) frame features: the (226,) row [all means, then all stds]."""
    if std_mode not in STD_MODES:
        raise ValueError(f"bad std_mode {std_mode!r}")
    if len(features) < 2:
        raise InsufficientDataError(f"need at least 2 frames to aggregate, got {len(features)}")
    matrix = np.asarray(features, dtype=float)
    n, ddof = len(matrix), 0 if std_mode == "population" else 1
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        # np.mean's and np.std's own arithmetic, the mean computed once
        mean = matrix.sum(axis=0) / n
        deviation = matrix - mean
        deviation *= deviation
        x = np.concatenate([mean, np.sqrt(deviation.sum(axis=0) / (n - ddof))])
    if not np.isfinite(x).all():
        raise ParseError("non-finite video features; are the coordinates too large?")
    return x


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Videos as rows of one matrix: ``X`` (n, 226) holds each video's
    [113 means, 113 stds], ``labels`` (n,) its GaitLabel or None, and every
    row shares the feature schema ``fingerprint``."""

    source_ids: tuple
    X: np.ndarray
    labels: np.ndarray  # of objects
    fingerprint: Optional[str]  # None only for a table of no rows

    @classmethod
    def from_rows(cls, rows) -> "FeatureTable":
        """The table of (VideoFeatures, label) rows; refuses rows of mixed schemas."""
        fingerprint = rows[0][0].schema_fingerprint if rows else None
        for vf, _ in rows:
            if vf.schema_fingerprint != fingerprint:
                raise SchemaMismatch(fingerprint, vf.schema_fingerprint)
        X = np.fromiter((vf.x for vf, _ in rows), dtype=(float, N_VIDEO_FEATURES),
                        count=len(rows))
        labels = np.array([label for _, label in rows], dtype=object)
        return cls(tuple(vf.source_id for vf, _ in rows), X, labels, fingerprint)

    def __len__(self) -> int:
        return len(self.source_ids)

    def __getitem__(self, rows) -> "FeatureTable":
        """The rows a boolean mask or an index array selects, as a new table."""
        rows = np.arange(len(self))[rows]
        return FeatureTable(tuple(self.source_ids[i] for i in rows), self.X[rows],
                            self.labels[rows], self.fingerprint)

    def class_indices(self, classes) -> np.ndarray:
        """Each row's label as its index in ``classes``; ValueError names the
        first row that is unlabeled or labeled with another class."""
        index = {label: i for i, label in enumerate(classes)}
        y = np.array([index.get(label, -1) for label in self.labels], dtype=int)
        if (y < 0).any():
            i = int(np.argmin(y >= 0))
            label = self.labels[i]
            what = "no label" if label is None else f"label {label.value}"
            raise ValueError(f"feature row {i} ({self.source_ids[i]!r}) has {what}; expected "
                             f"one of {', '.join(c.value for c in classes)}")
        return y


def featurize_sequence(
    seq: PoseSequence,
    norm_scope: str = "frame",
    std_mode: str = "population",
) -> VideoFeatures:
    """Extract + aggregate in one step, skipping geometrically degenerate frames;
    the one place a computed row is stamped with the schema it was computed by."""
    feats, _ = extract_sequence(seq, norm_scope=norm_scope, skip_degenerate=True)
    return VideoFeatures(aggregate(feats, std_mode), seq.source_id,
                         schema_fingerprint(norm_scope, std_mode))


# --- CSV interface: source_id,label,mu1..mu113,sd1..sd113,schema=<fingerprint> ---

_CSV_HEADER = (
    ["source_id", "label"]
    + [f"mu{i}" for i in range(1, len(FEATURE_NAMES) + 1)]
    + [f"sd{i}" for i in range(1, len(FEATURE_NAMES) + 1)]
)


def csv_line(source_id: str, label: Optional[GaitLabel], x: np.ndarray) -> str:
    """One video's features CSV row, byte for byte as csv.writer writes it.
    csv.writer writes the two leading cells, with its default terminator,
    whose characters also decide what it quotes; the numbers never need
    quotes and are joined as their reprs."""
    lead = io.StringIO()
    csv.writer(lead).writerow([source_id, "" if label is None else label.value, ""])
    return lead.getvalue()[:-2] + ",".join(map(repr, x.tolist())) + "\r\n"


def write_csv_lines(path, fingerprint: str, lines) -> None:
    """Write the header naming ``fingerprint`` and then the ``csv_line`` rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(_CSV_HEADER + [f"schema={fingerprint}"])
        fh.writelines(lines)


def write_features_csv(table: FeatureTable, path) -> None:
    """Write one row per video; the header's last cell names the table's fingerprint."""
    if not len(table):
        raise ValueError("no feature rows to write")
    write_csv_lines(path, table.fingerprint,
                    map(csv_line, table.source_ids, table.labels, table.X))


def read_features_csv(path) -> list[tuple[VideoFeatures, Optional[GaitLabel]]]:
    """Read a features CSV; every row gets the fingerprint its header names.

    A header without a known schema cell, a row of the wrong length, a value
    that is not a finite number, an unknown label, non-UTF-8 bytes and any
    defect the csv module finds raise ParseError."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            *names, schema = next(reader, None) or [""]
            fingerprint = schema.removeprefix("schema=")
            if names != _CSV_HEADER or fingerprint == schema or schema_config(fingerprint) is None:
                raise ParseError("no gaitlab feature CSV header with a known schema= cell; "
                                 "re-run `gaitlab extract` to write one", path=path)
            for row in reader:
                try:
                    if len(row) != len(_CSV_HEADER):
                        raise ValueError(f"{len(row)} cells, expected {len(_CSV_HEADER)}")
                    label = GaitLabel.from_name(row[1]) if row[1] else None
                    values = np.array([float(v) for v in row[2:]])
                    if not np.isfinite(values).all():
                        raise ValueError(f"non-finite feature value for {row[0]!r}")
                except ValueError as exc:
                    raise ParseError(str(exc), path=path, line=reader.line_num) from None
                rows.append((VideoFeatures(values, row[0], fingerprint), label))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"not a readable feature CSV: {exc}", path=path) from None
    return rows
