"""Video-level aggregation: per-dimension mean and std of frame features.

The video vector is [113 means, 113 stds] = 226 values. Standard deviation
is population (1/N) by default; sample (1/(N-1)) is available behind the
``std_mode`` flag and is recorded in the schema fingerprint, which a features
CSV carries in its header.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InsufficientDataError, ParseError, SchemaMismatch
from .frame_features import FEATURE_NAMES, NORM_SCOPES, extract_sequence
from .pose import GaitLabel, PoseSequence

N_VIDEO_FEATURES = 226

STD_MODES = ("population", "sample")


def schema_fingerprint(norm_scope: str = "frame", std_mode: str = "population") -> str:
    """Stable hash of the feature ordering plus normalization config."""
    if norm_scope not in NORM_SCOPES:
        raise ValueError(f"bad norm_scope {norm_scope!r}")
    if std_mode not in STD_MODES:
        raise ValueError(f"bad std_mode {std_mode!r}")
    payload = json.dumps(
        {"features": list(FEATURE_NAMES), "norm_scope": norm_scope, "std": std_mode},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def schema_config(fingerprint: str) -> Optional[tuple[str, str]]:
    """The (norm_scope, std_mode) that ``schema_fingerprint`` hashes to ``fingerprint``, or None."""
    for norm_scope in NORM_SCOPES:
        for std_mode in STD_MODES:
            if schema_fingerprint(norm_scope, std_mode) == fingerprint:
                return norm_scope, std_mode
    return None


@dataclass(frozen=True)
class VideoFeatures:
    """226-dim mean||std aggregate of one video plus provenance."""

    mean: np.ndarray  # (113,)
    std: np.ndarray  # (113,)
    n_frames_used: int
    source_id: str
    schema_fingerprint: str

    def vector(self) -> np.ndarray:
        return np.concatenate([self.mean, self.std])


def aggregate(
    features,
    source_id: str = "",
    norm_scope: str = "frame",
    std_mode: str = "population",
) -> VideoFeatures:
    """Mean and std over the (n, 113) frame features; order is [all means, then all stds]."""
    if len(features) < 2:
        raise InsufficientDataError(f"need at least 2 frames to aggregate, got {len(features)}")
    matrix = np.asarray(features, dtype=float)
    ddof = 0 if std_mode == "population" else 1
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        mean, std = matrix.mean(axis=0), matrix.std(axis=0, ddof=ddof)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise ParseError(f"{source_id!r} has non-finite video features; "
                         "are its coordinates too large?")
    return VideoFeatures(
        mean=mean,
        std=std,
        n_frames_used=len(features),
        source_id=source_id,
        schema_fingerprint=schema_fingerprint(norm_scope, std_mode),
    )


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
        X = np.fromiter((vf.vector() for vf, _ in rows), dtype=(float, N_VIDEO_FEATURES),
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


def featurize_sequence(
    seq: PoseSequence,
    norm_scope: str = "frame",
    std_mode: str = "population",
) -> VideoFeatures:
    """Extract + aggregate in one step, skipping geometrically degenerate frames."""
    feats, _ = extract_sequence(seq, norm_scope=norm_scope, skip_degenerate=True)
    return aggregate(feats, source_id=seq.source_id, norm_scope=norm_scope, std_mode=std_mode)


# --- CSV interface: source_id,label,mu1..mu113,sd1..sd113,schema=<fingerprint> ---

_CSV_HEADER = (
    ["source_id", "label"]
    + [f"mu{i}" for i in range(1, 114)]
    + [f"sd{i}" for i in range(1, 114)]
)


def write_features_csv(table: FeatureTable, path) -> None:
    """Write one row per video; the header's last cell names the table's fingerprint."""
    if not len(table):
        raise ValueError("no feature rows to write")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER + [f"schema={table.fingerprint}"])
        for source_id, label, x in zip(table.source_ids, table.labels, table.X):
            writer.writerow([source_id, label.value if label is not None else ""]
                            + [repr(v) for v in x.tolist()])


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
                raise ParseError(f"{path} has no gaitlab feature CSV header with a known "
                                 f"schema= cell; re-run `gaitlab extract` to write one")
            for row in reader:
                where = f"{path} line {reader.line_num}"
                if len(row) != len(_CSV_HEADER):
                    raise ParseError(f"{where}: {len(row)} cells, expected {len(_CSV_HEADER)}")
                try:
                    label = GaitLabel.from_name(row[1]) if row[1] else None
                    values = np.array([float(v) for v in row[2:]])
                except ValueError as exc:
                    raise ParseError(f"{where}: {exc}") from None
                if not np.isfinite(values).all():
                    raise ParseError(f"{where}: non-finite feature value for {row[0]!r}")
                rows.append(
                    (
                        VideoFeatures(
                            mean=values[:113],
                            std=values[113:],
                            n_frames_used=0,  # unknown after CSV round-trip
                            source_id=row[0],
                            schema_fingerprint=fingerprint,
                        ),
                        label,
                    )
                )
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not a readable feature CSV: {exc}") from None
    return rows
