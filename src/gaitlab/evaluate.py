"""Evaluation protocol: 3:1 stratified split, stratified k-fold CV on the
training part, multi-class and per-abnormality binary tasks, accuracy and
confusion reporting.

The per-class split point is floor(3n/4) training items, which reproduces
the reference per-class train/test counts exactly (e.g. 51 -> 38/13,
31 -> 23/8). The "best" model of a task maximizes the sum of CV and test
accuracy.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import classify
from .errors import InsufficientDataError
from .pose import GaitLabel
from .video_features import FeatureTable

DEFAULT_FOLDS = 5


@dataclass(frozen=True)
class EvalReport:
    task: str  # "multi" or "binary:<Label>"
    algorithm: str
    cv_accuracy: float
    test_accuracy: float
    confusion: tuple  # rows = true class, cols = predicted, class order below
    classes: tuple[GaitLabel, ...]
    fold_count: int
    seed: int

    def to_dict(self) -> dict:
        return {**asdict(self), "confusion": [list(row) for row in self.confusion],
                "classes": [c.value for c in self.classes]}


def _class_ranks(labels, seed: int):
    """Each item's rank in a seeded shuffle of its class, and that class's
    size; the classes draw their permutations in GaitLabel order."""
    labels = np.array(labels, dtype=object)
    rng = np.random.default_rng(seed)
    rank, size = np.zeros((2, len(labels)), dtype=int)
    for label in GaitLabel:
        idx = np.flatnonzero(labels == label)
        if len(idx):
            rank[idx[rng.permutation(len(idx))]] = np.arange(len(idx))
            size[idx] = len(idx)
    return rank, size


def stratified_split(labels, seed: int = 0) -> np.ndarray:
    """Boolean training mask: a per-class seeded shuffle, then floor(3n/4) of
    each class to train and the rest to test."""
    rank, size = _class_ranks(labels, seed)
    return rank < (3 * size) // 4


def _stratified_folds(labels, folds: int, seed: int) -> np.ndarray:
    """Fold index per item: per-class shuffle then round-robin assignment."""
    rank, size = _class_ranks(labels, seed)
    if folds > size.min():
        raise InsufficientDataError(f"{folds} folds requested but smallest class has "
                                    f"{size.min()} items")
    return rank % folds


def confusion_matrix(model, table: FeatureTable) -> tuple:
    """Counts of (true, predicted) class pairs over the table's rows; rows and
    columns follow the model's class_set; a row of another class raises ValueError."""
    true = table.class_indices(model.class_set)
    predicted = classify.scores(model, table.X, table.fingerprint).argmax(axis=1)
    matrix = np.zeros((len(model.class_set),) * 2, dtype=int)
    np.add.at(matrix, (true, predicted), 1)
    return tuple(tuple(int(v) for v in row) for row in matrix)


def _accuracy(confusion) -> float:
    """Share of a confusion matrix's counts that lie on its diagonal."""
    return int(np.trace(confusion)) / int(np.sum(confusion))


def cross_validate(
    algorithm: str,
    table: FeatureTable,
    folds: int = DEFAULT_FOLDS,
    seed: int = 0,
) -> float:
    """Mean of per-fold accuracies over a stratified k-fold of the table's rows.
    The logreg folds are fit in lockstep, each giving the model train gives."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if not len(table):
        raise ValueError("cannot cross-validate an empty table")
    table.class_indices(GaitLabel)  # refuse unlabeled rows before any fit
    assignment = _stratified_folds(table.labels, folds, seed)
    parts = (table[assignment != f] for f in range(folds))
    # _stratified_folds leaves each class >= folds rows, so every training part
    # holds every class: the one class set that logreg's lockstep fits need.
    if algorithm == "logreg":
        models = classify.train_logregs(parts, seed=seed)
    else:  # fold by fold, so the first fold to fail is the one reported
        models = (classify.train(algorithm, part, seed=seed) for part in parts)
    return float(np.mean([_accuracy(confusion_matrix(model, table[assignment == f]))
                          for f, model in enumerate(models)]))


def task_labels(task: str) -> tuple[GaitLabel, ...]:
    """The labels a task compares: all five for 'multi', the concerned
    abnormality and Normal for 'binary:<Label>'."""
    if task == "multi":
        return tuple(GaitLabel)
    if task.startswith("binary:"):
        label = GaitLabel.from_name(task.split(":", 1)[1])
        if label is GaitLabel.NORMAL:
            raise ValueError(f"task {task!r} compares Normal with itself")
        return label, GaitLabel.NORMAL
    raise ValueError(f"unknown task {task!r}")


def task_rows(task: str, labels) -> np.ndarray:
    """Row mask of a task: 'multi' keeps every row, 'binary:<Label>' the rows
    of the concerned abnormality and of Normal."""
    keep = task_labels(task)
    if task == "multi":
        return np.ones(len(labels), dtype=bool)
    return np.array([label in keep for label in labels], dtype=bool)


def run_task(task: str, algorithms, table: FeatureTable, folds: int = DEFAULT_FOLDS,
             seed: int = 0):
    """One EvalReport per algorithm, fit on the task's rows that
    ``stratified_split(table.labels, seed)`` (drawn over every row) puts in
    training and tested on its other rows; failures are collected, not fatal.
    A task without rows of its labels, an unlabeled row, a class of fewer than 4
    rows or more folds than its smallest training class holds is refused once,
    before any algorithm runs.

    Returns (reports, errors) where errors maps algorithm -> exception.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    rows = task_rows(task, table.labels)
    if not rows.any():  # a task without rows has no training rows
        raise ValueError(f"task {task!r} has no training rows of its labels "
                         f"({', '.join(label.value for label in task_labels(task))})")
    sizes = np.bincount(table[rows].class_indices(GaitLabel), minlength=len(GaitLabel))
    for label, size in zip(GaitLabel, sizes):
        if 0 < size < 4:  # at 4 or more a class has training and test rows
            raise InsufficientDataError(f"class {label.value} has only {size} items, "
                                        "need at least 4")
    train_rows = stratified_split(table.labels, seed)
    train, test = table[rows & train_rows], table[rows & ~train_rows]
    _stratified_folds(train.labels, folds, seed)
    reports, errors = [], {}
    for algorithm in algorithms:
        try:
            cv = cross_validate(algorithm, train, folds=folds, seed=seed)
            model = classify.train(algorithm, train, seed=seed)
            confusion = confusion_matrix(model, test)
            reports.append(
                EvalReport(
                    task=task,
                    algorithm=algorithm,
                    cv_accuracy=cv,
                    test_accuracy=_accuracy(confusion),
                    confusion=confusion,
                    classes=model.class_set,
                    fold_count=folds,
                    seed=seed,
                )
            )
        except Exception as exc:  # keep evaluating the other algorithms
            errors[algorithm] = exc
    return reports, errors


def best_report(reports) -> EvalReport:
    """Best model rule: maximal sum of CV and test accuracy."""
    return max(reports, key=lambda r: r.cv_accuracy + r.test_accuracy)


def reports_to_json(reports, extra: dict | None = None) -> str:
    doc = dict(extra or {})
    doc["reports"] = [r.to_dict() for r in reports]
    if reports:
        doc["best_algorithm"] = best_report(reports).algorithm
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_text_table(reports) -> str:
    """Human-readable accuracy table, one row per algorithm."""
    lines = []
    if not reports:
        return "(no successful reports)\n"
    task = reports[0].task
    lines.append(f"task: {task}")
    lines.append(f"{'algorithm':<10} {'cv_acc':>8} {'test_acc':>9}")
    for r in reports:
        lines.append(f"{r.algorithm:<10} {r.cv_accuracy:>8.3f} {r.test_accuracy:>9.3f}")
    lines.append(f"best (cv+test): {best_report(reports).algorithm}")
    return "\n".join(lines) + "\n"
