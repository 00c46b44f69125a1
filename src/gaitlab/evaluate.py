"""Evaluation protocol: 3:1 stratified split, stratified k-fold CV on the
training part, multi-class and per-abnormality binary tasks, accuracy and
confusion reporting.

The per-class split point is floor(3n/4) training items, which reproduces
the reference per-class train/test counts exactly (e.g. 51 -> 38/13,
31 -> 23/8). The "best" model of a task maximizes the sum of CV and test
accuracy.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import classify, parallel
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
    return _class_ranks(labels, seed)[0] % folds


def _least_per_class(folds: int) -> int:
    """Rows m a class needs for k-fold CV: k for a test row in every fold, and 4 at 2
    folds for 2 training rows in each (m - ceil(m/k) >= 2). k < 2 raises ValueError."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    return 4 if folds == 2 else folds


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
) -> tuple[list[float], classify.TrainedModel]:
    """(accuracies, model): each fold's accuracy over a stratified k-fold of the
    table's rows, and the model train gives on the whole table. The k + 1 logreg
    fits step in lockstep, each giving the model train gives; any other
    algorithm fits fold by fold and then the whole table, so the first fit to
    fail is the one reported. Before any fit, classify.class_sizes refuses too
    little data: a class needs 4 rows at 2 folds and k at k >= 3."""
    classify.class_sizes(table, _least_per_class(folds))
    assignment = _stratified_folds(table.labels, folds, seed)
    parts = itertools.chain((table[assignment != f] for f in range(folds)), [table])
    # every training part holds 2+ rows of every class: the class set lockstep needs
    if algorithm == "logreg":
        models = iter(classify.train_logregs(parts, seed=seed))
    else:
        models = (classify.train(algorithm, part, seed=seed) for part in parts)
    accuracies = [_accuracy(confusion_matrix(model, table[assignment == f]))
                  for f, model in zip(range(folds), models)]  # stops before the final model
    return accuracies, next(models)


def task_rows(task: str, labels) -> np.ndarray:
    """Row mask of a task: 'multi' keeps every row, 'binary:<Label>' the rows
    of the concerned abnormality and of Normal. An unknown task or
    'binary:Normal' raises ValueError, and a task whose rows hold fewer than 2
    of its labels raises InsufficientDataError."""
    if task == "multi":
        keep = tuple(GaitLabel)
    elif task.startswith("binary:"):
        label = GaitLabel.from_name(task.split(":", 1)[1])
        if label is GaitLabel.NORMAL:
            raise ValueError(f"task {task!r} compares Normal with itself")
        keep = label, GaitLabel.NORMAL
    else:
        raise ValueError(f"unknown task {task!r}")
    present = set(labels)
    found = [label.value for label in keep if label in present]
    if len(found) < 2:
        raise InsufficientDataError(f"task {task!r} needs rows of at least 2 of its labels "
                                    f"({', '.join(label.value for label in keep)}), "
                                    f"found {', '.join(found) or 'none'}")
    return np.array([task == "multi" or label in keep for label in labels], dtype=bool)


def run_task(task: str, algorithms, table: FeatureTable, folds: int = DEFAULT_FOLDS,
             seed: int = 0):
    """One EvalReport per algorithm, fit on the task's rows that
    ``stratified_split(table.labels, seed)`` (drawn over every row) puts in
    training and tested on its other rows; failures are collected, not fatal.
    A task whose rows hold fewer than 2 of its labels, an unlabeled row or too
    few rows for cross_validate in a class's floor(3n/4) is refused once, before
    any fit: a class needs 6 rows at 2 folds and ceil(4k/3) at k >= 3. The
    algorithms run side by side in worker processes where parallel.ordered_map
    finds 2 or more usable CPUs.

    Returns (reports, errors) where errors maps algorithm -> exception.
    """
    least = _least_per_class(folds)
    rows = task_rows(task, table.labels)
    classify.class_sizes(table[rows], -(-4 * least // 3))  # floor(3n/4) >= least
    train_rows = stratified_split(table.labels, seed)
    train, test = table[rows & train_rows], table[rows & ~train_rows]
    job = functools.partial(_evaluate, task=task, train=train, test=test, folds=folds, seed=seed)
    reports, errors = [], {}
    for algorithm, outcome in zip(algorithms, parallel.ordered_map(job, algorithms)):
        if isinstance(outcome, EvalReport):
            reports.append(outcome)
        else:
            errors[algorithm] = outcome
    return reports, errors


def _evaluate(algorithm: str, task: str, train: FeatureTable, test: FeatureTable, folds: int,
              seed: int):
    """run_task's job for one algorithm: its EvalReport."""
    accuracies, model = cross_validate(algorithm, train, folds=folds, seed=seed)
    confusion = confusion_matrix(model, test)
    return EvalReport(task=task, algorithm=algorithm, cv_accuracy=float(np.mean(accuracies)),
                      test_accuracy=_accuracy(confusion), confusion=confusion,
                      classes=model.class_set, fold_count=folds, seed=seed)


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
