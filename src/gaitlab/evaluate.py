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
from dataclasses import dataclass

import numpy as np

from . import classify
from .errors import ClassTooSmall, TooManyFolds
from .pose import GaitLabel
from .video_features import VideoFeatures

DEFAULT_FOLDS = 5


@dataclass(frozen=True)
class LabeledDataset:
    """Labeled video features with a train/test partition by position."""

    items: tuple  # of (VideoFeatures, GaitLabel)
    split: tuple  # "train" | "test" for each item, in item order

    def train_items(self):
        return [item for item, part in zip(self.items, self.split) if part == "train"]

    def test_items(self):
        return [item for item, part in zip(self.items, self.split) if part == "test"]


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
        return {
            "task": self.task,
            "algorithm": self.algorithm,
            "cv_accuracy": self.cv_accuracy,
            "test_accuracy": self.test_accuracy,
            "confusion": [list(row) for row in self.confusion],
            "classes": [c.value for c in self.classes],
            "fold_count": self.fold_count,
            "seed": self.seed,
        }


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


def stratified_split(items, seed: int = 0) -> LabeledDataset:
    """Per-class seeded shuffle, then floor(3n/4) items to train, rest to test."""
    items = tuple(items)
    labels = [label for _, label in items]
    for label in GaitLabel:
        if 0 < labels.count(label) < 4:
            raise ClassTooSmall(label.value, labels.count(label))
    rank, size = _class_ranks(labels, seed)
    split = tuple("train" if r < (3 * n) // 4 else "test" for r, n in zip(rank, size))
    return LabeledDataset(items=items, split=split)


def _stratified_folds(labels, folds: int, seed: int) -> np.ndarray:
    """Fold index per item: per-class shuffle then round-robin assignment."""
    rank, size = _class_ranks(labels, seed)
    if folds > size.min():
        raise TooManyFolds(folds, int(size.min()))
    return rank % folds


def _accuracy(model, items) -> float:
    predicted = classify.predict_many(model, [vf for vf, _ in items])
    return sum(p == t for p, (_, t) in zip(predicted, items)) / len(items)


def cross_validate(
    algorithm: str,
    train_items,
    folds: int = DEFAULT_FOLDS,
    seed: int = 0,
) -> float:
    """Mean of per-fold accuracies over a stratified k-fold of the training part."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    labels = [label for _, label in train_items]
    assignment = _stratified_folds(labels, folds, seed)
    accuracies = []
    for f in range(folds):
        fit = [item for item, a in zip(train_items, assignment) if a != f]
        held = [item for item, a in zip(train_items, assignment) if a == f]
        model = classify.train(algorithm, fit, seed=seed)
        accuracies.append(_accuracy(model, held))
    return float(np.mean(accuracies))


def confusion_matrix(model, items, classes) -> tuple:
    matrix = np.zeros((len(classes), len(classes)), dtype=int)
    predicted = classify.predict_many(model, [vf for vf, _ in items])
    for (_, true_label), label in zip(items, predicted):
        matrix[classes.index(true_label), classes.index(label)] += 1
    return tuple(tuple(int(v) for v in row) for row in matrix)


def task_items(task: str, items):
    """Filter items for a task: 'multi' keeps all, 'binary:<Label>' keeps
    the concerned abnormality plus Normal."""
    if task == "multi":
        return list(items)
    if task.startswith("binary:"):
        concerned = GaitLabel.from_name(task.split(":", 1)[1])
        keep = {concerned, GaitLabel.NORMAL}
        return [(vf, label) for vf, label in items if label in keep]
    raise ValueError(f"unknown task {task!r}")


def run_task(
    task: str,
    algorithms,
    dataset: LabeledDataset,
    folds: int = DEFAULT_FOLDS,
    seed: int = 0,
):
    """One EvalReport per algorithm; failures are collected, not fatal.

    Returns (reports, errors) where errors maps algorithm -> exception.
    """
    train_items = task_items(task, dataset.train_items())
    test_items = task_items(task, dataset.test_items())
    present = {label for _, label in train_items}
    classes = tuple(label for label in GaitLabel if label in present)
    reports, errors = [], {}
    for algorithm in algorithms:
        try:
            cv = cross_validate(algorithm, train_items, folds=folds, seed=seed)
            model = classify.train(algorithm, train_items, seed=seed)
            confusion = confusion_matrix(model, test_items, classes)
            test_acc = np.trace(np.asarray(confusion)) / len(test_items)
            reports.append(
                EvalReport(
                    task=task,
                    algorithm=algorithm,
                    cv_accuracy=cv,
                    test_accuracy=float(test_acc),
                    confusion=confusion,
                    classes=classes,
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
