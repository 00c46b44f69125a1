from collections import Counter

import numpy as np
import pytest

from gaitlab.errors import ClassTooSmall, TooManyFolds
from gaitlab.evaluate import (
    EvalReport,
    best_report,
    confusion_matrix,
    cross_validate,
    render_text_table,
    reports_to_json,
    run_task,
    stratified_split,
    task_items,
)
from gaitlab.pose import GaitLabel
from gaitlab.synth import generate_corpus
from gaitlab.video_features import featurize_sequence

from helpers import make_separable_items, vf_from_vector

PAPER_COUNTS = {
    GaitLabel.CHOREIFORM: 51,
    GaitLabel.DIPLEGIA: 55,
    GaitLabel.HEMIPLEGIA: 70,
    GaitLabel.NORMAL: 31,
    GaitLabel.PARKINSON: 51,
}
EXPECTED_TRAIN = {
    GaitLabel.CHOREIFORM: 38,
    GaitLabel.DIPLEGIA: 41,
    GaitLabel.HEMIPLEGIA: 52,
    GaitLabel.NORMAL: 23,
    GaitLabel.PARKINSON: 38,
}


def dummy_items(counts, rng=None):
    rng = rng or np.random.default_rng(0)
    items = []
    for label, n in counts.items():
        for i in range(n):
            items.append(
                (vf_from_vector(rng.normal(size=226), f"{label.value}_{i}"), label))
    return items


def split_counts(dataset):
    train = Counter(label for _, label in dataset.train_items())
    test = Counter(label for _, label in dataset.test_items())
    return train, test


def test_split_reproduces_reference_counts():
    dataset = stratified_split(dummy_items(PAPER_COUNTS), seed=0)
    train, test = split_counts(dataset)
    for label, n in PAPER_COUNTS.items():
        assert train[label] == EXPECTED_TRAIN[label]
        assert test[label] == n - EXPECTED_TRAIN[label]


def test_split_minimum_class():
    dataset = stratified_split(dummy_items({GaitLabel.NORMAL: 4, GaitLabel.PARKINSON: 4}))
    train, test = split_counts(dataset)
    assert train[GaitLabel.NORMAL] == 3 and test[GaitLabel.NORMAL] == 1


def test_split_rejects_tiny_class():
    with pytest.raises(ClassTooSmall):
        stratified_split(dummy_items({GaitLabel.NORMAL: 3, GaitLabel.PARKINSON: 8}))


def test_split_deterministic_and_seed_sensitive():
    items = dummy_items(PAPER_COUNTS)
    a = stratified_split(items, seed=7)
    b = stratified_split(items, seed=7)
    assert a.split == b.split
    c = stratified_split(items, seed=8)
    assert a.split != c.split


def test_split_covers_every_item_once():
    items = dummy_items({GaitLabel.NORMAL: 9, GaitLabel.DIPLEGIA: 13})
    dataset = stratified_split(items, seed=1)
    assert len(dataset.split) == len(items) and set(dataset.split) == {"train", "test"}
    assert len(dataset.train_items()) + len(dataset.test_items()) == len(items)


def test_split_is_by_position_not_source_id():
    # 40 Normal items sharing one id must still split 30/10 like unique ids
    unique = dummy_items({GaitLabel.NORMAL: 40, GaitLabel.PARKINSON: 40})
    shared = [(vf_from_vector(vf.vector(), "same" if label is GaitLabel.NORMAL else vf.source_id),
               label) for vf, label in unique]
    assert split_counts(stratified_split(shared, seed=3)) == split_counts(
        stratified_split(unique, seed=3))
    assert stratified_split(shared, seed=3).split == stratified_split(unique, seed=3).split
    train, test = split_counts(stratified_split(shared, seed=3))
    assert train[GaitLabel.NORMAL] == 30 and test[GaitLabel.NORMAL] == 10


def test_cross_validate_separable_is_perfect():
    rng = np.random.default_rng(1)
    items = make_separable_items(rng, n_per_class=12)
    assert cross_validate("knn", items, folds=5, seed=0) == 1.0
    assert cross_validate("gnb", items, folds=5, seed=0) == 1.0


def test_fold_count_bounds():
    rng = np.random.default_rng(2)
    # smallest class has 3 items
    items = make_separable_items(rng, n_per_class=3)
    assert cross_validate("gnb", items, folds=3, seed=0) >= 0.0
    with pytest.raises(TooManyFolds):
        cross_validate("gnb", items, folds=4, seed=0)
    with pytest.raises(ValueError):
        cross_validate("gnb", items, folds=1, seed=0)


def test_cross_validate_deterministic():
    rng = np.random.default_rng(3)
    items = dummy_items({GaitLabel.NORMAL: 10, GaitLabel.PARKINSON: 10}, rng)
    a = cross_validate("tree", items, folds=5, seed=4)
    b = cross_validate("tree", items, folds=5, seed=4)
    assert a == b


def test_task_items_binary_filters():
    items = dummy_items({label: 4 for label in GaitLabel})
    binary = task_items("binary:Parkinson", items)
    assert {label for _, label in binary} == {GaitLabel.PARKINSON, GaitLabel.NORMAL}
    assert len(binary) == 8
    assert task_items("multi", items) == items
    with pytest.raises(ValueError):
        task_items("pairwise", items)


@pytest.fixture(scope="module")
def small_dataset():
    corpus = generate_corpus({label: 8 for label in GaitLabel}, seed=11, n_frames=24)
    items = [(featurize_sequence(seq), label) for seq, label in corpus]
    return stratified_split(items, seed=0)


def test_run_task_multiclass_shapes(small_dataset):
    reports, errors = run_task("multi", ["gnb", "tree"], small_dataset, folds=2, seed=0)
    assert not errors
    assert len(reports) == 2
    for r in reports:
        assert len(r.confusion) == 5 and all(len(row) == 5 for row in r.confusion)
        total = sum(sum(row) for row in r.confusion)
        trace = sum(r.confusion[i][i] for i in range(5))
        assert total == len(small_dataset.test_items())
        assert r.test_accuracy == trace / total
        assert 0.0 <= r.cv_accuracy <= 1.0


def test_run_task_binary_reduces_classes(small_dataset):
    reports, errors = run_task("binary:Hemiplegia", ["gnb"], small_dataset,
                               folds=2, seed=0)
    assert not errors
    assert reports[0].classes == (GaitLabel.HEMIPLEGIA, GaitLabel.NORMAL)
    assert len(reports[0].confusion) == 2


def test_run_task_isolates_failures(small_dataset):
    reports, errors = run_task("multi", ["gnb", "no-such-algo"], small_dataset,
                               folds=2, seed=0)
    assert len(reports) == 1 and reports[0].algorithm == "gnb"
    assert "no-such-algo" in errors


def test_confusion_row_sums_match_class_counts(small_dataset):
    from gaitlab import classify

    train = small_dataset.train_items()
    test = small_dataset.test_items()
    model = classify.train("gnb", train)
    classes = model.class_set
    confusion = confusion_matrix(model, test, classes)
    counts = Counter(label for _, label in test)
    for i, label in enumerate(classes):
        assert sum(confusion[i]) == counts[label]


def _report(algorithm, cv, test):
    return EvalReport(task="multi", algorithm=algorithm, cv_accuracy=cv,
                      test_accuracy=test, confusion=((1,),), classes=(GaitLabel.NORMAL,),
                      fold_count=5, seed=0)


def test_best_model_maximizes_cv_plus_test():
    first = _report("a", 0.8, 0.7)
    second = _report("b", 0.7, 0.9)
    assert best_report([first, second]) is second  # 1.6 > 1.5


def test_reports_render_and_serialize():
    reports = [_report("a", 0.8, 0.7), _report("b", 0.7, 0.9)]
    text = render_text_table(reports)
    assert "best (cv+test): b" in text
    doc = reports_to_json(reports, {"seed": 0})
    assert reports_to_json(reports, {"seed": 0}) == doc  # byte-stable
    assert '"best_algorithm": "b"' in doc
