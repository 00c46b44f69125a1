import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitlab import classify, evaluate, parallel
from gaitlab.errors import InsufficientDataError
from gaitlab.evaluate import (
    EvalReport,
    _accuracy,
    _stratified_folds,
    best_report,
    confusion_matrix,
    cross_validate,
    render_text_table,
    reports_to_json,
    run_task,
    stratified_split,
    task_rows,
)
from gaitlab.pose import GaitLabel
from gaitlab.synth import generate_corpus
from gaitlab.video_features import FeatureTable, featurize_sequence

from helpers import fold_refusal_oracle, make_separable_items, task_rows_oracle, vf_from_vector

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


def dummy_labels(counts):
    return [label for label, n in counts.items() for _ in range(n)]


def split_counts(labels, train_rows):
    train = Counter(label for label, part in zip(labels, train_rows) if part)
    test = Counter(label for label, part in zip(labels, train_rows) if not part)
    return train, test


def test_split_reproduces_reference_counts():
    labels = dummy_labels(PAPER_COUNTS)
    train, test = split_counts(labels, stratified_split(labels, seed=0))
    for label, n in PAPER_COUNTS.items():
        assert train[label] == EXPECTED_TRAIN[label]
        assert test[label] == n - EXPECTED_TRAIN[label]


def test_split_minimum_class():
    labels = dummy_labels({GaitLabel.NORMAL: 4, GaitLabel.PARKINSON: 4})
    train, test = split_counts(labels, stratified_split(labels))
    assert train[GaitLabel.NORMAL] == 3 and test[GaitLabel.NORMAL] == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_split_of_a_tiny_class_is_mask_arithmetic(n):
    """The split itself refuses no class size: n items give floor(3n/4) to train."""
    labels = dummy_labels({GaitLabel.NORMAL: n, GaitLabel.PARKINSON: 8})
    train, test = split_counts(labels, stratified_split(labels, seed=2))
    assert train[GaitLabel.NORMAL] == (3 * n) // 4 and test[GaitLabel.NORMAL] == n - (3 * n) // 4
    assert train[GaitLabel.PARKINSON] == 6


def test_split_deterministic_and_seed_sensitive():
    labels = dummy_labels(PAPER_COUNTS)
    a = stratified_split(labels, seed=7)
    b = stratified_split(labels, seed=7)
    assert (a == b).all()
    c = stratified_split(labels, seed=8)
    assert (a != c).any()


def test_split_covers_every_item_once():
    labels = dummy_labels({GaitLabel.NORMAL: 9, GaitLabel.DIPLEGIA: 13})
    train_rows = stratified_split(labels, seed=1)
    assert train_rows.shape == (len(labels),) and train_rows.dtype == bool
    assert set(train_rows) == {True, False}
    train, test = split_counts(labels, train_rows)
    assert sum(train.values()) + sum(test.values()) == len(labels)


def test_split_is_by_position_not_source_id():
    # 40 Normal items sharing one id must still split 30/10 like unique ids
    unique = FeatureTable.from_rows(dummy_items({GaitLabel.NORMAL: 40, GaitLabel.PARKINSON: 40}))
    shared = FeatureTable.from_rows(
        [(vf_from_vector(x, "same" if label is GaitLabel.NORMAL else source_id), label)
         for source_id, x, label in zip(unique.source_ids, unique.X, unique.labels)])
    shared_rows = stratified_split(shared.labels, seed=3)
    unique_rows = stratified_split(unique.labels, seed=3)
    assert split_counts(shared.labels, shared_rows) == split_counts(unique.labels, unique_rows)
    assert (shared_rows == unique_rows).all()
    train, test = split_counts(shared.labels, shared_rows)
    assert train[GaitLabel.NORMAL] == 30 and test[GaitLabel.NORMAL] == 10


def test_cross_validate_separable_is_perfect():
    rng = np.random.default_rng(1)
    table = FeatureTable.from_rows(make_separable_items(rng, n_per_class=12))
    assert cross_validate("knn", table, folds=5, seed=0)[0] == [1.0] * 5
    assert cross_validate("gnb", table, folds=5, seed=0)[0] == [1.0] * 5


def test_fold_count_bounds():
    rng = np.random.default_rng(2)
    # smallest class has 3 items
    table = FeatureTable.from_rows(make_separable_items(rng, n_per_class=3))
    accuracies, _ = cross_validate("gnb", table, folds=3, seed=0)
    assert len(accuracies) == 3 and min(accuracies) >= 0.0
    with pytest.raises(InsufficientDataError,
                       match="^class Normal has only 3 items, need at least 4$"):
        cross_validate("gnb", table, folds=4, seed=0)
    with pytest.raises(ValueError, match="^folds must be >= 2$"):
        cross_validate("gnb", table, folds=1, seed=0)
    with pytest.raises(ValueError, match="^folds must be >= 2$"):
        run_task("multi", ["gnb"], table, folds=1)


def test_cross_validate_deterministic():
    rng = np.random.default_rng(3)
    items = dummy_items({GaitLabel.NORMAL: 10, GaitLabel.PARKINSON: 10}, rng)
    table = FeatureTable.from_rows(items)
    a = cross_validate("tree", table, folds=5, seed=4)
    b = cross_validate("tree", table, folds=5, seed=4)
    assert a[0] == b[0] and a[1] == b[1]


def _forbid_fits(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fit")

    monkeypatch.setattr(classify, "train", no_fit)
    monkeypatch.setattr(classify, "train_logregs", no_fit)


@pytest.mark.parametrize("algorithm", ["knn", "logreg"])
def test_cross_validate_names_an_unlabeled_row_before_any_fit(monkeypatch, algorithm):
    rng = np.random.default_rng(5)
    items = make_separable_items(rng, n_per_class=12)
    items[7] = (items[7][0], None)
    _forbid_fits(monkeypatch)
    with pytest.raises(ValueError, match="^feature row 7 \\('Normal_7'\\) has no label; "
                                         "expected one of Normal, Parkinson$"):
        cross_validate(algorithm, FeatureTable.from_rows(items), folds=2, seed=0)


def test_cross_validate_refuses_an_empty_table(monkeypatch):
    table = FeatureTable.from_rows(make_separable_items(np.random.default_rng(5), 4))
    _forbid_fits(monkeypatch)
    with pytest.raises(InsufficientDataError, match="^need at least 2 classes, got 0$"):
        cross_validate("logreg", table[np.zeros(len(table), dtype=bool)], folds=2)


def test_cross_validate_reports_a_failed_lockstep_fit(monkeypatch):
    """A non-finite row, which only a fit refuses: the lockstep logreg fits fail
    with train's message, raised by train_logregs, and no other fit runs."""
    items = dummy_items({GaitLabel.NORMAL: 6, GaitLabel.PARKINSON: 6})
    items[0] = (vf_from_vector(np.full(226, np.nan), "bad"), items[0][1])
    table = FeatureTable.from_rows(items)
    calls = []
    train_logregs = classify.train_logregs
    _forbid_fits(monkeypatch)
    monkeypatch.setattr(classify, "train_logregs",
                        lambda *args, **kw: calls.append(args) or train_logregs(*args, **kw))
    with pytest.raises(ValueError, match="^feature row 0 \\('bad'\\) is not finite$"):
        cross_validate("logreg", table, folds=2)
    assert len(calls) == 1


def test_logreg_cross_validation_is_the_mean_of_per_fold_fits():
    """Folds of 11, 13 and 9 rows per class are ragged: the lockstep logreg CV
    gives one train and one confusion matrix per fold."""
    table = FeatureTable.from_rows(dummy_items(
        {GaitLabel.NORMAL: 11, GaitLabel.PARKINSON: 13, GaitLabel.DIPLEGIA: 9},
        np.random.default_rng(9)))
    assignment = _stratified_folds(table.labels, 3, seed=4)
    assert len({int((assignment != f).sum()) for f in range(3)}) == 3
    accuracies = [_accuracy(confusion_matrix(
        classify.train("logreg", table[assignment != f], seed=4), table[assignment == f]))
        for f in range(3)]
    assert len(set(accuracies)) > 1
    assert cross_validate("logreg", table, folds=3, seed=4)[0] == accuracies


@pytest.mark.parametrize("algorithm", classify.ALGORITHMS)
def test_cross_validate_returns_the_model_train_gives(algorithm):
    """The model trained beside the folds is train's model of the whole table;
    logreg's is the last of its lockstep fits."""
    table = FeatureTable.from_rows(dummy_items(
        {GaitLabel.NORMAL: 11, GaitLabel.PARKINSON: 13, GaitLabel.DIPLEGIA: 9},
        np.random.default_rng(9)))
    _, model = cross_validate(algorithm, table, folds=3, seed=4)
    assert model.to_json() == classify.train(algorithm, table, seed=4).to_json()


def test_report_cv_accuracy_is_the_mean_of_the_fold_accuracies(monkeypatch):
    """run_task calls cross_validate through the module, once per algorithm,
    and reports the mean of the fold accuracies it returns, bit for bit. The
    calls are recorded in this process, so the algorithms run in it, not in
    worker processes."""
    table = FeatureTable.from_rows(dummy_items(
        {GaitLabel.NORMAL: 15, GaitLabel.PARKINSON: 17, GaitLabel.DIPLEGIA: 13},
        np.random.default_rng(10)))
    returned = {}
    cross_validate = evaluate.cross_validate

    def recording(algorithm, *args, **kwargs):
        returned[algorithm] = cross_validate(algorithm, *args, **kwargs)
        return returned[algorithm]

    monkeypatch.setattr(evaluate, "cross_validate", recording)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    reports, errors = run_task("multi", classify.ALGORITHMS, table, folds=3, seed=2)
    assert not errors and set(returned) == set(classify.ALGORITHMS)
    for report in reports:
        accuracies, model = returned[report.algorithm]
        assert len(accuracies) == 3
        assert report.cv_accuracy == float(np.mean(accuracies))
        assert report.classes == model.class_set


def test_confusion_matrix_names_a_row_of_another_class():
    rng = np.random.default_rng(6)
    model = classify.train("gnb", FeatureTable.from_rows(make_separable_items(rng)))
    rows = dummy_items({GaitLabel.NORMAL: 2, GaitLabel.CHOREIFORM: 1}, rng)
    with pytest.raises(ValueError, match="^feature row 2 \\('Choreiform_0'\\) has label "
                                         "Choreiform; expected one of Normal, Parkinson$"):
        confusion_matrix(model, FeatureTable.from_rows(rows))


def test_task_rows_binary_filters():
    labels = np.array(dummy_labels({label: 4 for label in GaitLabel}) + [None], dtype=object)
    binary = task_rows("binary:Parkinson", labels)
    assert set(labels[binary]) == {GaitLabel.PARKINSON, GaitLabel.NORMAL}
    assert binary.sum() == 8
    assert task_rows("multi", labels).all()
    with pytest.raises(ValueError):
        task_rows("pairwise", labels)
    with pytest.raises(ValueError, match="compares Normal with itself"):
        task_rows("binary:Normal", labels)


TASKS = ["multi", *(f"binary:{label.value}" for label in GaitLabel), "binary:walking",
         "pairwise"]


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(st.sampled_from([*GaitLabel, None]), max_size=12),
       task=st.sampled_from(TASKS))
def test_task_rows_matches_its_oracle(labels, task):
    """The mask of a usable task, and the type and message of a refused one."""
    mask, refusal = task_rows_oracle(task, labels)
    labels = np.array(labels, dtype=object)
    if refusal is None:
        assert task_rows(task, labels).tolist() == mask
    else:
        with pytest.raises(Exception) as info:
            task_rows(task, labels)
        assert (type(info.value), str(info.value)) == refusal


@pytest.fixture(scope="module")
def small_dataset():
    """A small corpus's feature table, 8 videos of each class."""
    corpus = generate_corpus({label: 8 for label in GaitLabel}, seed=11, n_frames=24)
    return FeatureTable.from_rows([(featurize_sequence(seq), label) for seq, label in corpus])


def test_run_task_multiclass_shapes(small_dataset):
    reports, errors = run_task("multi", ["gnb", "tree"], small_dataset, folds=2, seed=0)
    assert not errors
    assert len(reports) == 2
    for r in reports:
        assert len(r.confusion) == 5 and all(len(row) == 5 for row in r.confusion)
        total = sum(sum(row) for row in r.confusion)
        trace = sum(r.confusion[i][i] for i in range(5))
        assert total == (~stratified_split(small_dataset.labels, seed=0)).sum()
        assert r.test_accuracy == trace / total
        assert 0.0 <= r.cv_accuracy <= 1.0


def test_run_task_binary_reduces_classes(small_dataset):
    reports, errors = run_task("binary:Hemiplegia", ["gnb"], small_dataset, folds=2, seed=0)
    assert not errors
    assert reports[0].classes == (GaitLabel.HEMIPLEGIA, GaitLabel.NORMAL)
    assert len(reports[0].confusion) == 2


def test_run_task_isolates_failures(small_dataset):
    reports, errors = run_task("multi", ["gnb", "no-such-algo"], small_dataset, folds=2, seed=0)
    assert len(reports) == 1 and reports[0].algorithm == "gnb"
    assert "no-such-algo" in errors


def test_run_task_refuses_a_task_without_training_rows_before_any_fit(monkeypatch):
    table = FeatureTable.from_rows(dummy_items({GaitLabel.CHOREIFORM: 6, GaitLabel.DIPLEGIA: 6}))
    _forbid_fits(monkeypatch)
    with pytest.raises(InsufficientDataError,
                       match="^task 'binary:Parkinson' needs rows of at least 2 of its labels "
                             "\\(Parkinson, Normal\\), found none$"):
        run_task("binary:Parkinson", ["knn", "logreg"], table, folds=2)


@pytest.mark.parametrize("task", ["multi", "binary:Parkinson"])
def test_run_task_refuses_a_tiny_class_of_the_task_before_any_fit(monkeypatch, task):
    table = FeatureTable.from_rows(dummy_items({GaitLabel.NORMAL: 3, GaitLabel.PARKINSON: 8}))
    _forbid_fits(monkeypatch)
    with pytest.raises(InsufficientDataError,
                       match="^class Normal has only 3 items, need at least 6$"):
        run_task(task, ["knn", "logreg"], table, folds=2)


def _refusal(call):
    """The line of the InsufficientDataError that call() raises, or None when it returns."""
    try:
        call()
    except InsufficientDataError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("folds", [2, 3, 4, 5, 6])
def test_class_size_refusals_match_the_oracle(monkeypatch, folds):
    """Two classes of every size from 1 to 12: run_task and cross_validate
    refuse exactly the tables fold_refusal_oracle refuses, with its line, and
    gnb and logreg fit every table they accept without an error. Logreg runs 2
    epochs, not 200: what a fit refuses does not hang on the epoch count. The
    run_task calls run in this process: on tables this small, starting worker
    processes for each would take longer than the fits (about 6 s in all)."""
    monkeypatch.setitem(classify.DEFAULT_HYPERS["logreg"], "epochs", 2)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    rng = np.random.default_rng(folds)
    for normal, parkinson in itertools.product(range(1, 13), repeat=2):
        sizes = {GaitLabel.NORMAL: normal, GaitLabel.PARKINSON: parkinson}
        table = FeatureTable.from_rows(dummy_items(sizes, rng))
        errors = {}
        refusal = _refusal(lambda: errors.update(
            run_task("multi", ["gnb", "logreg"], table, folds=folds)[1]))
        assert (refusal, errors) == (fold_refusal_oracle(sizes, folds, split=True), {}), sizes
        for algorithm in ("gnb", "logreg"):
            assert (_refusal(lambda: cross_validate(algorithm, table, folds=folds))
                    == fold_refusal_oracle(sizes, folds, split=False)), (algorithm, sizes)


def test_run_task_ignores_a_tiny_class_outside_the_task():
    table = FeatureTable.from_rows(dummy_items(
        {GaitLabel.CHOREIFORM: 3, GaitLabel.NORMAL: 8, GaitLabel.PARKINSON: 8}))
    reports, errors = run_task("binary:Parkinson", ["gnb"], table, folds=2)
    assert not errors
    assert reports[0].classes == (GaitLabel.NORMAL, GaitLabel.PARKINSON)
    assert sum(map(sum, reports[0].confusion)) == 4  # 2 test rows of each class


def _unlabeled_first(table):
    """The table with its first row's label removed."""
    return replace(table, labels=np.array([None, *table.labels[1:]], dtype=object))


def test_run_task_refuses_an_unlabeled_task_row_before_any_fit(small_dataset, monkeypatch):
    _forbid_fits(monkeypatch)
    with pytest.raises(ValueError, match=f"^feature row 0 \\('{small_dataset.source_ids[0]}'\\) "
                                         "has no label; expected one of Choreiform, .*, "
                                         "Parkinson$"):
        run_task("multi", ["gnb", "knn"], _unlabeled_first(small_dataset), folds=2)


def test_binary_task_ignores_an_unlabeled_row(small_dataset):
    """An unlabeled row is not among a binary task's rows, and it draws no place
    in the split, so the reports are those of the table without it."""
    assert small_dataset.labels[0] is GaitLabel.CHOREIFORM
    assert (run_task("binary:Parkinson", ["gnb", "tree"], _unlabeled_first(small_dataset), folds=2)
            == run_task("binary:Parkinson", ["gnb", "tree"], small_dataset[1:], folds=2))


def test_binary_task_splits_its_rows_as_the_whole_table_does(small_dataset, monkeypatch):
    """A binary task trains on its rows of stratified_split(table.labels, seed)
    and tests on the rest; a split of its rows alone would differ."""
    fitted, tested = [], []
    train, confusion = classify.train, evaluate.confusion_matrix
    monkeypatch.setattr(classify, "train", lambda algo, table, **kw: fitted.append(table)
                        or train(algo, table, **kw))
    monkeypatch.setattr(evaluate, "confusion_matrix", lambda model, table: tested.append(table)
                        or confusion(model, table))
    reports, errors = run_task("binary:Parkinson", ["gnb"], small_dataset, folds=2, seed=5)
    assert reports and not errors
    rows = task_rows("binary:Parkinson", small_dataset.labels)
    train_rows = stratified_split(small_dataset.labels, seed=5)
    assert fitted[-1].source_ids == small_dataset[rows & train_rows].source_ids
    assert tested[-1].source_ids == small_dataset[rows & ~train_rows].source_ids
    assert (stratified_split(small_dataset.labels[rows], seed=5) != train_rows[rows]).any()


def test_confusion_row_sums_match_class_counts(small_dataset):
    from gaitlab import classify

    table = small_dataset
    train_rows = stratified_split(table.labels, seed=0)
    model = classify.train("gnb", table[train_rows])
    test = table[~train_rows]
    classes = model.class_set
    confusion = confusion_matrix(model, test)
    counts = Counter(test.labels)
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
    assert render_text_table([]) == "(no successful reports)\n"
