import gc
import hashlib
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from gaitlab import classify
from gaitlab.classify import (
    ALGORITHMS,
    DEFAULT_HYPERS,
    TrainedModel,
    load_model,
    logreg_loss_and_grad,
    predict,
    save_model,
    scores,
    train,
    train_logregs,
)
from gaitlab.cli import main
from gaitlab.errors import InsufficientDataError, SchemaMismatch
from gaitlab.pose import GaitLabel
from gaitlab.synth import write_corpus
from gaitlab.video_features import FeatureTable, read_features_csv, schema_fingerprint

from helpers import (
    best_split_oracle,
    forest_vote_oracle,
    knn_brute_force_oracle,
    make_separable_items,
    predicted_labels,
    tree_leaf_oracle,
    vf_from_vector,
)


def random_items(rng, n=30, n_classes=3, spread=1.0):
    labels = list(GaitLabel)[:n_classes]
    items = []
    for i in range(n):
        label = labels[int(rng.integers(n_classes))]
        vec = rng.normal(0.0, spread, 226)
        items.append((vf_from_vector(vec, f"r{i}"), label))
    # guarantee >= 2 per class
    for c, label in enumerate(labels):
        items.append((vf_from_vector(rng.normal(0, spread, 226), f"pad{c}a"), label))
        items.append((vf_from_vector(rng.normal(0, spread, 226), f"pad{c}b"), label))
    return items


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_separable_classes_training_accuracy(algorithm):
    rng = np.random.default_rng(0)
    items = make_separable_items(rng, n_per_class=10)
    hyper = {"n_trees": 15} if algorithm == "forest" else None
    model = train(algorithm, FeatureTable.from_rows(items), hyper=hyper, seed=0)
    predicted = predicted_labels(model, [vf for vf, _ in items])
    assert all(p == t for p, (_, t) in zip(predicted, items))


def test_single_class_is_insufficient():
    rng = np.random.default_rng(1)
    items = [(vf_from_vector(rng.normal(size=226), f"s{i}"), GaitLabel.NORMAL)
             for i in range(6)]
    with pytest.raises(InsufficientDataError, match="need at least 2 classes, got 1"):
        train("knn", FeatureTable.from_rows(items))


def test_tiny_class_is_insufficient():
    rng = np.random.default_rng(2)
    items = make_separable_items(rng, n_per_class=5)
    items.append((vf_from_vector(rng.normal(size=226), "lone"), GaitLabel.DIPLEGIA))
    with pytest.raises(InsufficientDataError, match="class Diplegia has fewer than 2 examples"):
        train("gnb", FeatureTable.from_rows(items))


def test_knn_k1_self_prediction():
    rng = np.random.default_rng(3)
    items = random_items(rng)
    model = train("knn", FeatureTable.from_rows(items), hyper={"k": 1})
    predicted = predicted_labels(model, [vf for vf, _ in items])
    assert all(p == t for p, (_, t) in zip(predicted, items))


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    items = random_items(rng, n=44, n_classes=4)
    for k in (1, 3, 5):
        model = train("knn", FeatureTable.from_rows(items), hyper={"k": k})
        for vf, _ in items[:20]:
            assert predict(model, vf)[0] is knn_brute_force_oracle(items, vf, k)
        for _ in range(10):
            q = vf_from_vector(rng.normal(0, 1, 226), "q")
            assert predict(model, q)[0] is knn_brute_force_oracle(items, q, k)


def test_knn_oracle_majority_and_ties():
    fp = schema_fingerprint()
    items = [
        (vf_from_vector(np.zeros(226), "a", fp), GaitLabel.NORMAL),
        (vf_from_vector(np.ones(226), "b", fp), GaitLabel.PARKINSON),
        (vf_from_vector(np.ones(226) * 2, "c", fp), GaitLabel.PARKINSON),
    ]
    # k = |train| -> majority class of the whole training set
    q = vf_from_vector(np.ones(226) * 10, "q", fp)
    assert knn_brute_force_oracle(items, q, 3) is GaitLabel.PARKINSON
    # equidistant tie: query midway between items 0 and 1 -> lower index wins
    mid = vf_from_vector(np.full(226, 0.5), "m", fp)
    assert knn_brute_force_oracle(items, mid, 1) is GaitLabel.NORMAL


def test_logreg_zero_weights_uniform_scores():
    d = 226
    model = TrainedModel(
        algorithm="logreg",
        parameters={
            "W": np.zeros((3, d)),
            "b": np.zeros(3),
            "mean": np.zeros(d),
            "std": np.ones(d),
        },
        class_set=(GaitLabel.CHOREIFORM, GaitLabel.DIPLEGIA, GaitLabel.NORMAL),
        schema_fingerprint=schema_fingerprint(),
        hyperparameters={},
    )
    rng = np.random.default_rng(5)
    _, scores = predict(model, vf_from_vector(rng.normal(size=226), "q"))
    assert list(scores.values()) == pytest.approx([1 / 3] * 3)


def test_forest_prediction_is_tree_majority_vote():
    rng = np.random.default_rng(6)
    items = random_items(rng, n=40, n_classes=3)
    model = train("forest", FeatureTable.from_rows(items), hyper={"n_trees": 15}, seed=2)
    classes = model.class_set
    for vf, _ in items[:15]:
        votes = np.array(forest_vote_oracle(model, vf.vector()), dtype=float)
        expected = classes[int(np.argmax(votes))]
        label, scores = predict(model, vf)
        assert label is expected
        assert scores[expected] == pytest.approx(votes.max() / votes.sum())


def test_tree_sends_a_value_equal_to_the_threshold_left():
    nodes = {"feature": [4, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
             "right": [2, -1, -1], "probs": [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]], "roots": [0]}
    doc = {"format": "gaitmodel", "version": 2, "algorithm": "tree",
           "classes": ["Normal", "Parkinson"], "schema_fingerprint": schema_fingerprint(),
           "hyperparameters": DEFAULT_HYPERS["tree"], "parameters": nodes}
    model = TrainedModel.from_json(json.dumps(doc))
    X = np.zeros((3, 226))
    X[:, 4] = [0.5, np.nextafter(0.5, 1.0), -3.0]
    expected = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
    assert scores(model, X, schema_fingerprint()).tolist() == expected
    assert tree_leaf_oracle(model.parameters, 0, X[0]) == [1.0, 0.0]


@st.composite
def split_cases(draw):
    """(X, y, n_classes, features, min_leaf) with values 0-3 in X, so equal
    values and equal Gini across features and thresholds are common."""
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 5))
    n_classes = draw(st.integers(2, 5))
    row = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    X = np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=float)
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    features = np.array(sorted(draw(st.sets(st.integers(0, d - 1), min_size=1))))
    return X, y, n_classes, features, draw(st.integers(1, 4))


@st.composite
def split_batches(draw):
    """(X, y, n_classes, nodes, min_leaf): a split case whose rows and columns
    are the first node, then up to 3 more nodes over the same X with 2-12 row
    indices each (repeats allowed, as in a bootstrap sample) and as many
    columns as the first, so the batch pads nodes of different sizes."""
    X, y, n_classes, features, min_leaf = draw(split_cases())
    nodes = [(np.arange(len(y)), features)]
    for _ in range(draw(st.integers(0, 3))):
        rows = draw(st.lists(st.integers(0, len(y) - 1), min_size=2, max_size=12))
        columns = draw(st.permutations(range(X.shape[1])))[:len(features)]
        nodes.append((np.array(rows), np.sort(columns)))
    return X, y, n_classes, nodes, min_leaf


def batch_splits(X, y, n_classes, nodes, min_leaf):
    """classify._best_splits of the nodes, over the rank keys the grower builds from X."""
    return classify._best_splits(*classify._rank_keys(X, y, n_classes), n_classes, nodes,
                                 min_leaf)


@st.composite
def rank_cases(draw):
    """(X, y, n_classes) whose columns hold a few small integers and both
    zeros, so ties, and ties of -0.0 with 0.0, are common."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    n_classes = draw(st.integers(2, 5))
    row = st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0]), min_size=d, max_size=d)
    X = np.array(draw(st.lists(row, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    return X, y, n_classes


@settings(max_examples=300, deadline=None)
@given(case=rank_cases())
@example(case=(np.array([[0.0], [-0.0], [1.0], [-0.0]]), np.array([1, 0, 1, 0]), 2))
def test_rank_keys_order_rows_by_value(case):
    """In each column, two rows' keys order as their values do (equal values,
    -0.0 and 0.0 too, by class) and equal values share a rank, which counts
    the lower values; each key holds its row's class, the padding key tops
    every real key, and the rank's value in the lookup is the row's value."""
    X, y, n_classes = case
    n, d = X.shape
    keys, values = classify._rank_keys(X, y, n_classes)
    assert keys.shape == (n + 1, d) and values.shape == (n, d)
    rank, cls = np.divmod(keys, n_classes + 1)
    assert (cls[:n] == y[:, None]).all() and (cls[n] == n_classes).all()
    assert (keys[n] > keys[:n]).all()
    for j in range(d):
        for a in range(n):
            assert rank[a, j] == sum(x < X[a, j] for x in X[:, j])
            assert values[rank[a, j], j] == X[a, j]
            for b in range(n):
                assert (rank[a, j] == rank[b, j]) == (X[a, j] == X[b, j])
                by_value = X[a, j] < X[b, j] or (X[a, j] == X[b, j] and y[a] < y[b])
                assert (keys[a, j] < keys[b, j]) == by_value


@settings(max_examples=300, deadline=None)
@given(batch=split_batches())
def test_best_split_matches_the_oracle(batch):
    """Every node of a batch, including one with no valid split, gets the
    plain-Python oracle's split of its own rows."""
    X, y, n_classes, nodes, min_leaf = batch
    for (rows, features), split in zip(nodes, batch_splits(*batch)):
        expected = best_split_oracle(X[rows], y[rows], n_classes, features, min_leaf)
        assert split == (None if expected is None else expected[:2])


@settings(max_examples=200, deadline=None)
@given(batch=split_batches(), data=st.data())
def test_best_split_ignores_row_order(batch, data):
    """Reordering the rows reorders tied values in every sort, so this holds
    the split search to not depending on how a sort orders ties."""
    X, y, n_classes, nodes, min_leaf = batch
    shuffled = [(rows[np.array(data.draw(st.permutations(range(len(rows)))))], features)
                for rows, features in nodes]
    assert batch_splits(X, y, n_classes, shuffled, min_leaf) == batch_splits(*batch)


@settings(max_examples=200, deadline=None)
@given(batch=split_batches())
def test_best_split_of_a_node_does_not_depend_on_its_batch(batch):
    """A node searched with others, padded to the longest, gets the split it
    gets alone, in any batch order."""
    X, y, n_classes, nodes, min_leaf = batch
    alone = [batch_splits(X, y, n_classes, [node], min_leaf)[0] for node in nodes]
    assert batch_splits(*batch) == alone
    assert batch_splits(X, y, n_classes, nodes[::-1], min_leaf) == alone[::-1]


def test_split_cases_have_gini_ties_across_features():
    """The cases above include ones whose best Gini two or more features
    reach, so the feature tie rule is exercised, and ones with no valid split."""
    seen = set()

    @seed(0)
    @settings(max_examples=200, database=None, deadline=None)
    @given(case=split_cases())
    def record(case):
        X, y, n_classes, features, min_leaf = case
        best = best_split_oracle(*case)
        if best is None:
            seen.add("no split")
            return
        per_feature = [best_split_oracle(X, y, n_classes, [f], min_leaf) for f in features]
        if sum(b is not None and b[2] == best[2] for b in per_feature) >= 2:
            seen.add("tie across features")

    record()
    assert seen == {"no split", "tie across features"}


def test_gnb_scores_normalize_and_stay_finite():
    rng = np.random.default_rng(7)
    items = random_items(rng, n=30, n_classes=3)
    model = train("gnb", FeatureTable.from_rows(items))
    # extreme query far outside the training range
    q = vf_from_vector(np.full(226, 1e6), "far")
    label, scores = predict(model, q)
    values = np.array(list(scores.values()))
    assert np.isfinite(values).all()
    assert values.sum() == pytest.approx(1.0, abs=1e-9)
    assert label in model.class_set


def test_logreg_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    n, d, c = 10, 5, 3
    X = rng.normal(size=(n, d))
    y = rng.integers(0, c, size=n)
    W = rng.normal(scale=0.5, size=(c, d))
    b = rng.normal(scale=0.5, size=c)
    l2 = 1e-4
    _, dW, db = logreg_loss_and_grad(W, b, X, y, l2)
    h = 1e-5
    for idx in np.ndindex(c, d):
        Wp, Wm = W.copy(), W.copy()
        Wp[idx] += h
        Wm[idx] -= h
        numeric = (logreg_loss_and_grad(Wp, b, X, y, l2)[0]
                   - logreg_loss_and_grad(Wm, b, X, y, l2)[0]) / (2 * h)
        assert dW[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-8)
    for j in range(c):
        bp, bm = b.copy(), b.copy()
        bp[j] += h
        bm[j] -= h
        numeric = (logreg_loss_and_grad(W, bp, X, y, l2)[0]
                   - logreg_loss_and_grad(W, bm, X, y, l2)[0]) / (2 * h)
        assert db[j] == pytest.approx(numeric, rel=1e-4, abs=1e-8)


def test_stacked_logreg_gradient_matches_finite_differences():
    """The gradient over a leading fit axis, as lockstep training takes it: each
    slice is the gradient of its own fit's loss, with the bytes of a 2-D call."""
    rng = np.random.default_rng(8)
    F, n, d, c = 2, 10, 5, 3
    X = rng.normal(size=(F, n, d))
    y = rng.integers(0, c, size=(F, n))
    W = rng.normal(scale=0.5, size=(F, c, d))
    b = rng.normal(scale=0.5, size=(F, c))
    l2 = 1e-4
    probs = classify.softmax(X @ W.transpose(0, 2, 1) + b[:, None])
    dW, db = classify._logreg_grad(probs, W, X, np.eye(c)[y], l2)
    h = 1e-5
    for f in range(F):
        _, dW_f, db_f = logreg_loss_and_grad(W[f], b[f], X[f], y[f], l2)
        assert dW[f].tobytes() == dW_f.tobytes() and db[f].tobytes() == db_f.tobytes()

        def loss(Wf, bf):
            return logreg_loss_and_grad(Wf, bf, X[f], y[f], l2)[0]

        for idx in np.ndindex(c, d):
            step = np.zeros((c, d))
            step[idx] = h
            numeric = (loss(W[f] + step, b[f]) - loss(W[f] - step, b[f])) / (2 * h)
            assert dW[f][idx] == pytest.approx(numeric, rel=1e-4, abs=1e-8)
        for j in range(c):
            step = np.zeros(c)
            step[j] = h
            numeric = (loss(W[f], b[f] + step) - loss(W[f], b[f] - step)) / (2 * h)
            assert db[f][j] == pytest.approx(numeric, rel=1e-4, abs=1e-8)


def test_tree_memorizes_consistent_data():
    rng = np.random.default_rng(9)
    items = random_items(rng, n=40, n_classes=4)
    model = train("tree", FeatureTable.from_rows(items),
                  hyper={"max_depth": None, "min_samples_leaf": 1})
    predicted = predicted_labels(model, [vf for vf, _ in items])
    assert all(p == t for p, (_, t) in zip(predicted, items))


@pytest.mark.parametrize("algorithm", ["knn", "logreg"])
def test_standardization_absorbs_input_scale(algorithm):
    rng = np.random.default_rng(10)
    items = random_items(rng, n=36, n_classes=3)
    queries = [vf_from_vector(rng.normal(0, 1, 226), f"q{i}") for i in range(10)]
    model = train(algorithm, FeatureTable.from_rows(items), seed=1)
    base = predicted_labels(model, queries)
    scale = 37.0
    scaled_items = [(vf_from_vector(vf.vector() * scale, vf.source_id), label)
                    for vf, label in items]
    scaled_model = train(algorithm, FeatureTable.from_rows(scaled_items), seed=1)
    scaled_queries = [vf_from_vector(q.vector() * scale, q.source_id) for q in queries]
    assert predicted_labels(scaled_model, scaled_queries) == base


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_training_is_deterministic(algorithm):
    rng = np.random.default_rng(11)
    items = random_items(rng, n=24, n_classes=3)
    hyper = {"n_trees": 8} if algorithm == "forest" else None
    a = train(algorithm, FeatureTable.from_rows(items), hyper=hyper, seed=5).to_json()
    b = train(algorithm, FeatureTable.from_rows(items), hyper=hyper, seed=5).to_json()
    assert a == b


@pytest.fixture(scope="module")
def corpus_table(tmp_path_factory):
    """Labeled features of a small synthetic corpus, 12 videos of each class."""
    work = tmp_path_factory.mktemp("corpus")
    write_corpus(work / "corpus", {label: 12 for label in GaitLabel}, seed=5, n_frames=20)
    assert main(["extract", "--in", str(work / "corpus"), "--out", str(work / "f.csv")]) == 0
    return FeatureTable.from_rows(read_features_csv(work / "f.csv"))


@pytest.mark.parametrize("algorithm, hyper, digest", [
    ("tree", None, "22a5c61506e4294bd0402a0bf6c368fc4a15369c66ad352d25d12eed22b96719"),
    ("tree", {"max_depth": None},
     "60eda836a1038d4931c1307416e32a394d787ba0a8314b024d7252352a9fcd02"),
    ("tree", {"min_samples_leaf": 1},
     "26796b4282025cdd259df7efea645cfbfec09cbde8f95849ed8148cd63582147"),
    ("forest", None, "1d6facc0c9b6bfacb81ee6ea6dfded53daa07312fd6251ce0f8155c636642ecf"),
    ("forest", {"max_depth": None},
     "3be14b8f7b3d9b61f02d888b78db55beca3ede09715803ac997f6b4292bdf75b"),
    ("forest", {"min_samples_leaf": 1},
     "6206795e3a8e65e39047fae6ad25243abf207e53e929fdf7ea1dc3fc2bd17006"),
    ("forest", {"n_trees": 1},
     "21dbfc3853b4408cb98a3a11016045332e7de3fefa7efbb8c72b8008bd115476"),
    # trees are grown ten at a time: both sides of a group boundary, and two groups and a part
    ("forest", {"n_trees": 9},
     "dac5c4a4d2c4690ac8212924de0deb7c630f1a687e6c69399a745e9dc863cfde"),
    ("forest", {"n_trees": 10},
     "2b93cd8dc174a72820e26e840b1e9b08b6c06815ee01a03979e7b26889bb9595"),
    ("forest", {"n_trees": 11},
     "fb36fd05381fab6446ef15813036a6f3a1ccaae9a700f30c98b881448d5eda29"),
    ("forest", {"n_trees": 23},
     "8ee91fc572c50057df5615d2532c9fcead30dc1054c3e9f8ab9a02059183fa17"),
    ("forest", {"max_depth": 0},  # every tree is one leaf: no search at all
     "249f2fd00d6dcb1798cfef41badd35f65606dd927308a4e2d17c879b7c9f294d"),
])
def test_tree_and_forest_model_bytes_pinned(corpus_table, algorithm, hyper, digest):
    """Tree growth's exact output: a change to its splits, tie rules or random
    draws that moves a model's bytes has to update these digests."""
    model = train(algorithm, corpus_table, hyper=hyper, seed=0)
    assert hashlib.sha256(model.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("hyper, digest", [
    ({"epochs": 20, "batch_size": 7},  # 60 rows: a short final minibatch of 4
     "82679c8111c9162dc8ebce7120b4a9d882cdb7656daa77996b0d6602f7eba16f"),
    ({"epochs": 20, "batch_size": 1},
     "cc6c80ca0d620ff312ecda0daf38ec768b95bc1dfe1cc47aa7148a1b56b4d415"),
    ({"epochs": 20, "l2": 0.0},
     "8579da0d7c3a1c78b93f7378556beaa9518be83b79fa45012aa5f599d6ce471e"),
])
def test_logreg_model_bytes_pinned(corpus_table, hyper, digest):
    """Minibatch SGD's exact output: a change to the batching, the order of
    the rows or the gradient arithmetic that moves a model's bytes has to
    update these digests."""
    model = train("logreg", corpus_table, hyper=hyper, seed=0)
    assert hashlib.sha256(model.to_json().encode()).hexdigest() == digest


@pytest.fixture(scope="module")
def ragged_tables(corpus_table):
    """Four tables of 57, 50, 60 and 53 rows, every class in each: their last
    minibatches differ in size, and they are not in order of size."""
    rng = np.random.default_rng(21)
    return [corpus_table[np.sort(rng.permutation(len(corpus_table))[:n])]
            for n in (57, 50, 60, 53)]


@pytest.mark.parametrize("hyper", [
    {"epochs": 5, "batch_size": 1},
    {"epochs": 20, "batch_size": 7},
    {"epochs": 20},  # batch_size 16
    {"epochs": 20, "batch_size": 64},  # one batch larger than every table
    {"epochs": 0},
    {"epochs": 20, "l2": 0.0},
], ids=["batch-1", "batch-7", "batch-16", "batch-64", "no-epochs", "no-l2"])
def test_lockstep_logreg_equals_one_fit_at_a_time(ragged_tables, hyper):
    """Fits stepped in lockstep give, byte for byte, the models of one train
    call per table."""
    assert {len(set(t.labels)) for t in ragged_tables} == {5}
    alone = [train("logreg", table, hyper=hyper, seed=3).to_json() for table in ragged_tables]
    together = [model.to_json() for model in train_logregs(ragged_tables, hyper=hyper, seed=3)]
    assert together == alone
    assert len(set(alone)) == 4


def test_lockstep_logreg_refuses_tables_of_different_class_sets(corpus_table):
    two = corpus_table[np.isin(corpus_table.labels, [GaitLabel.NORMAL, GaitLabel.PARKINSON])]
    with pytest.raises(ValueError, match="^logreg fits in lockstep need one class set, got 2$"):
        train_logregs([corpus_table, two])


def test_diverging_lockstep_fit_is_refused_without_a_warning(ragged_tables):
    """lr=1e6 overflows the class scores: the lockstep fit raises train's
    ValueError, with no numpy RuntimeWarning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as lockstep:
            train_logregs(ragged_tables[:2], hyper={"lr": 1e6})
        with pytest.raises(ValueError) as alone:
            train("logreg", ragged_tables[0], hyper={"lr": 1e6})
    assert str(lockstep.value) == str(alone.value)
    assert str(alone.value).startswith("logreg with {") and "non-finite values" in str(alone.value)


def test_model_json_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    items = random_items(rng, n=24, n_classes=3)
    for algorithm in ALGORITHMS:
        hyper = {"n_trees": 8} if algorithm == "forest" else None
        model = train(algorithm, FeatureTable.from_rows(items), hyper=hyper)
        path = tmp_path / f"{algorithm}.gaitmodel.json"
        save_model(model, path)
        back = load_model(path)
        assert back == model
        for name, value in model.parameters.items():
            loaded = back.parameters[name]
            assert isinstance(loaded, np.ndarray) and loaded.dtype == value.dtype
            assert loaded.tobytes() == value.tobytes()
        for vf, _ in items[:5]:
            assert predict(back, vf) == predict(model, vf)
        # equality compares the documents, so one changed value breaks it
        name, value = next(iter(model.parameters.items()))
        changed = value.copy()
        changed.flat[0] += 1
        assert replace(model, parameters={**model.parameters, name: changed}) != model


@pytest.fixture(scope="module")
def models():
    """One small trained model per algorithm."""
    items = random_items(np.random.default_rng(16), n=24, n_classes=3)
    table = FeatureTable.from_rows(items)
    return {a: train(a, table, hyper={"n_trees": 4} if a == "forest" else None, seed=1)
            for a in ALGORITHMS}


def _set(path, value):
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


def _drop(key):
    def edit(doc):
        del doc["parameters"][key]
    return edit


@pytest.mark.parametrize("algorithm, edit, message", [
    ("gnb", _set(["version"], 1), "version 1"),
    ("gnb", _set(["algorithm"], "svm"), "unknown algorithm"),
    ("gnb", _set(["classes"], ["Normal", "Normal", "Parkinson"]), "distinct"),
    ("gnb", _set(["classes"], ["Normal", "Limping", "Parkinson"]), "unknown gait label"),
    ("gnb", _set(["parameters"], []), "parameters"),
    ("gnb", _drop("vars"), "'vars'"),
    ("knn", _drop("y"), "'y'"),
    ("forest", _drop("roots"), "'roots'"),
    ("logreg", _drop("mean"), "'mean'"),
    ("tree", _drop("probs"), "'probs'"),
    ("gnb", _set(["parameters", "log_priors"], [0.0, 0.0]), "'log_priors'"),
    ("logreg", _set(["parameters", "mean"], [0.0] * 225), "'mean'"),
    ("knn", _set(["parameters", "y"], [0, 1]), "'y'"),
    ("logreg", _set(["parameters", "W"], [[0.0] * 226, [0.0] * 3]), "inhomogeneous"),
    ("logreg", _set(["parameters", "b"], ["a", "b", "c"]), "'b'"),
    ("forest", _set(["parameters", "roots"], [0.5]), "'roots'"),
    ("gnb", _set(["parameters", "log_priors"], [0.0, float("nan"), 0.0]), "non-finite"),
    ("gnb", _set(["parameters", "vars", 0, 0], 0.0), "'vars' holds non-positive"),
    ("knn", _set(["parameters", "std", 3], -1.0), "'std' holds non-positive"),
    ("knn", _set(["parameters", "y", 0], 3), "labels"),
    ("knn", _set(["hyperparameters", "k"], 31), "k=31"),
    ("knn", _set(["hyperparameters", "k"], 0), "k must be"),
    ("knn", _set(["hyperparameters", "n_neighbors"], 1), "unknown hyperparameter"),
    ("tree", _set(["parameters", "left", 0], 0), "left child"),
    ("forest", _set(["parameters", "right", 0], 10**6), "right child"),
    ("forest", _set(["parameters", "feature", 0], 226), "feature index"),
    ("forest", _set(["parameters", "roots", 0], -1), "root index"),
    ("tree", _set(["parameters", "roots"], [0, 0]), "one root"),
])
def test_from_json_refuses_malformed_models(models, algorithm, edit, message):
    doc = json.loads(models[algorithm].to_json())
    edit(doc)
    with pytest.raises(ValueError, match=message):
        TrainedModel.from_json(json.dumps(doc))


@pytest.mark.parametrize("algorithm, hyper", [
    ("knn", {"k": 0}),
    ("knn", {"k": 2.5}),
    ("forest", {"n_trees": 0}),
    ("tree", {"min_samples_leaf": 0}),
    ("forest", {"min_samples_leaf": 0}),
    ("tree", {"max_depth": -1}),
    ("forest", {"max_depth": -1}),
    ("logreg", {"batch_size": 0}),
    ("logreg", {"epochs": -1}),
    ("gnb", {"var_floor": 0.0}),
    ("knn", {"n_neighbors": 1}),
    ("logreg", {"lr": 0.0}),
    ("logreg", {"lr": float("nan")}),
    ("logreg", {"lr": "x"}),
    ("logreg", {"l2": float("inf")}),
    ("logreg", {"l2": -1e-4}),
    ("logreg", {"lr": 1e6}),  # diverges: the trained weights are not finite
])
def test_train_refuses_bad_hyperparameters(algorithm, hyper):
    items = random_items(np.random.default_rng(15), n=24, n_classes=3)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=algorithm) as info:
        train(algorithm, FeatureTable.from_rows(items), hyper=hyper)
    assert all(name in str(info.value) for name in hyper)


def test_knn_k_is_bounded_by_the_training_set():
    items = random_items(np.random.default_rng(17), n=24, n_classes=3)
    with pytest.raises(ValueError):
        train("knn", FeatureTable.from_rows(items), hyper={"k": len(items) + 1})
    model = train("knn", FeatureTable.from_rows(items), hyper={"k": len(items)})
    _, scores = predict(model, items[0][0])
    counts = [sum(label is c for _, label in items) for c in model.class_set]
    assert list(scores.values()) == [n / len(items) for n in counts]


def test_predict_refuses_schema_mismatch():
    rng = np.random.default_rng(13)
    items = random_items(rng, n=24, n_classes=3)
    model = train("knn", FeatureTable.from_rows(items))
    other = vf_from_vector(rng.normal(size=226), "q",
                           fingerprint=schema_fingerprint("video", "sample"))
    with pytest.raises(SchemaMismatch):
        predict(model, other)


def test_scores_refuse_another_schema_and_non_finite_features(models):
    model = models["gnb"]
    X = np.zeros((2, 226))
    assert scores(model, X, model.schema_fingerprint).shape == (2, 3)
    with pytest.raises(SchemaMismatch):
        scores(model, X, schema_fingerprint("video"))
    for bad in (np.nan, np.inf, -np.inf):
        X[1, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            scores(model, X, model.schema_fingerprint)
        with pytest.raises(ValueError, match="non-finite"):
            predict(model, vf_from_vector(X[1], "q"))


@pytest.mark.parametrize("algorithm, value, what", [
    ("knn", 1e200, "distances"),  # finite once standardized; its square overflows
    ("knn", 1e308, "distances"),
    ("gnb", 1e200, "class scores"),
])
def test_scores_refuse_rows_that_overflow(models, algorithm, value, what):
    """A finite feature far outside the training range is refused by its row,
    not scored nan or voted on infinite distances; the other rows still score.
    (Logreg, whose logits must overflow, is held to this through the CLI.)"""
    model = models[algorithm]
    X = np.zeros((3, 226))
    X[1, 7] = value
    with pytest.raises(ValueError, match=f"feature row 1 gives non-finite {what}"):
        scores(model, X, model.schema_fingerprint)
    assert np.isfinite(scores(model, X[[0, 2]], model.schema_fingerprint)).all()


def test_train_refuses_mixed_fingerprints():
    rng = np.random.default_rng(14)
    items = random_items(rng, n=24, n_classes=3)
    odd = vf_from_vector(rng.normal(size=226), "odd",
                         fingerprint=schema_fingerprint("video"))
    with pytest.raises(SchemaMismatch):
        train("tree", FeatureTable.from_rows(items + [(odd, GaitLabel.NORMAL)]))


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_train_refuses_non_finite_rows(algorithm, value):
    """Every algorithm refuses a table with an inf or NaN feature, naming the
    first bad row, as scoring refuses one."""
    rng = np.random.default_rng(19)
    items = random_items(rng, n=24, n_classes=3)
    items[3] = (vf_from_vector(np.where(np.arange(226) == 40, value, 1.0), "bad"), items[3][1])
    items[5] = (vf_from_vector(np.full(226, value), "worse"), items[5][1])
    with pytest.raises(ValueError, match="feature row 3 \\('bad'\\) is not finite"):
        train(algorithm, FeatureTable.from_rows(items))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_train_names_an_unlabeled_row(algorithm):
    """Every algorithm refuses a table with an unlabeled row, naming the first one."""
    rng = np.random.default_rng(20)
    items = random_items(rng, n=24, n_classes=3)
    items[4] = (items[4][0], None)
    items[6] = (items[6][0], None)
    with pytest.raises(ValueError, match="^feature row 4 \\('r4'\\) has no label; expected one "
                                         "of Choreiform, Diplegia, Hemiplegia$"):
        train(algorithm, FeatureTable.from_rows(items))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_training_leaves_no_cyclic_garbage(algorithm):
    """A fit's arrays are freed when it returns, not held until the cycle
    collector runs: garbage left by each fit grows a long eval's peak memory."""
    table = FeatureTable.from_rows(random_items(np.random.default_rng(20), n=24, n_classes=3))
    gc.collect()
    gc.disable()
    try:
        train(algorithm, table, hyper={"n_trees": 12} if algorithm == "forest" else None)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_unknown_algorithm():
    with pytest.raises(ValueError):
        train("svm", FeatureTable.from_rows([]))


@pytest.fixture(scope="module")
def tie_models():
    """Models over 18 random rows plus the first six again under the next label.

    A query is equidistant from each repeated pair, so kNN must break the tie
    by training index; a forest of 4 shallow trees often splits its votes 2-2.
    """
    rng = np.random.default_rng(18)
    labels = [GaitLabel.NORMAL, GaitLabel.PARKINSON, GaitLabel.DIPLEGIA]
    vectors = rng.normal(size=(18, 226))
    items = [(vf_from_vector(v, f"t{i}"), labels[i % 3]) for i, v in enumerate(vectors)]
    items += [(vf_from_vector(vectors[i], f"d{i}"), labels[(i + 1) % 3]) for i in range(6)]
    hypers = {"knn": {"k": 1}, "forest": {"n_trees": 4, "max_depth": 2}}
    table = FeatureTable.from_rows(items)
    return vectors, {a: train(a, table, hyper=hypers.get(a), seed=4) for a in ALGORITHMS}, items


def _queries(vectors, picks):
    """Rows a + w (b - a): training rows (w 0 or 1), midpoints and points beyond."""
    return np.array([vectors[a] + w * (vectors[b] - vectors[a]) for a, b, w in picks])


def test_tie_models_have_knn_and_forest_vote_ties(tie_models):
    vectors, models, items = tie_models
    X = _queries(vectors, [(i, j, w) for i in range(6) for j in range(6) for w in (0.0, 0.5)])
    top = np.sort(scores(models["forest"], X, schema_fingerprint()), axis=1)
    assert (top[:, -1] == top[:, -2]).any()  # some query gets a tied forest vote
    for i in range(6):  # rows i and 18 + i are both at distance 0; the lower index wins
        q = vf_from_vector(vectors[i], "q")
        assert predict(models["knn"], q)[0] is items[i][1]
        assert knn_brute_force_oracle(items, q, 1) is items[i][1]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(max_examples=30, deadline=None)
@given(picks=st.lists(st.tuples(st.integers(0, 17), st.integers(0, 17),
                                st.sampled_from([0.0, 0.5, 1.0, 3.0])),
                      min_size=1, max_size=8))
def test_batch_scores_equal_single_row_scores(tie_models, algorithm, picks):
    vectors, models, _ = tie_models
    X = _queries(vectors, picks)
    batch = scores(models[algorithm], X, schema_fingerprint())
    assert batch.shape == (len(X), 3)
    for i, row in enumerate(X):
        single = scores(models[algorithm], row[None, :], schema_fingerprint())[0]
        assert batch[i].tobytes() == single.tobytes()


def test_scores_of_no_rows(models):
    for model in models.values():
        assert scores(model, np.empty((0, 226)), schema_fingerprint()).shape == (
            0, len(model.class_set))
        assert predicted_labels(model, []) == []
