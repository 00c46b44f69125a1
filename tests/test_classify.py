import gc
import hashlib
import json
import re
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from gaitlab import classify
from gaitlab.classify import (
    ALGORITHMS,
    DEFAULT_HYPERS,
    TrainedModel,
    UnscorableRow,
    load_model,
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
    knn_scores_oracle,
    logreg_loss,
    logreg_scores_oracle,
    make_separable_items,
    predicted_labels,
    tree_leaf_oracle,
    tree_scores_oracle,
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
    with pytest.raises(InsufficientDataError,
                       match="^class Diplegia has only 1 item, need at least 2$"):
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


def _knn_model(X, y, k):
    """A 3-class knn model of training rows X as given: mean 0 and std 1."""
    X = np.asarray(X, dtype=float)
    doc = {"format": "gaitmodel", "version": 2, "algorithm": "knn",
           "classes": ["Normal", "Parkinson", "Diplegia"], "schema_fingerprint": schema_fingerprint(),
           "hyperparameters": {"k": k},
           "parameters": {"X": X.tolist(), "y": np.asarray(y).tolist(), "mean": [0.0] * 226, "std": [1.0] * 226}}
    model = TrainedModel.from_json(json.dumps(doc))
    assert model.parameters["X"].tobytes() == X.tobytes()
    return model


def _assert_scores_are_the_oracles(oracle, model, Q):
    """scores() of the rows Q, as a batch and one by one, equal the oracle's
    byte for byte, or both refuse the same row alike."""
    try:
        expected = oracle(model, Q)
    except UnscorableRow as exc:
        with pytest.raises(UnscorableRow) as info:
            scores(model, Q, schema_fingerprint())
        assert (info.value.row, str(info.value)) == (exc.row, str(exc))
        return
    assert scores(model, Q, schema_fingerprint()).tobytes() == expected.tobytes()
    for i, q in enumerate(Q):
        assert scores(model, q[None, :], schema_fingerprint()).tobytes() == expected[i].tobytes()


@st.composite
def _knn_cases(draw):
    """(training rows, labels, k, queries): up to 14 random rows over 1 to 226
    nonzero columns, continuous or quantized (many equal distances), the last
    ones copies of the first, at one magnitude from 1e-160 (squares underflow)
    to 1e150; queries are rows a + w (b - a), and k runs from 1 to n."""
    n = draw(st.integers(1, 14))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.zeros((n, 226))
    active = draw(st.integers(1, 226))
    X[:, :active] = rng.normal(size=(n, active))
    step = draw(st.sampled_from([None, 1.0, 0.5]))
    if step is not None:
        X = np.round(X / step) * step
    copies = draw(st.integers(0, n // 2))
    X[n - copies:] = X[:copies]
    picks = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.sampled_from([0.0, 0.5, 1.0, 3.0, -0.25])),
                          min_size=1, max_size=6))
    Q = np.array([X[a] + w * (X[b] - X[a]) for a, b, w in picks])
    # a magnitude at which squares are subnormal is drawn as often as any other
    scale = 10.0 ** draw(st.one_of(st.integers(-160, 150), st.integers(-160, -154)))
    return X * scale, rng.integers(0, 3, size=n), k, Q * scale


@settings(max_examples=300, deadline=None)
@given(case=_knn_cases())
def test_knn_scores_equal_the_full_distance_oracle(case):
    X, y, k, Q = case
    _assert_scores_are_the_oracles(knn_scores_oracle, _knn_model(X, y, k), Q)


def _unit_rows(n, scale=1.0):
    return scale * np.eye(n, 226)


@pytest.mark.parametrize("case", ["k=n", "equidistant", "one ulp apart", "tie after sqrt",
                                  "subnormal squares", "overflow in row 0", "overflow in row 1",
                                  "no rows"])
def test_knn_bound_edge_cases_equal_the_oracle(case):
    y = [0, 1, 2, 1, 0, 2, 2, 1, 0, 1]
    Q = np.zeros((2, 226))
    Q[1, 3] = 0.25
    if case == "k=n":
        model = _knn_model(np.random.default_rng(5).normal(size=(10, 226)), y, 10)
    elif case == "equidistant":  # every row at distance 3 from the first query
        model = _knn_model(_unit_rows(10, 3.0), y, 4)
    elif case in ("one ulp apart", "tie after sqrt"):
        # ||x0||^2 is 1 + 2**-51, whose root is one ulp above 1, or 1 + 2**-52,
        # whose root is 1: row 0 is behind row 1 or ties with it after sqrt
        X = np.vstack([_unit_rows(2), _unit_rows(10, 2.0)[2:]])
        if case == "one ulp apart":
            X[0, 0] = np.nextafter(1.0, 2.0)
        else:
            X[0, 1] = 2.0**-26
        model = _knn_model(X, y, 1)
        dist = np.sqrt((X[:2] ** 2).sum(axis=1))
        if case == "one ulp apart":
            assert dist[0] == np.nextafter(dist[1], 2.0)
        else:
            assert (X[0] ** 2).sum() != (X[1] ** 2).sum() and dist[0] == dist[1]
        nearest = 1 if case == "one ulp apart" else 0
        assert scores(model, Q[:1], schema_fingerprint())[0].tolist() == np.eye(3)[y[nearest]].tolist()
    elif case == "subnormal squares":  # each square is 0 or a few subnormal steps
        X = np.zeros((4, 226))
        X[:, 0] = [-2e-162, -0.25e-162, 1.75e-162, 0.25e-162]
        model = _knn_model(X, y[:4], 1)
        Q[:, 0] = [-0.75e-162, 0.5e-162]
        Q[1, 3] = 0.0
    elif case.startswith("overflow"):
        # row 2's distance overflows: from either query with 1e200, from the
        # second only with 1e154, whose square is finite and 1.5 times it not
        X = _unit_rows(10, 0.5)
        X[2, 0] = 1e200 if case.endswith("0") else 1e154
        Q[1, 0] = -0.5e154
        model = _knn_model(X, y, 3)
        with pytest.raises(UnscorableRow, match=f"^feature row {case[-1]} gives non-finite "
                                                "distances"):
            scores(model, Q, schema_fingerprint())
    else:
        model = _knn_model(_unit_rows(10), y, 5)
        Q = np.empty((0, 226))
        assert scores(model, Q, schema_fingerprint()).shape == (0, 3)
    _assert_scores_are_the_oracles(knn_scores_oracle, model, Q)


def _logreg_model(W, b, mean, std):
    """A logreg model of the given weights, bias and standardizer, one class per row of W."""
    classes = tuple(GaitLabel)[:len(W)]
    model = TrainedModel.from_json(json.dumps({
        "format": "gaitmodel", "version": 2, "algorithm": "logreg",
        "classes": [c.value for c in classes], "schema_fingerprint": schema_fingerprint(),
        "hyperparameters": DEFAULT_HYPERS["logreg"],
        "parameters": {"W": W.tolist(), "b": b.tolist(), "mean": mean.tolist(),
                       "std": std.tolist()}}))
    assert model.parameters["W"].tobytes() == W.tobytes()
    return model


@st.composite
def _logreg_cases(draw):
    """(model, rows): 2 to 5 classes of random weights, bias and standardizer,
    each at its own magnitude, and 0 to 70 rows, each at one magnitude
    from 1e-150 to 1e150; tiny std and huge weights make some logits overflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.integers(2, 5))
    n = draw(st.integers(0, 70))

    def magnitude(low, high, size=None):
        return 10.0 ** rng.integers(low, high + 1, size=size)

    W = rng.normal(size=(c, 226)) * magnitude(-150, 150)
    b = rng.normal(size=c) * magnitude(-150, 150)
    mean = rng.normal(size=226) * draw(st.sampled_from([0.0, 1.0, 1e100]))
    std = rng.uniform(0.5, 2.0, size=226) * magnitude(-160, 10)
    X = rng.normal(size=(n, 226)) * magnitude(-150, 150, size=(n, 1))
    return _logreg_model(W, b, mean, std), X


@settings(max_examples=200, deadline=None)
@given(case=_logreg_cases())
def test_logreg_scores_equal_the_row_by_row_oracle(case):
    """The stacked W @ Xs[:, :, None] gives each row the bytes of its own 1-D
    W @ xs; a BLAS build whose stacked product rounds otherwise fails here."""
    model, X = case
    _assert_scores_are_the_oracles(logreg_scores_oracle, model, X)


@pytest.mark.parametrize("case, refused", [("unit", None), ("overflow in row 0", 0),
                                           ("overflow in row 1", 1), ("inf minus inf", 2),
                                           ("no rows", None), ("logits of 1e308 and -1e308", None)])
def test_logreg_scores_edge_cases_equal_the_oracle(case, refused):
    rng = np.random.default_rng(7)
    W, b = rng.normal(size=(3, 226)), rng.normal(size=3)
    X = rng.normal(size=(4, 226))
    std = np.ones(226)
    if case.startswith("overflow"):  # 1e300 / 1e-10 standardizes to inf
        std[5] = 1e-10
        X[int(case[-1]):, 5] = 1e300
    elif case == "inf minus inf":  # two terms overflow with opposite signs: a NaN logit
        W[:, :2] = 1e200
        X[2, :2] = [1e200, -1e200]
    elif case == "no rows":
        X = X[:0]
    elif case.startswith("logits"):  # finite, but their difference overflows in softmax
        W, b, X = np.zeros((2, 226)), np.zeros(2), np.zeros((1, 226))
        W[:, 0], X[0, 0] = [1e308, -1e308], 1.0
    model = _logreg_model(W, b, np.zeros(226), std)
    if refused is not None:
        with pytest.raises(UnscorableRow, match=f"^feature row {refused} gives non-finite "
                                                "class scores"):
            scores(model, X, schema_fingerprint())
    elif case.startswith("logits"):
        assert scores(model, X, schema_fingerprint()).tolist() == [[1.0, 0.0]]
    _assert_scores_are_the_oracles(logreg_scores_oracle, model, X)


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


def _tree_doc(nodes):
    return {"format": "gaitmodel", "version": 2, "algorithm": "tree",
            "classes": ["Normal", "Parkinson"], "schema_fingerprint": schema_fingerprint(),
            "hyperparameters": DEFAULT_HYPERS["tree"], "parameters": nodes}


def test_tree_sends_a_value_equal_to_the_threshold_left():
    nodes = {"feature": [4, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
             "right": [2, -1, -1], "probs": [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]], "roots": [0]}
    model = TrainedModel.from_json(json.dumps(_tree_doc(nodes)))
    X = np.zeros((3, 226))
    X[:, 4] = [0.5, np.nextafter(0.5, 1.0), -3.0]
    expected = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
    assert scores(model, X, schema_fingerprint()).tolist() == expected
    assert tree_leaf_oracle(model.parameters, 0, X[0]) == [1.0, 0.0]


def test_a_tree_whose_nodes_share_children_is_refused(tmp_path, capsys):
    """A 60-level chain whose every node links both sides to the next one has
    2**60 root-to-leaf paths but 61 nodes: node 1 has two links, so loading
    refuses it, and predict exits 2 naming the model file and the node."""
    m = 61
    nodes = {"feature": [0] * (m - 1) + [-1], "threshold": list(map(float, range(m))),
             "left": list(range(1, m)) + [-1], "right": list(range(1, m)) + [-1],
             "probs": [[0.5, 0.5]] * (m - 1) + [[0.0, 1.0]], "roots": [0]}
    with pytest.raises(ValueError, match="^tree node 1 is linked 2 times"):
        TrainedModel.from_json(json.dumps(_tree_doc(nodes)))
    path = tmp_path / "chain.gaitmodel.json"
    path.write_text(json.dumps(_tree_doc(nodes)), encoding="utf-8")
    capsys.readouterr()
    rc = main(["predict", "--model", str(path), "--features", str(tmp_path / "none.csv"),
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: tree node 1 is linked 2 times; every node must be a root or a child of "
        "one parent, once"]


@pytest.mark.parametrize("algorithm, links, node, times", [
    ("forest", {"right": [4, -1, -1, 5, -1, -1, -1], "roots": [0, 2, 3, 6]}, 4, 2),  # 2 parents
    ("forest", {"left": [1, -1, -1, 4, -1, -1, -1], "right": [2, -1, -1, 4, -1, -1, -1]}, 4, 2),
    ("forest", {"roots": [0, 2, 3, 6]}, 2, 2),  # a root and a child
    ("forest", {"roots": [0, 3]}, 6, 0),  # no link at all
    ("tree", {"roots": [0]}, 3, 0),
])
def test_a_node_linked_other_than_once_is_refused(algorithm, links, node, times):
    """Three trees: node 0 splits into leaves 1 and 2, node 3 into leaves 4
    and 5, and node 6 is a leaf alone; each edit links one node twice (to two
    parents, to both sides of one, or as a root and a child) or not at all."""
    nodes = {"feature": [4, -1, -1, 7, -1, -1, -1], "threshold": [0.5, 0, 0, 1.5, 0, 0, 0],
             "left": [1, -1, -1, 4, -1, -1, -1], "right": [2, -1, -1, 5, -1, -1, -1],
             "probs": [[0.5, 0.5], [1, 0], [0, 1], [0.5, 0.5], [1, 0], [0, 1], [1, 0]],
             "roots": [0, 3, 6]}
    doc = {**_tree_doc({**nodes, **links}), "algorithm": algorithm,
           "hyperparameters": DEFAULT_HYPERS[algorithm]}
    with pytest.raises(ValueError, match=f"^tree node {node} is linked {times} times"):
        TrainedModel.from_json(json.dumps(doc))
    TrainedModel.from_json(json.dumps({**doc, "algorithm": "forest",  # the unedited trees
                                       "hyperparameters": DEFAULT_HYPERS["forest"],
                                       "parameters": nodes}))


@pytest.mark.parametrize("algorithm, hyper", [
    ("tree", {"max_depth": None, "min_samples_leaf": 1}),
    ("forest", {"n_trees": 100, "max_depth": None, "min_samples_leaf": 1}),
])
def test_tree_walk_spans_row_blocks(algorithm, hyper):
    """A batch a few rows longer than one block of the next-node table scores
    as its rows do one by one and as the plain-Python walk, trained or
    reloaded; rows on either side of the block boundary sit on thresholds."""
    rng = np.random.default_rng(23)
    model = train(algorithm, FeatureTable.from_rows(random_items(rng, n=60, n_classes=3)),
                  hyper=hyper, seed=5)
    p = model.parameters
    block = classify._LEAF_TABLE_CELLS // len(p["threshold"])
    X = rng.normal(size=(block + 5, 226))
    for row, node in zip(range(block - 3, block + 3), np.flatnonzero(p["feature"] >= 0)):
        X[row, p["feature"][node]] = p["threshold"][node]
    expected = tree_scores_oracle(model, X)
    for scored in (model, TrainedModel.from_json(model.to_json())):
        assert scores(scored, X, schema_fingerprint()).tobytes() == expected.tobytes()
    single = [scores(model, row[None, :], schema_fingerprint()) for row in X]
    assert np.vstack(single).tobytes() == expected.tobytes()


def _tree_depths(p):
    """The depth of the deepest leaf of each tree of flat node arrays."""
    def depth(node):
        if p["feature"][node] < 0:
            return 0
        return 1 + max(depth(p["left"][node]), depth(p["right"][node]))
    return [depth(root) for root in p["roots"]]


@pytest.mark.parametrize("algorithm, hyper", [
    ("tree", {"max_depth": 0}),  # one leaf: the walk takes no step
    ("forest", {"n_trees": 12, "max_depth": None, "min_samples_leaf": 1}),
])
@pytest.mark.parametrize("reload", [False, True], ids=["trained", "reloaded"])
def test_tree_walk_matches_the_plain_python_walk(algorithm, hyper, reload):
    """Batched and single-row scores equal the node-by-node walk of every
    tree, with trees of different depths and rows sitting on thresholds."""
    rng = np.random.default_rng(22)
    items = random_items(rng, n=40, n_classes=3)
    model = train(algorithm, FeatureTable.from_rows(items), hyper=hyper, seed=3)
    trained = model
    if reload:
        model = TrainedModel.from_json(model.to_json())
    p = model.parameters
    depths = set(_tree_depths(p))
    assert (depths == {0}) if algorithm == "tree" else (len(depths) > 1)
    X = np.vstack([FeatureTable.from_rows(items).X[:20], rng.normal(size=(10, 226))])
    inner = np.flatnonzero(p["feature"] >= 0)
    for row, node in zip(X[20:], inner):  # a value equal to a threshold goes left
        row[p["feature"][node]] = p["threshold"][node]
    batch = scores(model, X, schema_fingerprint())
    assert batch.tobytes() == tree_scores_oracle(model, X).tobytes()
    assert batch.tobytes() == scores(trained, X, schema_fingerprint()).tobytes()
    for i, row in enumerate(X):
        assert scores(model, row[None, :], schema_fingerprint())[0].tobytes() == batch[i].tobytes()


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
    """classify._best_splits of the (rows, columns) nodes, over the rank keys and
    with the class counts the grower builds from X and y; a split is (feature,
    threshold, left class counts as a tuple)."""
    searches = [(rows, np.bincount(y[rows], minlength=n_classes), features)
                for rows, features in nodes]
    splits = classify._best_splits(*classify._rank_keys(X, y, n_classes), n_classes, searches,
                                   min_leaf)
    return [None if split is None else (*split[:2], tuple(split[2].tolist()))
            for split in splits]


def oracle_split(X, y, n_classes, rows, features, min_leaf):
    """best_split_oracle's (feature, threshold) of the node's rows, with the
    np.bincount of the classes of its rows at or below that threshold; None
    where the oracle finds no split."""
    best = best_split_oracle(X[rows], y[rows], n_classes, features, min_leaf)
    if best is None:
        return None
    below = y[rows][X[rows, best[0]] <= best[1]]
    return (*best[:2], tuple(np.bincount(below, minlength=n_classes).tolist()))


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
    every real key, and the rank's value in the lookup is the row's value.
    Keys are int32, one row per column."""
    X, y, n_classes = case
    n, d = X.shape
    keys, values = classify._rank_keys(X, y, n_classes)
    assert keys.dtype == np.int32
    assert keys.shape == (d, n + 1) and values.shape == (n, d)
    keys = keys.T
    b = n_classes.bit_length()
    rank, cls = keys >> b, keys & ((1 << b) - 1)
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
    plain-Python oracle's split of its own rows, and the class counts of its
    rows at or below the oracle's threshold."""
    X, y, n_classes, nodes, min_leaf = batch
    for (rows, features), split in zip(nodes, batch_splits(*batch)):
        assert split == oracle_split(X, y, n_classes, rows, features, min_leaf)


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


def test_best_split_breaks_an_exact_gini_tie_by_the_lowest_feature():
    """12 rows of classes 6/3/3: feature 1 splits 3 rows of class 0 from
    3/3/3, feature 2 splits 3/3/0 from 3/0/3, both of weighted Gini exactly
    1/2; squared shares summed in floats round the two apart."""
    y = np.array([0] * 6 + [1] * 3 + [2] * 3)
    X = np.zeros((12, 3))  # feature 0 is constant: no split
    X[3:, 1] = 1.0
    X[[3, 4, 5, 9, 10, 11], 2] = 1.0
    nodes = [(np.arange(12), np.arange(3))]
    gini = [best_split_oracle(X, y, 3, [f], 1)[2] for f in (1, 2)]
    assert gini == [Fraction(1, 2)] * 2
    assert best_split_oracle(X, y, 3, range(3), 1)[:2] == (1, 0.5)
    assert batch_splits(X, y, 3, nodes, 1) == [(1, 0.5, (3, 0, 0))]


def test_best_split_of_a_node_too_long_for_one_packed_word():
    """A node of 4,100 rows needs 13 bits per class count, so its 5 classes
    do not fit one 63-bit word: the search still runs, and every node of the
    batch gets the exact oracle's split and left class counts."""
    rng = np.random.default_rng(11)
    X = rng.integers(0, 4, size=(4100, 3)).astype(float)
    y = rng.integers(0, 5, size=4100)
    y[X[:, 2] == 0] = 4  # feature 2 isolates most of class 4
    nodes = [(np.arange(4100), np.arange(3)), (np.arange(0, 4100, 2), np.arange(3))]
    assert 63 // (4100).bit_length() < 5
    expected = [oracle_split(X, y, 5, rows, features, 1) for rows, features in nodes]
    assert expected[0][0] == 2
    assert batch_splits(X, y, 5, nodes, 1) == expected


def test_best_split_of_a_node_too_long_for_one_shared_prefix_word():
    """A batch padded to 70,000 rows is past 65,535, so the prefix sums of the
    own-class counts (C) and of the class totals (S) take an int64 word each,
    and at 17 bits per class count the 5 classes take two words. At feature
    1's lowest boundary S passes 2**32 while C stays below 2**31, so one
    shared word C << 32 | S would carry S into C there and score that split
    far too high: every node of the batch still gets the exact oracle's split
    (the lone class-4 rows of feature 0) and left class counts."""
    rng = np.random.default_rng(5)
    y = np.zeros(70000, int)
    y[:2000] = 4
    y[2000:2300] = [1, 2, 3] * 100
    X = rng.integers(1, 4, size=(70000, 2)).astype(float)
    X[:2000, 0] = 0.0  # feature 0 isolates class 4
    X[rng.choice(np.flatnonzero(y == 0), size=64500, replace=False), 1] = 0.0
    nodes = [(np.arange(70000), np.arange(2)), (np.arange(0, 70000, 3), np.arange(2))]
    assert 63 // (70000).bit_length() < 5
    left = np.bincount(y[X[:, 1] == 0.0], minlength=5)  # (64500, 0, 0, 0, 0)
    assert (left * (left + 1) // 2).sum() < 2**31 <= 2**32 <= (np.bincount(y) * left).sum()
    expected = [oracle_split(X, y, 5, rows, features, 1) for rows, features in nodes]
    assert expected[0] == (0, 0.5, (0, 0, 0, 0, 2000))
    assert batch_splits(X, y, 5, nodes, 1) == expected


def test_a_midpoint_that_rounds_onto_the_upper_value_gives_way_to_the_lower():
    """Between two adjacent floats the midpoint can round onto the upper one,
    and between two huge ones overflow: the threshold is then the lower value,
    so the rows at or below it are the left side the search scored, and the
    tree ends in two pure leaves rather than regrowing its root down to empty
    ones."""
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 == b
    y = np.array([0, 1, 0, 1, 1])
    for low, high in [(a, b), (1e308, 1.5e308)]:
        X = np.array([[low], [high], [low], [high], [high]])
        assert best_split_oracle(X, y, 2, [0], 1)[:2] == (0, low)
        with np.errstate(over="ignore"):  # as train() sets it
            assert batch_splits(X, y, 2, [(np.arange(5), np.arange(1))], 1) == [(0, low, (2, 0))]
            tree = classify._grow_trees(X, y, 2, 4, 1, [(None, np.arange(5))])
        assert tree["threshold"][0] == low
        assert tree["probs"].tolist() == [[0.4, 0.6], [1.0, 0.0], [0.0, 1.0]]


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
    dW, db = classify._logreg_grad(classify.softmax(X @ W.T + b), W, X, np.eye(c)[y], l2)
    h = 1e-5
    for idx in np.ndindex(c, d):
        Wp, Wm = W.copy(), W.copy()
        Wp[idx] += h
        Wm[idx] -= h
        numeric = (logreg_loss(Wp, b, X, y, l2) - logreg_loss(Wm, b, X, y, l2)) / (2 * h)
        assert dW[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-8)
    for j in range(c):
        bp, bm = b.copy(), b.copy()
        bp[j] += h
        bm[j] -= h
        numeric = (logreg_loss(W, bp, X, y, l2) - logreg_loss(W, bm, X, y, l2)) / (2 * h)
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
        probs_f = classify.softmax(X[f] @ W[f].T + b[f])
        dW_f, db_f = classify._logreg_grad(probs_f, W[f], X[f], np.eye(c)[y[f]], l2)
        assert dW[f].tobytes() == dW_f.tobytes() and db[f].tobytes() == db_f.tobytes()

        def loss(Wf, bf):
            return logreg_loss(Wf, bf, X[f], y[f], l2)

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


def _drop(key, section="parameters"):
    def edit(doc):
        del doc[section][key]
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
    ("gnb", _set(["format"], "gaitmodel-csv"), "not a recognized gaitmodel document"),
    ("gnb", _set(["classes"], [0, 1, 2]), "classes must be label names"),
    ("logreg", _set(["parameters", "b"], [[0.0, 0.0, 0.0]]), "'b' has 2 axes, expected 1"),
    ("forest", _set(["parameters", "roots"], []), "no nodes or no roots"),
    ("knn", _drop("k", "hyperparameters"), "missing hyperparameter 'k'"),
    ("gnb", lambda doc: [doc], "not a recognized gaitmodel document"),
])
def test_from_json_refuses_malformed_models(models, algorithm, edit, message):
    doc = json.loads(models[algorithm].to_json())
    doc = edit(doc) or doc  # an edit changes doc in place or returns another document
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


@pytest.mark.parametrize("shape", [(226,), (2, 225), (1, 2, 226)])
def test_scores_refuse_a_matrix_that_is_not_n_by_226(models, shape):
    model = models["knn"]
    with pytest.raises(ValueError, match=rf"^expected an \(n, 226\) feature matrix, got "
                                         rf"{re.escape(str(shape))}$"):
        scores(model, np.zeros(shape), model.schema_fingerprint)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_train_refuses_an_empty_table(algorithm):
    with pytest.raises(InsufficientDataError, match="^need at least 2 classes, got 0$"):
        train(algorithm, FeatureTable.from_rows([]))


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
