import numpy as np
import pytest

from gaitlab.classify import (
    ALGORITHMS,
    TrainedModel,
    load_model,
    logreg_loss_and_grad,
    predict,
    predict_many,
    save_model,
    train,
    tree_scores,
)
from gaitlab.errors import InsufficientData, SchemaMismatch
from gaitlab.pose import GaitLabel
from gaitlab.video_features import schema_fingerprint

from helpers import knn_brute_force_oracle, make_separable_items, vf_from_vector


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
    model = train(algorithm, items, hyper=hyper, seed=0)
    predicted = predict_many(model, [vf for vf, _ in items])
    assert all(p == t for p, (_, t) in zip(predicted, items))


def test_single_class_is_insufficient():
    rng = np.random.default_rng(1)
    items = [(vf_from_vector(rng.normal(size=226), f"s{i}"), GaitLabel.NORMAL)
             for i in range(6)]
    with pytest.raises(InsufficientData):
        train("knn", items)


def test_tiny_class_is_insufficient():
    rng = np.random.default_rng(2)
    items = make_separable_items(rng, n_per_class=5)
    items.append((vf_from_vector(rng.normal(size=226), "lone"), GaitLabel.DIPLEGIA))
    with pytest.raises(InsufficientData):
        train("gnb", items)


def test_knn_k1_self_prediction():
    rng = np.random.default_rng(3)
    items = random_items(rng)
    model = train("knn", items, hyper={"k": 1})
    predicted = predict_many(model, [vf for vf, _ in items])
    assert all(p == t for p, (_, t) in zip(predicted, items))


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    items = random_items(rng, n=44, n_classes=4)
    for k in (1, 3, 5):
        model = train("knn", items, hyper={"k": k})
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
            "W": np.zeros((3, d)).tolist(),
            "b": [0.0, 0.0, 0.0],
            "scaler": {"mean": [0.0] * d, "std": [1.0] * d},
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
    model = train("forest", items, hyper={"n_trees": 15}, seed=2)
    classes = model.class_set
    for vf, _ in items[:15]:
        x = vf.vector()
        votes = np.zeros(len(classes))
        for tree in model.parameters["trees"]:
            votes[int(np.argmax(tree_scores(tree, x)))] += 1
        expected = classes[int(np.argmax(votes))]
        label, scores = predict(model, vf)
        assert label is expected
        assert scores[expected] == pytest.approx(votes.max() / votes.sum())


def test_gnb_scores_normalize_and_stay_finite():
    rng = np.random.default_rng(7)
    items = random_items(rng, n=30, n_classes=3)
    model = train("gnb", items)
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


def test_tree_memorizes_consistent_data():
    rng = np.random.default_rng(9)
    items = random_items(rng, n=40, n_classes=4)
    model = train("tree", items, hyper={"max_depth": None, "min_samples_leaf": 1})
    predicted = predict_many(model, [vf for vf, _ in items])
    assert all(p == t for p, (_, t) in zip(predicted, items))


@pytest.mark.parametrize("algorithm", ["knn", "logreg"])
def test_standardization_absorbs_input_scale(algorithm):
    rng = np.random.default_rng(10)
    items = random_items(rng, n=36, n_classes=3)
    queries = [vf_from_vector(rng.normal(0, 1, 226), f"q{i}") for i in range(10)]
    model = train(algorithm, items, seed=1)
    base = predict_many(model, queries)
    scale = 37.0
    scaled_items = [(vf_from_vector(vf.vector() * scale, vf.source_id), label)
                    for vf, label in items]
    scaled_model = train(algorithm, scaled_items, seed=1)
    scaled_queries = [vf_from_vector(q.vector() * scale, q.source_id) for q in queries]
    assert predict_many(scaled_model, scaled_queries) == base


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_training_is_deterministic(algorithm):
    rng = np.random.default_rng(11)
    items = random_items(rng, n=24, n_classes=3)
    hyper = {"n_trees": 8} if algorithm == "forest" else None
    a = train(algorithm, items, hyper=hyper, seed=5).to_json()
    b = train(algorithm, items, hyper=hyper, seed=5).to_json()
    assert a == b


def test_model_json_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    items = random_items(rng, n=24, n_classes=3)
    model = train("gnb", items)
    path = tmp_path / "m.gaitmodel.json"
    save_model(model, path)
    back = load_model(path)
    assert back == model
    for vf, _ in items[:5]:
        assert predict(back, vf) == predict(model, vf)


def test_predict_refuses_schema_mismatch():
    rng = np.random.default_rng(13)
    items = random_items(rng, n=24, n_classes=3)
    model = train("knn", items)
    other = vf_from_vector(rng.normal(size=226), "q",
                           fingerprint=schema_fingerprint("video", "sample"))
    with pytest.raises(SchemaMismatch):
        predict(model, other)


def test_train_refuses_mixed_fingerprints():
    rng = np.random.default_rng(14)
    items = random_items(rng, n=24, n_classes=3)
    odd = vf_from_vector(rng.normal(size=226), "odd",
                         fingerprint=schema_fingerprint("video"))
    with pytest.raises(SchemaMismatch):
        train("tree", items + [(odd, GaitLabel.NORMAL)])


def test_unknown_algorithm():
    with pytest.raises(ValueError):
        train("svm", [])
