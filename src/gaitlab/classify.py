"""From-scratch classifiers over video feature vectors.

Five algorithms: k-nearest neighbors, decision tree (Gini), random forest,
Gaussian naive Bayes, and multinomial logistic regression trained with
minibatch SGD. Distance- and gradient-based learners (kNN, logreg) z-score
their inputs internally; trees and naive Bayes work on raw features.

All tie-breaking is explicit so that retraining is bit-for-bit reproducible:
distance ties go to the lower training index, vote/score ties to the earlier
class in class_set order. Models serialize to a versioned JSON document that
embeds the feature schema fingerprint; prediction refuses mismatched inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InsufficientData, SchemaMismatch
from .pose import GaitLabel
from .video_features import VideoFeatures

ALGORITHMS = ("knn", "tree", "forest", "gnb", "logreg")

MODEL_FORMAT_VERSION = 1

DEFAULT_HYPERS = {
    "knn": {"k": 5},
    "tree": {"max_depth": 12, "min_samples_leaf": 2},
    "forest": {"n_trees": 100, "max_depth": 12, "min_samples_leaf": 2},
    "gnb": {"var_floor": 1e-9},
    "logreg": {"lr": 0.01, "epochs": 200, "batch_size": 16, "l2": 1e-4},
}

_STD_FLOOR = 1e-9


@dataclass(frozen=True)
class TrainedModel:
    algorithm: str
    parameters: dict
    class_set: tuple[GaitLabel, ...]
    schema_fingerprint: str
    hyperparameters: dict

    def to_json(self) -> str:
        doc = {
            "format": "gaitmodel",
            "version": MODEL_FORMAT_VERSION,
            "algorithm": self.algorithm,
            "classes": [c.value for c in self.class_set],
            "schema_fingerprint": self.schema_fingerprint,
            "hyperparameters": self.hyperparameters,
            "parameters": self.parameters,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TrainedModel":
        doc = json.loads(text)
        if doc.get("format") != "gaitmodel" or doc.get("version") != MODEL_FORMAT_VERSION:
            raise ValueError("not a recognized gaitmodel document")
        return cls(
            algorithm=doc["algorithm"],
            parameters=doc["parameters"],
            class_set=tuple(GaitLabel.from_name(c) for c in doc["classes"]),
            schema_fingerprint=doc["schema_fingerprint"],
            hyperparameters=doc["hyperparameters"],
        )


def save_model(model: TrainedModel, path) -> None:
    Path(path).write_text(model.to_json(), encoding="utf-8")


def load_model(path) -> TrainedModel:
    return TrainedModel.from_json(Path(path).read_text(encoding="utf-8"))


# --- standardization ---------------------------------------------------------


def _fit_standardizer(X: np.ndarray) -> dict:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.maximum(std, _STD_FLOOR)
    return {"mean": mean.tolist(), "std": std.tolist()}


def _standardize(X: np.ndarray, scaler: dict) -> np.ndarray:
    return (X - np.asarray(scaler["mean"])) / np.asarray(scaler["std"])


# --- dataset plumbing ---------------------------------------------------------


def _dataset_arrays(items):
    """items: list of (VideoFeatures, GaitLabel) -> (X, y, classes, fingerprint)."""
    if not items:
        raise InsufficientData("empty training set")
    fingerprints = {vf.schema_fingerprint for vf, _ in items}
    if len(fingerprints) != 1:
        raise SchemaMismatch(next(iter(fingerprints)), sorted(fingerprints))
    present = {label for _, label in items}
    classes = tuple(label for label in GaitLabel if label in present)
    if len(classes) < 2:
        raise InsufficientData(f"need at least 2 classes, got {len(classes)}")
    y = np.array([classes.index(label) for _, label in items])
    counts = np.bincount(y, minlength=len(classes))
    if counts.min() < 2:
        small = classes[int(counts.argmin())]
        raise InsufficientData(f"class {small.value} has fewer than 2 examples")
    X = np.stack([vf.vector() for vf, _ in items])
    return X, y, classes, next(iter(fingerprints))


# --- decision tree ------------------------------------------------------------


def _gini_from_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    # counts: (m, n_classes), totals: (m,)
    p = counts / totals[:, None]
    return 1.0 - (p**2).sum(axis=1)


def _best_split_for_feature(x, y_onehot, min_leaf):
    """Best (weighted_gini, threshold) for one feature, or None."""
    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cum = np.cumsum(y_onehot[order], axis=0)  # (n, c) prefix class counts
    left_n = np.arange(1, n)  # split after position i-1 -> left size i
    valid = (xs[:-1] < xs[1:]) & (left_n >= min_leaf) & (n - left_n >= min_leaf)
    if not valid.any():
        return None
    left_counts = cum[:-1][valid]
    right_counts = cum[-1] - left_counts
    ln = left_n[valid].astype(float)
    rn = n - ln
    weighted = (ln * _gini_from_counts(left_counts, ln)
                + rn * _gini_from_counts(right_counts, rn)) / n
    best = int(np.argmin(weighted))  # ties -> lowest threshold
    idx = np.nonzero(valid)[0][best]
    threshold = (xs[idx] + xs[idx + 1]) / 2.0  # midpoint thresholds
    return float(weighted[best]), float(threshold)


def _build_tree(X, y, n_classes, max_depth, min_leaf, rng, max_features, depth=0):
    counts = np.bincount(y, minlength=n_classes)
    node_probs = (counts / counts.sum()).tolist()
    pure = counts.max() == len(y)
    if pure or len(y) < 2 * min_leaf or (max_depth is not None and depth >= max_depth):
        return {"leaf": True, "probs": node_probs}

    d = X.shape[1]
    if max_features is not None and max_features < d:
        features = np.sort(rng.choice(d, size=max_features, replace=False))
    else:
        features = np.arange(d)

    y_onehot = np.eye(n_classes)[y]
    best = None  # (gini, feature, threshold); ties -> lowest feature index
    for f in features:
        found = _best_split_for_feature(X[:, f], y_onehot, min_leaf)
        if found is not None and (best is None or found[0] < best[0]):
            best = (found[0], int(f), found[1])
    if best is None:
        return {"leaf": True, "probs": node_probs}

    _, f, t = best
    mask = X[:, f] <= t
    return {
        "leaf": False,
        "feature": f,
        "threshold": t,
        "left": _build_tree(X[mask], y[mask], n_classes, max_depth, min_leaf,
                            rng, max_features, depth + 1),
        "right": _build_tree(X[~mask], y[~mask], n_classes, max_depth, min_leaf,
                             rng, max_features, depth + 1),
    }


def tree_scores(node: dict, x: np.ndarray) -> np.ndarray:
    """Leaf class frequencies for one input vector."""
    while not node["leaf"]:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return np.asarray(node["probs"])


# --- logistic regression ------------------------------------------------------


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def logreg_loss_and_grad(W, b, X, y, l2=0.0):
    """Mean cross-entropy + 0.5*l2*||W||^2 and its analytic gradient.

    W: (c, d), b: (c,), X: (n, d), y: (n,) class indices.
    """
    n = X.shape[0]
    probs = softmax(X @ W.T + b)
    eps = 1e-300  # guard the log only; probs from softmax are positive anyway
    loss = -np.mean(np.log(probs[np.arange(n), y] + eps)) + 0.5 * l2 * np.sum(W**2)
    delta = probs
    delta[np.arange(n), y] -= 1.0
    dW = delta.T @ X / n + l2 * W
    db = delta.sum(axis=0) / n
    return loss, dW, db


def _train_logreg(X, y, n_classes, hyper, seed):
    scaler = _fit_standardizer(X)
    Xs = _standardize(X, scaler)
    n, d = Xs.shape
    W = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    rng = np.random.default_rng(seed)
    bs = hyper["batch_size"]
    for _ in range(hyper["epochs"]):
        perm = rng.permutation(n)
        for start in range(0, n, bs):
            idx = perm[start:start + bs]
            _, dW, db = logreg_loss_and_grad(W, b, Xs[idx], y[idx], hyper["l2"])
            W -= hyper["lr"] * dW
            b -= hyper["lr"] * db
    return {"W": W.tolist(), "b": b.tolist(), "scaler": scaler}


# --- training -----------------------------------------------------------------


def train(algorithm: str, items, hyper: dict | None = None, seed: int = 0) -> TrainedModel:
    """Fit one of the five algorithms on (VideoFeatures, GaitLabel) pairs."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    X, y, classes, fingerprint = _dataset_arrays(items)
    merged = dict(DEFAULT_HYPERS[algorithm])
    if hyper:
        merged.update(hyper)
    n_classes = len(classes)

    if algorithm == "knn":
        scaler = _fit_standardizer(X)
        params = {
            "k": merged["k"],
            "X": _standardize(X, scaler).tolist(),
            "y": y.tolist(),
            "scaler": scaler,
        }
    elif algorithm == "tree":
        rng = np.random.default_rng(seed)
        params = {
            "tree": _build_tree(X, y, n_classes, merged["max_depth"],
                                merged["min_samples_leaf"], rng, None)
        }
    elif algorithm == "forest":
        n = X.shape[0]
        max_features = max(1, int(math.sqrt(X.shape[1])))
        tree_seeds = np.random.SeedSequence(seed).spawn(merged["n_trees"])
        trees = []
        for ss in tree_seeds:
            rng = np.random.default_rng(ss)
            boot = rng.integers(0, n, size=n)
            trees.append(
                _build_tree(X[boot], y[boot], n_classes, merged["max_depth"],
                            merged["min_samples_leaf"], rng, max_features)
            )
        params = {"trees": trees, "max_features": max_features}
    elif algorithm == "gnb":
        means, variances, priors = [], [], []
        for c in range(n_classes):
            Xc = X[y == c]
            means.append(Xc.mean(axis=0).tolist())
            variances.append(np.maximum(Xc.var(axis=0), merged["var_floor"]).tolist())
            priors.append(len(Xc) / len(X))
        params = {"means": means, "vars": variances, "log_priors": np.log(priors).tolist()}
    else:  # logreg
        params = _train_logreg(X, y, n_classes, merged, seed)

    return TrainedModel(
        algorithm=algorithm,
        parameters=params,
        class_set=classes,
        schema_fingerprint=fingerprint,
        hyperparameters=merged,
    )


# --- prediction ---------------------------------------------------------------


def _score_vector(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    p = model.parameters
    n_classes = len(model.class_set)
    if model.algorithm == "knn":
        xs = _standardize(x, p["scaler"])
        X = np.asarray(p["X"])
        y = np.asarray(p["y"])
        dist = np.sqrt(((X - xs) ** 2).sum(axis=1))
        order = np.argsort(dist, kind="stable")  # distance ties -> lower index
        votes = np.bincount(y[order[: p["k"]]], minlength=n_classes)
        return votes / votes.sum()
    if model.algorithm == "tree":
        return tree_scores(p["tree"], x)
    if model.algorithm == "forest":
        votes = np.zeros(n_classes)
        for tree in p["trees"]:
            votes[int(np.argmax(tree_scores(tree, x)))] += 1
        return votes / votes.sum()
    if model.algorithm == "gnb":
        means = np.asarray(p["means"])
        variances = np.asarray(p["vars"])
        logp = np.asarray(p["log_priors"]) - 0.5 * (
            np.log(2.0 * math.pi * variances) + (x - means) ** 2 / variances
        ).sum(axis=1)
        return softmax(logp)
    # logreg
    xs = _standardize(x, p["scaler"])
    return softmax(np.asarray(p["W"]) @ xs + np.asarray(p["b"]))


def predict(model: TrainedModel, features: VideoFeatures):
    """(label, per-class score dict); label is the argmax with class-order ties."""
    if features.schema_fingerprint != model.schema_fingerprint:
        raise SchemaMismatch(model.schema_fingerprint, features.schema_fingerprint)
    scores = _score_vector(model, features.vector())
    label = model.class_set[int(np.argmax(scores))]
    return label, {c: float(s) for c, s in zip(model.class_set, scores)}


def predict_many(model: TrainedModel, features_list) -> list[GaitLabel]:
    return [predict(model, vf)[0] for vf in features_list]
