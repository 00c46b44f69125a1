"""From-scratch classifiers over video feature vectors.

Five algorithms: k-nearest neighbors, decision tree (Gini), random forest,
Gaussian naive Bayes, and multinomial logistic regression trained with
minibatch SGD. Distance- and gradient-based learners (kNN, logreg) z-score
their inputs internally; trees and naive Bayes work on raw features.

All tie-breaking is explicit so that retraining is bit-for-bit reproducible:
distance ties go to the lower training index, vote/score ties to the earlier
class in class_set order. A model's parameters are numpy arrays; a tree is
stored as flat node arrays. Models serialize to a versioned JSON document that
embeds the feature schema fingerprint; prediction refuses mismatched inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, SchemaMismatch
from .pose import GaitLabel
from .video_features import N_VIDEO_FEATURES, FeatureTable, VideoFeatures

ALGORITHMS = ("knn", "tree", "forest", "gnb", "logreg")

MODEL_FORMAT_VERSION = 2

DEFAULT_HYPERS = {
    "knn": {"k": 5},
    "tree": {"max_depth": 12, "min_samples_leaf": 2},
    "forest": {"n_trees": 100, "max_depth": 12, "min_samples_leaf": 2},
    "gnb": {"var_floor": 1e-9},
    "logreg": {"lr": 0.01, "epochs": 200, "batch_size": 16, "l2": 1e-4},
}

# Smallest value of each integer hyperparameter; max_depth may also be None.
_HYPER_MINIMUM = {"k": 1, "n_trees": 1, "min_samples_leaf": 1, "max_depth": 0,
                  "batch_size": 1, "epochs": 0}
# How each real hyperparameter compares with 0; every one must also be finite.
_REAL_HYPERS = {"var_floor": ">", "lr": ">", "l2": ">="}

# The parameter arrays of each algorithm: name -> (dtype, one letter per axis).
# "d" is the feature count and "c" the class count; any other letter is a size
# that every array using it must share.
_NODE_ARRAYS = {"feature": (int, "m"), "threshold": (float, "m"), "left": (int, "m"),
                "right": (int, "m"), "probs": (float, "mc"), "roots": (int, "t")}
_PARAMETER_ARRAYS = {
    "knn": {"X": (float, "nd"), "y": (int, "n"), "mean": (float, "d"), "std": (float, "d")},
    "tree": _NODE_ARRAYS,
    "forest": _NODE_ARRAYS,
    "gnb": {"means": (float, "cd"), "vars": (float, "cd"), "log_priors": (float, "c")},
    "logreg": {"W": (float, "cd"), "b": (float, "c"), "mean": (float, "d"), "std": (float, "d")},
}

_STD_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class TrainedModel:
    algorithm: str
    parameters: dict  # name -> numpy array, as in _PARAMETER_ARRAYS
    class_set: tuple[GaitLabel, ...]
    schema_fingerprint: str
    hyperparameters: dict
    # what scoring derives from the parameters alone, built once per model;
    # never serialized or compared
    scoring: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "scoring", _scoring_arrays(self.algorithm, self.parameters))

    def __eq__(self, other):
        # parameters are arrays, so compare the documents they serialize to
        return isinstance(other, TrainedModel) and self.to_json() == other.to_json()

    def to_json(self) -> str:
        doc = {
            "format": "gaitmodel",
            "version": MODEL_FORMAT_VERSION,
            "algorithm": self.algorithm,
            "classes": [c.value for c in self.class_set],
            "schema_fingerprint": self.schema_fingerprint,
            "hyperparameters": self.hyperparameters,
            "parameters": {name: value.tolist() for name, value in self.parameters.items()},
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TrainedModel":
        """Parse and validate a model document; any defect raises ValueError."""
        try:
            doc = json.loads(text)
        except RecursionError:  # nesting too deep for the decoder
            raise ValueError("model document is nested too deeply") from None
        if not isinstance(doc, dict) or doc.get("format") != "gaitmodel":
            raise ValueError("not a recognized gaitmodel document")
        if doc.get("version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"gaitmodel version {doc.get('version')!r} is not supported "
                             f"(expected {MODEL_FORMAT_VERSION}); retrain the model")
        algorithm = doc.get("algorithm")
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r} in model")
        for key, kind in (("classes", list), ("schema_fingerprint", str),
                          ("hyperparameters", dict), ("parameters", dict)):
            if not isinstance(doc.get(key), kind):
                raise ValueError(f"model {key!r} is missing or not a {kind.__name__}")
        if not all(isinstance(c, str) for c in doc["classes"]):
            raise ValueError("model classes must be label names")
        classes = tuple(GaitLabel.from_name(c) for c in doc["classes"])
        if len(classes) < 2 or len(set(classes)) != len(classes):
            raise ValueError(f"model classes {doc['classes']} are not 2 or more distinct labels")
        parameters = _checked_parameters(algorithm, doc["parameters"], len(classes))
        _check_hypers(algorithm, doc["hyperparameters"], len(parameters.get("X", ())))
        return cls(
            algorithm=algorithm,
            parameters=parameters,
            class_set=classes,
            schema_fingerprint=doc["schema_fingerprint"],
            hyperparameters=doc["hyperparameters"],
        )


def _checked_parameters(algorithm: str, raw: dict, n_classes: int) -> dict:
    """Arrays of a model's parameters, from a document's lists or a training
    run's arrays; checks names, types, shapes and values, raising ValueError."""
    sizes = {"d": N_VIDEO_FEATURES, "c": n_classes}
    params = {}
    for name, (dtype, axes) in _PARAMETER_ARRAYS[algorithm].items():
        if name not in raw:
            raise ValueError(f"{algorithm} model is missing parameter {name!r}")
        value = np.asarray(raw[name])  # a ragged list raises ValueError here
        kinds = "iu" if dtype is int else "iuf"
        if value.size and value.dtype.kind not in kinds:
            raise ValueError(f"parameter {name!r} holds values that are not {dtype.__name__}s")
        value = value.astype(dtype)
        if dtype is float and not np.isfinite(value).all():
            raise ValueError(f"parameter {name!r} holds non-finite values")
        if value.ndim != len(axes):
            raise ValueError(f"parameter {name!r} has {value.ndim} axes, expected {len(axes)}")
        for axis, size in zip(axes, value.shape):
            if sizes.setdefault(axis, size) != size:
                raise ValueError(f"parameter {name!r} has shape {value.shape}, which does not "
                                 f"agree with {sizes['d']} features, {n_classes} classes "
                                 f"and the other parameters")
        params[name] = value
    for name in ("std", "vars"):  # divisors of the scores
        if name in params and (params[name] <= 0).any():
            raise ValueError(f"parameter {name!r} holds non-positive values")
    if algorithm == "knn" and ((params["y"] < 0) | (params["y"] >= n_classes)).any():
        raise ValueError("knn labels are outside the model's classes")
    if "roots" in params:
        _check_nodes(params)
    if algorithm == "tree" and len(params["roots"]) != 1:
        raise ValueError("a tree model has exactly one root")
    return params


def _check_nodes(p: dict) -> None:
    """Every walk from a root must end in a leaf: each inner node's children
    come after it (preorder), so a walk can neither loop nor leave the arrays."""
    m = len(p["feature"])
    if m == 0 or len(p["roots"]) == 0:
        raise ValueError("tree model has no nodes or no roots")
    if (p["feature"] < -1).any() or (p["feature"] >= N_VIDEO_FEATURES).any():
        raise ValueError("tree node feature index out of range")
    inner = p["feature"] >= 0
    parent = np.arange(m)[inner]
    for side in ("left", "right"):
        child = p[side][inner]
        if ((child <= parent) | (child >= m)).any():
            raise ValueError(f"tree node {side} child index out of range")
    if ((p["roots"] < 0) | (p["roots"] >= m)).any():
        raise ValueError("tree root index out of range")


def save_model(model: TrainedModel, path) -> None:
    Path(path).write_text(model.to_json(), encoding="utf-8")


def load_model(path) -> TrainedModel:
    """Read a model file; a file that is not a valid model document raises
    ValueError naming it."""
    try:
        return TrainedModel.from_json(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # also a decoding or JSON syntax error
        raise ValueError(f"model file {path}: {exc}") from None


# --- standardization ---------------------------------------------------------


def _fit_standardizer(X: np.ndarray) -> dict:
    return {"mean": X.mean(axis=0), "std": np.maximum(X.std(axis=0), _STD_FLOOR)}


def _standardize(X: np.ndarray, p: dict) -> np.ndarray:
    return (X - p["mean"]) / p["std"]


# --- dataset plumbing ---------------------------------------------------------


def _check_hypers(algorithm: str, hyper: dict, n_train: int) -> None:
    """Refuse unknown hyperparameter names and values that would give NaN
    scores or silently wrong votes."""
    unknown = [name for name in hyper if name not in DEFAULT_HYPERS[algorithm]]
    if unknown:
        raise ValueError(f"{algorithm}: unknown hyperparameter(s) {unknown}")
    for name in DEFAULT_HYPERS[algorithm]:
        if name not in hyper:
            raise ValueError(f"{algorithm}: missing hyperparameter {name!r}")
        value = hyper[name]
        if name in _REAL_HYPERS:
            op = _REAL_HYPERS[name]
            if (isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value)
                    or not (value > 0 or (op == ">=" and value == 0))):
                raise ValueError(f"{algorithm}: {name} must be a finite number {op} 0, got {value!r}")
        elif name in _HYPER_MINIMUM and not (name == "max_depth" and value is None):
            low = _HYPER_MINIMUM[name]
            if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
                raise ValueError(f"{algorithm}: {name} must be an integer >= {low}, got {value!r}")
    if algorithm == "knn" and hyper["k"] > n_train:
        raise ValueError(f"knn: k={hyper['k']} exceeds the {n_train} training rows")


# --- decision tree ------------------------------------------------------------

_GROUP = 10  # trees grown in lockstep; a larger group pads more rows and holds more memory


def _rank_keys(X, y, n_classes):
    """Per fit: keys (n + 1, d) = rank * (n_classes + 1) + class, a rank being the
    count of lower values in its column (-0.0 ties 0.0), padded by a row of rank n
    and class n_classes; values[rank, j] is column j's value of that rank."""
    n, d = X.shape
    order = np.argsort(X, axis=0)
    values = np.take_along_axis(X, order, axis=0)
    starts = np.vstack([np.ones((1, d), bool), values[1:] > values[:-1]]) * np.arange(n)[:, None]
    ranks = np.full((n + 1, d), n)
    np.put_along_axis(ranks[:n], order, np.maximum.accumulate(starts, axis=0), axis=0)
    return ranks * (n_classes + 1) + np.append(y, n_classes)[:, None], values


def _best_splits(keys, values, n_classes, nodes, min_leaf):
    """(feature, threshold) of the lowest weighted Gini of each (rows, candidate
    columns) node over the fit's _rank_keys, or None where no split leaves
    min_leaf rows on each side; ties go to the lowest feature index, then the
    lowest threshold. Nodes have as many columns, padded with keys' last row."""
    n = np.array([len(rows) for rows, _ in nodes])[:, None, None]  # (K, 1, 1)
    rows = np.full((len(nodes), n.max()), len(keys) - 1)  # (K, N)
    for k, (r, _) in enumerate(nodes):
        rows[k, :len(r)] = r
    features = np.array([f for _, f in nodes])  # (K, f)
    # Sorted keys order each column by value and a tie by class; a valid split
    # lies between two ranks, so its prefix class counts do not see tie order.
    rank, ys = np.divmod(np.sort(keys[rows[:, None, :], features[:, :, None]]), n_classes + 1)
    ln = np.arange(1, rows.shape[1], dtype=float)  # split after position i-1 -> left size i
    rn = n - ln  # <= 0 only where a node is padded, so the division below clamps it to 1
    # Squared class shares summed class by class from 0.0, as over a class axis but
    # holding no (c, K, f, N) array; integer counts give the same shares as floats.
    cum = np.empty(ys.shape, np.int32)  # prefix counts of one class
    left_sq = right_sq = 0.0
    for c in range(n_classes):
        np.cumsum(ys == c, axis=2, dtype=np.int32, out=cum)
        left_sq += (cum[..., :-1] / ln) ** 2  # in place from the second class on
        right_sq += ((cum[..., -1:] - cum[..., :-1]) / np.maximum(rn, 1.0)) ** 2
    valid = (rank[..., :-1] < rank[..., 1:]) & (ln >= min_leaf) & (rn >= min_leaf)
    weighted = np.where(valid, (ln * (1.0 - left_sq) + rn * (1.0 - right_sq)) / n, np.inf)
    # each node's first minimum in row-major order: the lowest feature, then threshold
    best, at = np.divmod(weighted.reshape(len(nodes), -1).argmin(axis=1), rows.shape[1] - 1)
    return [(int(features[k, j]), float((values[rank[k, j, i], features[k, j]]  # midpoint
                                         + values[rank[k, j, i + 1], features[k, j]]) / 2.0))
            if valid[k, j, i] else None for k, (j, i) in enumerate(zip(best, at))]


def _grow_trees(X, y, n_classes, max_depth, min_leaf, roots, max_features=None) -> dict:
    """Flat node arrays of one tree per (generator, root row indices) pair.

    A node is [feature, threshold, left, right, class frequencies], with -1
    for a leaf's feature and links. A tree grows in preorder from its stack of
    (rows, depth, parent slot), drawing max_features candidate columns per
    node from its own generator (all columns when it has none), so it is the
    same tree alone or in a group. _GROUP trees grow in lockstep: each pops
    nodes until one needs a split search, and one _best_splits call serves
    them all.
    """
    d = X.shape[1]
    keys, values = _rank_keys(X, y, n_classes)
    trees = [([], [(rows, 0, None)], rng) for rng, rows in roots]  # (nodes, stack, generator)
    for g in range(0, len(trees), _GROUP):
        while True:
            pending, searches = [], []  # (nodes, stack, index, depth) and (rows, columns)
            for nodes, stack, rng in trees[g:g + _GROUP]:
                while stack:
                    rows, depth, slot = stack.pop()
                    if slot:  # (parent index, 2 for its left link or 3 for its right)
                        nodes[slot[0]][slot[1]] = len(nodes)
                    counts = np.bincount(y[rows], minlength=n_classes)
                    nodes.append([-1, 0.0, -1, -1, counts / counts.sum()])
                    pure = counts.max() == len(rows)
                    deep = max_depth is not None and depth >= max_depth
                    if pure or deep or len(rows) < 2 * min_leaf:
                        continue
                    features = np.arange(d) if rng is None else np.sort(
                        rng.choice(d, size=max_features, replace=False))
                    pending.append((nodes, stack, len(nodes) - 1, depth))
                    searches.append((rows, features))
                    break
            if not searches:
                break
            splits = _best_splits(keys, values, n_classes, searches, min_leaf)
            for (nodes, stack, index, depth), (rows, _), best in zip(pending, searches, splits):
                if best is not None:
                    nodes[index][:2] = best
                    mask = X[rows, best[0]] <= best[1]
                    stack += [(rows[~mask], depth + 1, (index, 3)),
                              (rows[mask], depth + 1, (index, 2))]
    sizes = [len(nodes) for nodes, _, _ in trees]
    feature, threshold, left, right, probs = map(
        np.array, zip(*[node for nodes, _, _ in trees for node in nodes]))
    starts = np.cumsum([0] + sizes[:-1])
    shift = np.where(feature >= 0, np.repeat(starts, sizes), 0)  # tree links -> array indices
    return {"feature": feature, "threshold": threshold, "left": left + shift,
            "right": right + shift, "probs": probs, "roots": starts}


def _scoring_arrays(algorithm: str, p: dict) -> dict:
    """The arrays scores() derives from a model's parameters alone.

    Trees: an (m, 2) child table, [left, right] of an inner node and the
    node itself twice for a leaf; the feature indices with a leaf's -1 made
    0; the depth of the deepest leaf; and the forest's vote (first argmax)
    of each node. gnb: the log(2 pi var) term of its log-likelihood."""
    if algorithm == "gnb":
        with np.errstate(over="ignore"):  # an infinite term gives a refused score
            return {"log_2pi_vars": np.log(2.0 * math.pi * p["vars"])}
    if algorithm not in ("tree", "forest"):
        return {}
    inner = p["feature"] >= 0
    m = len(inner)
    child = np.where(inner[:, None], np.stack([p["left"], p["right"]], axis=1),
                     np.arange(m)[:, None])
    depth, level = 0, p["roots"]
    while inner[level].any():  # children come after their parent, so this ends
        # each node once, however many parents name it
        level = np.flatnonzero(np.bincount(child[level[inner[level]]].ravel(), minlength=m))
        depth += 1
    return {"child": child, "feature": np.maximum(p["feature"], 0), "depth": depth,
            "vote": p["probs"].argmax(axis=1)}


def _leaves(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """(n, n_trees) leaf reached by every (row, tree) pair.

    All pairs move down one level per step, in exactly the forest's depth
    steps; a leaf's child is itself. Rows must be finite, so > is the
    complement of <=: a value equal to the threshold goes left.
    """
    s, threshold = model.scoring, model.parameters["threshold"]
    rows = np.arange(len(X))[:, None]
    node = np.repeat(model.parameters["roots"][None, :], len(X), axis=0)
    for _ in range(s["depth"]):
        right = X[rows, s["feature"][node]] > threshold[node]
        node = s["child"][node, right.astype(np.intp)]  # an index, 0 or 1, not a mask
    return node


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
    return (loss, *_logreg_grad(probs, W, X, np.eye(len(W))[y], l2))


def _logreg_grad(probs, W, X, T, l2):
    """(dW, db) of the loss above, from the softmax probabilities of X's rows
    (overwritten) and their one-hot targets T. Every array may carry a leading
    fit axis: one fit's rows, weights and targets per slice, each slice giving
    the bytes it gives alone."""
    n = X.shape[-2]
    delta = probs
    delta -= T  # p - 0.0 is p: the same bytes as p[i, y] -= 1
    return delta.swapaxes(-1, -2) @ X / n + l2 * W, delta.sum(axis=-2) / n


def _train_logreg(rows, ys, n_classes, hyper, seed):
    """(W, b) of one logreg per pair of standardized rows and class indices,
    fit by minibatch SGD in lockstep.

    Each fit permutes its rows once per epoch with its own default_rng(seed),
    so it gives the same bytes alone or beside others. The fits sit in slots
    ordered by row count, so at each minibatch start the slots whose batches
    share a size are a run, and step as one (F, b, d) stack of views.
    """
    order = sorted(range(len(rows)), key=lambda f: len(rows[f]))  # slot -> fit
    rows = [rows[f] for f in order]
    targets = [np.eye(n_classes)[ys[f]] for f in order]
    sizes = np.array([len(X) for X in rows])
    F, n, d = len(rows), sizes[-1], N_VIDEO_FEATURES
    Xp, Tp = np.empty((F, n, d)), np.empty((F, n, n_classes))  # each slot's rows, permuted
    W, B = np.zeros((F, n_classes, d)), np.zeros((F, n_classes))
    bs, lr, l2 = hyper["batch_size"], hyper["lr"], hyper["l2"]
    steps = []  # one epoch's minibatches: views of a run of slots' rows, targets, W and b
    for start in range(0, n, bs):
        batch = np.minimum(sizes - start, bs)  # does not decrease over the slots
        for b in sorted(set(batch[batch > 0].tolist())):  # np.unique imports numpy.ma, ~1 MB
            lo, hi = np.searchsorted(batch, [b, b + 1])
            steps.append((Xp[lo:hi, start:start + b], Tp[lo:hi, start:start + b],
                          W[lo:hi], W[lo:hi].transpose(0, 2, 1), B[lo:hi], B[lo:hi, None]))
    rngs = [np.random.default_rng(seed) for _ in rows]
    for _ in range(hyper["epochs"]):
        for k, rng in enumerate(rngs):
            perm = rng.permutation(sizes[k])
            np.take(rows[k], perm, axis=0, out=Xp[k, :sizes[k]])
            np.take(targets[k], perm, axis=0, out=Tp[k, :sizes[k]])
        for Xb, Tb, Wb, Wb_T, Bb, Bb_row in steps:
            dW, db = _logreg_grad(softmax(Xb @ Wb_T + Bb_row), Wb, Xb, Tb, l2)
            Wb -= lr * dW
            Bb -= lr * db
    return [(W[k], B[k]) for k in np.argsort(order)]


# --- training -----------------------------------------------------------------


def _training_rows(table: FeatureTable):
    """(X, y, classes): the rows, each row's index in classes, and the classes of
    the labels in GaitLabel order. A non-finite or unlabeled row raises ValueError,
    too few rows or classes InsufficientDataError."""
    bad = np.flatnonzero(~np.isfinite(table.X).all(axis=1))
    if len(bad):
        raise ValueError(f"feature row {bad[0]} ({table.source_ids[bad[0]]!r}) is not finite")
    if not len(table):
        raise InsufficientDataError("empty training set")
    present = set(table.labels)
    classes = tuple(label for label in GaitLabel if label in present)
    y = table.class_indices(classes)
    if len(classes) < 2:
        raise InsufficientDataError(f"need at least 2 classes, got {len(classes)}")
    counts = np.bincount(y, minlength=len(classes))
    if counts.min() < 2:
        small = classes[int(counts.argmin())]
        raise InsufficientDataError(f"class {small.value} has fewer than 2 examples")
    return table.X, y, classes


def _trained_model(algorithm, params, classes, hyper, fingerprint) -> TrainedModel:
    """The model of a fit's parameters, which must pass the check a loaded model
    passes, so train and load agree."""
    try:
        params = _checked_parameters(algorithm, params, len(classes))
    except ValueError as exc:
        raise ValueError(f"{algorithm} with {hyper} gave an invalid model: {exc}") from None
    return TrainedModel(algorithm=algorithm, parameters=params, class_set=classes,
                        schema_fingerprint=fingerprint, hyperparameters=hyper)


@np.errstate(over="ignore", invalid="ignore")  # _checked_parameters refuses what overflows
def train(algorithm: str, table: FeatureTable, hyper: dict | None = None,
          seed: int = 0) -> TrainedModel:
    """Fit one of the five algorithms on the rows of a labeled feature table."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "logreg":  # the lockstep trainer with one fit
        return train_logregs([table], hyper, seed)[0]
    X, y, classes = _training_rows(table)
    merged = {**DEFAULT_HYPERS[algorithm], **(hyper or {})}
    _check_hypers(algorithm, merged, len(X))
    n_classes = len(classes)

    if algorithm == "knn":
        scaler = _fit_standardizer(X)
        params = {"X": _standardize(X, scaler), "y": y, **scaler}
    elif algorithm == "tree":
        params = _grow_trees(X, y, n_classes, merged["max_depth"], merged["min_samples_leaf"],
                             [(None, np.arange(len(X)))])
    elif algorithm == "forest":
        rngs = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(merged["n_trees"]))
        params = _grow_trees(X, y, n_classes, merged["max_depth"], merged["min_samples_leaf"],
                             [(rng, rng.integers(0, len(X), size=len(X))) for rng in rngs],
                             max(1, int(math.sqrt(X.shape[1]))))
    else:  # gnb
        groups = [X[y == c] for c in range(n_classes)]
        params = {
            "means": np.array([Xc.mean(axis=0) for Xc in groups]),
            "vars": np.array([np.maximum(Xc.var(axis=0), merged["var_floor"]) for Xc in groups]),
            "log_priors": np.log([len(Xc) / len(X) for Xc in groups]),
        }
    return _trained_model(algorithm, params, classes, merged, table.fingerprint)


@np.errstate(over="ignore", invalid="ignore")  # _checked_parameters refuses what overflows
def train_logregs(tables, hyper: dict | None = None, seed: int = 0) -> list[TrainedModel]:
    """train("logreg", table, hyper, seed) of each of the tables, the fits
    stepping in lockstep; the tables must share one class set. Each table is
    read once, in order, and only its standardized rows are kept. A failure
    raises what train raises, the first table's first."""
    fits = []  # (standardized rows, y, classes, scaler, fingerprint) per table
    for table in tables:
        X, y, classes = _training_rows(table)
        scaler = _fit_standardizer(X)
        fits.append((_standardize(X, scaler), y, classes, scaler, table.fingerprint))
    merged = {**DEFAULT_HYPERS["logreg"], **(hyper or {})}
    _check_hypers("logreg", merged, 0)  # the row count bounds only knn's k
    class_sets = {classes for _, _, classes, _, _ in fits}
    if len(class_sets) != 1:
        raise ValueError(f"logreg fits in lockstep need one class set, got {len(class_sets)}")
    [classes] = class_sets
    weights = _train_logreg([fit[0] for fit in fits], [fit[1] for fit in fits], len(classes),
                            merged, seed)
    return [_trained_model("logreg", {"W": W, "b": b, **scaler}, classes, merged, fingerprint)
            for (W, b), (_, _, _, scaler, fingerprint) in zip(weights, fits)]


# --- prediction ---------------------------------------------------------------


def scores(model: TrainedModel, X: np.ndarray, fingerprint: str) -> np.ndarray:
    """(n, n_classes) class scores of the rows of X (n, 226); each row sums to 1.

    ``fingerprint`` is the feature schema of X's rows; a model refuses another.
    A row whose knn distances or gnb or logreg class scores overflow raises
    UnscorableRow, a ValueError; trees only compare values."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != N_VIDEO_FEATURES:
        raise ValueError(f"expected an (n, {N_VIDEO_FEATURES}) feature matrix, got {X.shape}")
    if len(X) and fingerprint != model.schema_fingerprint:  # an empty X fits any schema
        raise SchemaMismatch(model.schema_fingerprint, fingerprint)
    if not np.isfinite(X).all():
        raise ValueError("the feature matrix holds non-finite values")
    p = model.parameters
    n_classes = len(model.class_set)
    if model.algorithm == "tree":
        return p["probs"][_leaves(model, X)[:, 0]]
    if model.algorithm == "forest":
        return _vote_shares(model.scoring["vote"][_leaves(model, X)], n_classes)
    with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses what overflows
        if model.algorithm == "gnb":
            logp = p["log_priors"] - 0.5 * (
                model.scoring["log_2pi_vars"] + (X[:, None, :] - p["means"]) ** 2 / p["vars"]
            ).sum(axis=2)
            return softmax(_finite(logp, "class scores"))
        Xs = _standardize(X, p)
        if model.algorithm == "knn":
            # One query at a time, so no (n, n_train, d) difference array is made.
            # The distance keeps this form: the GEMM form rounds differently and
            # would reorder near-ties; the stable sort gives distance ties to the lower index.
            dist = np.array([np.sqrt(((p["X"] - xs) ** 2).sum(axis=1)) for xs in Xs])
            nearest = np.argsort(_finite(dist.reshape(len(X), len(p["X"])), "distances"), axis=1,
                                 kind="stable")[:, :model.hyperparameters["k"]]
            return _vote_shares(p["y"][nearest], n_classes)
        # logreg: W @ xs row by row, since the batched Xs @ W.T rounds differently
        logits = np.array([p["W"] @ xs for xs in Xs]).reshape(len(X), n_classes) + p["b"]
        return softmax(_finite(logits, "class scores"))


class UnscorableRow(ValueError):
    """Feature row ``row`` gives ``reason``: non-finite knn distances or class scores."""
    def __init__(self, row: int, what: str):
        self.row = row
        self.reason = f"non-finite {what}; is a value far outside the model's training range?"
        super().__init__(f"feature row {row} gives {self.reason}")


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` (n, m) unchanged when finite; else UnscorableRow naming its first other row."""
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise UnscorableRow(int(np.argmin(finite)), what)
    return values


def _vote_shares(votes: np.ndarray, n_classes: int) -> np.ndarray:
    """(n, n_classes) share of each row's votes (n, voters) that go to each class."""
    return (votes[:, :, None] == np.arange(n_classes)).mean(axis=1)


def predict(model: TrainedModel, features: VideoFeatures):
    """(label, per-class score dict) of one video; label is the argmax with class-order ties."""
    row = scores(model, features.x[None, :], features.schema_fingerprint)[0]
    label = model.class_set[int(np.argmax(row))]
    return label, {c: float(s) for c, s in zip(model.class_set, row)}
