"""From-scratch classifiers over video feature vectors.

Five algorithms: k-nearest neighbors, decision tree (Gini), random forest,
Gaussian naive Bayes, and multinomial logistic regression trained with
minibatch SGD. Distance- and gradient-based learners (kNN, logreg) z-score
their inputs internally; trees and naive Bayes work on raw features.

All tie-breaking is explicit so that retraining is bit-for-bit reproducible:
distance ties go to the lower training index, vote/score ties to the earlier
class in class_set order, and split ties (compared by an exact integer form of
the weighted Gini) to the lower feature index, then the lower threshold.
train_logregs fits several logregs in lockstep, each giving the model train
gives. A model's parameters are numpy arrays; a tree is stored as flat node
arrays. Models serialize to a versioned JSON document that embeds the feature
schema fingerprint; prediction refuses mismatched inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, ParseError, SchemaMismatch
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
        object.__setattr__(self, "scoring", _scoring_arrays(self.algorithm, self.parameters,
                                                            len(self.class_set)))

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
    if algorithm == "tree" and len(params["roots"]) != 1:
        raise ValueError("a tree model has exactly one root")
    if "roots" in params:
        _check_nodes(params)
    return params


def _check_nodes(p: dict) -> None:
    """The node arrays must hold whole trees: each inner node's children come
    after it (preorder), so a walk can neither loop nor leave the arrays, and
    every node is linked exactly once, as a root or as one side of one parent."""
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
    links = np.bincount(np.concatenate([p["roots"], p["left"][inner], p["right"][inner]]),
                        minlength=m)
    if (links != 1).any():
        node = int(np.argmax(links != 1))
        raise ValueError(f"tree node {node} is linked {links[node]} times; every node must "
                         "be a root or a child of one parent, once")


def save_model(model: TrainedModel, path) -> None:
    Path(path).write_text(model.to_json(), encoding="utf-8")


def load_model(path) -> TrainedModel:
    """Read a model file; a file that is not a valid model document raises
    ParseError at its path."""
    try:
        return TrainedModel.from_json(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # also a decoding or JSON syntax error
        raise ParseError(str(exc), path=path) from None


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
    """Per fit: int32 keys (d, n + 1) = rank << b | class, b = n_classes.bit_length(),
    a rank being the count of lower values in its column (-0.0 ties 0.0), each
    column padded by rank n and class n_classes (keys fit an int32 for
    n < 2**(31 - b)); values[rank, j] is column j's value of that rank."""
    n, d = X.shape
    order = np.argsort(X, axis=0)
    values = np.take_along_axis(X, order, axis=0)
    starts = np.vstack([np.ones((1, d), bool), values[1:] > values[:-1]]) * np.arange(n)[:, None]
    ranks = np.full((d, n + 1), n, np.int32)
    np.put_along_axis(ranks.T[:n], order, np.maximum.accumulate(starts, axis=0), axis=0)
    return ranks << n_classes.bit_length() | np.append(y, n_classes).astype(np.int32), values


def _best_splits(keys, values, n_classes, nodes, min_leaf):
    """(feature, threshold, left class counts) of the lowest weighted Gini of
    each (rows, class counts, candidate columns) node over the fit's
    _rank_keys, or None where no split leaves min_leaf rows on each side; ties
    go to the lowest feature index, then the lowest threshold. Nodes have as
    many columns, padded with each column's last key. The threshold is the
    midpoint of the two values, or the lower one where rounding or overflow
    puts the midpoint outside [lower, upper).

    The criterion is exact. A split of a node of n rows into ln left and rn
    right rows, with class counts l_c and r_c, has weighted Gini
    (n - L / ln - R / rn) / n for L = sum l_c^2 and R = sum r_c^2, so the lowest
    Gini is the highest Q = (L rn + R ln) / (ln rn). With C and S the prefix
    sums of each row's own-class count so far and of its class total T_c,
    L = 2 C - ln and Q / 2 = (n C + ln (P - S)) / (ln rn) for the integer
    P = sum T_c (T_c - 1) / 2: an exact integer numerator of at most n**3 / 8
    and one correctly rounded division, so equal ratios give equal floats (a
    float halves exactly: Q / 2 ranks and ties as Q does). Up to n = 2048 rows
    unequal ratios give unequal floats too: two ratios with denominators
    q, q' <= n**2 / 4 <= 2**20 differ by at least 1 / (q q') >= 2**-40, and
    floats up to Q / 2 <= n / 2 <= 2**10 are spaced by at most 2**-42. A larger
    node still searches (below 2**21 rows its integers fit an int64); two of
    its ratios closer than a float's spacing compare equal, and the tie rule
    picks between them.
    """
    n = np.array([len(rows) for rows, _, _ in nodes])[:, None, None]  # (K, 1, 1)
    rows = np.full((len(nodes), n.max()), keys.shape[1] - 1)  # (K, N)
    for k, (r, _, _) in enumerate(nodes):
        rows[k, :len(r)] = r
    totals = np.zeros((len(nodes), n_classes + 1), np.int64)  # a padding row's class counts 0
    totals[:, :-1] = [t for _, t, _ in nodes]
    features = np.array([f for _, _, f in nodes])  # (K, f)
    # Sorted keys order each column by value and a tie by class; a valid split
    # lies between two ranks, so its prefix class counts do not see tie order.
    cb = n_classes.bit_length()  # a key's class bits, _rank_keys' b
    s = np.sort(np.take(keys, features[:, :, None] * keys.shape[1] + rows[:, None, :]))
    ys = (s & ((1 << cb) - 1)).astype(np.intp)  # (K, f, N) classes, n_classes for padding
    # occ: each row's count of its own class up to it. One cumsum counts every class
    # at once in b-bit fields of an int64 word (a count is at most N < 2**b); a node
    # too long for one word per class set takes one word per group of classes. A
    # row of another word, or padding, adds 0 to the word and reads 0 from it.
    b = rows.shape[1].bit_length()
    per_word = 63 // b
    cls = np.arange(n_classes + 1)  # the classes, then padding
    slot = b * (cls % per_word)  # the lowest bit of a class's count in its word
    occ, words = 0, []  # the words are kept: they hold each split's left class counts
    for w in range(-(-n_classes // per_word)):
        mine = (cls // per_word == w) & (cls < n_classes)
        words.append(np.cumsum(np.take(np.where(mine, 1 << slot, 0), ys), axis=2))
        occ = occ + ((words[-1] >> np.take(np.where(mine, slot, 63), ys)) & ((1 << b) - 1))
    # C and S, the prefix sums of occ and of each row's class total T_c
    total = np.take(totals, ys + np.arange(0, totals.size, n_classes + 1)[:, None, None])
    if rows.shape[1] < 1 << 16:  # C < 2**31 and S < 2**32 share one word, C << 32 | S
        occ <<= 32
        occ |= total
        sums = np.cumsum(occ, axis=2, out=occ)[..., :-1]
        own, total = sums >> 32, np.bitwise_and(sums, 0xFFFFFFFF, out=total[..., :-1])
    else:
        own, total = (np.cumsum(a, axis=2)[..., :-1] for a in (occ, total))
    ln = np.arange(1, rows.shape[1])  # split after position i-1 -> left size i
    rn = n - ln  # <= 0 only where a node is padded
    own *= n  # the numerator n C + ln (P - S), in place
    own -= np.multiply(total, ln, out=total)
    own += ln * ((totals * (totals - 1)).sum(axis=1)[:, None, None] // 2)
    q = own / np.where((ln >= min_leaf) & (rn >= min_leaf), ln * rn, np.inf)
    q *= (s[..., 1:] ^ s[..., :-1]) >= 1 << cb  # a valid Q / 2 is at least 1/2, others 0
    # each node's first maximum in row-major order: the lowest feature, then threshold
    j, i = np.divmod(q.reshape(len(nodes), -1).argmax(axis=1), rows.shape[1] - 1)
    k = np.arange(len(nodes))
    f = features[k, j]
    low, high = values[s[k, j, i] >> cb, f], values[s[k, j, i + 1] >> cb, f]
    mid = (low + high) / 2.0
    threshold = np.where((low <= mid) & (mid < high), mid, low)
    left = (np.stack([word[k, j, i] for word in words])[cls[:-1] // per_word]
            >> slot[:-1, None]) & ((1 << b) - 1)  # (n_classes, K)
    return [(int(f[k]), float(threshold[k]), left[:, k]) if q[k, j[k], i[k]] > 0 else None
            for k in range(len(nodes))]


def _grow_trees(X, y, n_classes, max_depth, min_leaf, roots, max_features=None) -> dict:
    """Flat node arrays of one tree per (generator, root row indices) pair.

    A node is [feature, threshold, left, right, class counts], with -1 for a
    leaf's feature and links. A tree grows in preorder from its stack of (rows,
    class counts, depth, parent slot), drawing max_features candidate columns
    per node from its own generator (all columns when it has none), so it is
    the same tree alone or in a group. _GROUP trees grow in lockstep: each pops
    nodes until one needs a split search, and one _best_splits call serves
    them all and gives each split's left class counts.
    """
    d = X.shape[1]
    keys, values = _rank_keys(X, y, n_classes)
    trees = [([], [(rows, np.bincount(y[rows], minlength=n_classes), 0, None)], rng)
             for rng, rows in roots]  # (nodes, stack, generator)
    for g in range(0, len(trees), _GROUP):
        while True:
            pending, searches = [], []  # (nodes, stack, index, depth) and (rows, counts, columns)
            for nodes, stack, rng in trees[g:g + _GROUP]:
                while stack:
                    rows, counts, depth, slot = stack.pop()
                    if slot:  # (parent index, 2 for its left link or 3 for its right)
                        nodes[slot[0]][slot[1]] = len(nodes)
                    nodes.append([-1, 0.0, -1, -1, counts])
                    pure = counts.max() == len(rows)
                    deep = max_depth is not None and depth >= max_depth
                    if pure or deep or len(rows) < 2 * min_leaf:
                        continue
                    features = np.arange(d) if rng is None else np.sort(
                        rng.choice(d, size=max_features, replace=False))
                    pending.append((nodes, stack, len(nodes) - 1, depth))
                    searches.append((rows, counts, features))
                    break
            if not searches:
                break
            splits = _best_splits(keys, values, n_classes, searches, min_leaf)
            for (nodes, stack, index, depth), (rows, counts, _), best in zip(
                    pending, searches, splits):
                if best is not None:
                    nodes[index][:2] = best[:2]
                    mask = X[rows, best[0]] <= best[1]
                    stack += [(rows[~mask], counts - best[2], depth + 1, (index, 3)),
                              (rows[mask], best[2], depth + 1, (index, 2))]
    sizes = [len(nodes) for nodes, _, _ in trees]
    feature, threshold, left, right, counts = map(
        np.array, zip(*[node for nodes, _, _ in trees for node in nodes]))
    starts = np.cumsum([0] + sizes[:-1])
    shift = np.where(feature >= 0, np.repeat(starts, sizes), 0)  # tree links -> array indices
    return {"feature": feature, "threshold": threshold, "left": left + shift,
            "right": right + shift, "probs": counts / counts.sum(axis=1, keepdims=True),
            "roots": starts}


def _scoring_arrays(algorithm: str, p: dict, n_classes: int) -> dict:
    """The arrays scores() derives from a model's parameters alone.

    knn, tree and forest: rows, the score row of each voter: a training
    row's one-hot class, a tree node's class frequencies (probs itself) or a
    forest node's one-hot class (first argmax). knn: the squared norm of each
    training row. Trees: a (2, m) child table, the left and the right child
    of an inner node and the node itself twice for a leaf; the feature
    indices with a leaf's -1 made 0; and the depth of the deepest leaf.
    gnb: the log(2 pi var) term of its log-likelihood."""
    if algorithm == "gnb":
        with np.errstate(over="ignore"):  # an infinite term gives a refused score
            return {"log_2pi_vars": np.log(2.0 * math.pi * p["vars"])}
    if algorithm == "knn":
        with np.errstate(over="ignore"):  # an infinite norm makes its row a candidate
            return {"sq_norms": (p["X"] * p["X"]).sum(axis=1), "rows": np.eye(n_classes)[p["y"]]}
    if algorithm == "logreg":
        return {}
    inner = p["feature"] >= 0
    m = len(inner)
    child = np.where(inner, np.stack([p["left"], p["right"]]), np.arange(m))
    depth, level = 0, p["roots"]
    while inner[level].any():  # each node has one parent, so no level repeats a node
        level = child[:, level[inner[level]]].ravel()
        depth += 1
    rows = p["probs"] if algorithm == "tree" else np.eye(n_classes)[p["probs"].argmax(axis=1)]
    return {"child": child, "feature": np.maximum(p["feature"], 0), "depth": depth, "rows": rows}


_LEAF_TABLE_CELLS = 1 << 18  # cells of the next-node table of one block of rows


def _leaves(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """(n, n_trees) leaf reached by every (row, tree) pair.

    A block of rows makes every node's decision in one compare, as the
    (rows, m) next-node table child[x[feature] > threshold, node], of at most
    _LEAF_TABLE_CELLS cells. All pairs then move down one level per step, in
    exactly the forest's depth steps, each step one gather from the table; a
    leaf's child is itself. Rows must be finite, so > is the complement of
    <=: a value equal to the threshold goes left.
    """
    s, threshold, roots = model.scoring, model.parameters["threshold"], model.parameters["roots"]
    m = len(threshold)
    block = max(1, _LEAF_TABLE_CELLS // m)
    leaves = np.empty((len(X), len(roots)), dtype=np.intp)
    for start in range(0, len(X), block):
        rows = X[start:start + block]
        offsets = np.arange(0, len(rows) * m, m)[:, None]  # where each row's table starts
        table = np.where(rows[:, s["feature"]] > threshold, s["child"][1], s["child"][0])
        table += offsets
        table = table.ravel()
        node = roots + offsets
        for _ in range(s["depth"]):
            node = table[node]
        leaves[start:start + block] = node - offsets
    return leaves


# --- logistic regression ------------------------------------------------------


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _logreg_grad(probs, W, X, T, l2):
    """(dW, db) of the loss mean cross-entropy + 0.5*l2*||W||^2 of the logits
    X @ W.T + b, from the softmax probabilities of X's rows (overwritten) and
    their one-hot targets T. Every array may carry a leading fit axis: one
    fit's rows, weights and targets per slice, each slice giving the bytes it
    gives alone."""
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


def class_sizes(table: FeatureTable, least: int):
    """(y, classes, sizes): each row's index in classes, the classes of the labels
    in GaitLabel order and their row counts. The one refusal of too little data: an
    unlabeled row raises ValueError, fewer than 2 classes or a class of fewer than
    ``least`` rows InsufficientDataError, naming the smallest class."""
    present = set(table.labels)
    classes = tuple(label for label in GaitLabel if label in present)
    y = table.class_indices(classes)
    if len(classes) < 2:
        raise InsufficientDataError(f"need at least 2 classes, got {len(classes)}")
    sizes = np.bincount(y, minlength=len(classes))
    if (n := int(sizes.min())) < least:
        raise InsufficientDataError(f"class {classes[int(sizes.argmin())].value} has only "
                                    f"{n} item{'s' * (n != 1)}, need at least {least}")
    return y, classes, sizes


def _training_rows(table: FeatureTable):
    """(X, y, classes): the rows to fit and class_sizes(table, 2)'s y and classes;
    a non-finite row raises ValueError."""
    bad = np.flatnonzero(~np.isfinite(table.X).all(axis=1))
    if len(bad):
        raise ValueError(f"feature row {bad[0]} ({table.source_ids[bad[0]]!r}) is not finite")
    y, classes, _ = class_sizes(table, 2)
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
    knn, tree and forest average the score rows of a row's voters: its k
    nearest training rows, or the leaf it reaches in each tree. gnb and logreg
    take the softmax of its logits. A row whose knn distances or logits
    overflow raises UnscorableRow, a ValueError; trees only compare values."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != N_VIDEO_FEATURES:
        raise ValueError(f"expected an (n, {N_VIDEO_FEATURES}) feature matrix, got {X.shape}")
    if len(X) and fingerprint != model.schema_fingerprint:  # an empty X fits any schema
        raise SchemaMismatch(model.schema_fingerprint, fingerprint)
    if not np.isfinite(X).all():
        raise ValueError("the feature matrix holds non-finite values")
    p, s = model.parameters, model.scoring
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by its row
        if "rows" in s:  # a sum of one-hot rows is an exact count, and a tree's x / 1 is x
            voters = (_nearest(model, _standardize(X, p)) if model.algorithm == "knn"
                      else _leaves(model, X))
            return s["rows"][voters].sum(axis=1) / voters.shape[1]
        if model.algorithm == "gnb":
            logits = p["log_priors"] - 0.5 * (
                s["log_2pi_vars"] + (X[:, None, :] - p["means"]) ** 2 / p["vars"]).sum(axis=2)
        else:  # logreg: each slice is the matrix-vector W @ xs of its row alone, so a
            # row has the same bytes in any batch; one Xs @ W.T GEMM rounds otherwise
            logits = (p["W"] @ _standardize(X, p)[:, :, None])[:, :, 0] + p["b"]
        finite = np.isfinite(logits).all(axis=1)
        if not finite.all():
            raise UnscorableRow(int(np.argmin(finite)), "class scores")
        return softmax(logits)


# Slack of the bound on a squared knn distance, relative to ||x||^2 + ||q||^2
# and absolute, and the bound from which a row's exact distance may overflow.
_KNN_REL = 8 * (N_VIDEO_FEATURES + 4) * 2.0**-53
_KNN_ABS = 8 * (N_VIDEO_FEATURES + 4) * 2.0**-1074
_KNN_LIMIT = 2.0**1000


def _nearest(model: TrainedModel, Xs: np.ndarray) -> np.ndarray:
    """(n, k) indices of the k nearest training rows of each standardized row,
    by d = sqrt(((X - xs) ** 2).sum(axis=1)) and its stable argsort (distance
    ties go to the lower index); UnscorableRow names the first row with a
    non-finite d.

    Each query bounds every squared distance from one GEMM, then computes d
    exactly only for the candidate rows the bound cannot rule out.

    The bound. Let n = 226, u = 2**-53 and gamma_n = n u / (1 - n u). For a
    training row x and a query q let A = ||x||^2, B = ||q||^2 and
    D = ||x - q||^2 exactly, and S the computed ((x - q) ** 2).sum(). A
    computed dot product of n terms is off by at most gamma_n times the sum of
    its terms' magnitudes, in any summation order and with or without FMA
    (Higham 2002, ch. 3). So N = ||x||^2 (built once per model), Nq = ||q||^2
    and P = x.q satisfy |N - A| <= gamma_n A, |Nq - B| <= gamma_n B and
    |P - x.q| <= gamma_n (A + B) / 2, and G = (N + Nq) - 2P adds two roundings
    of at most 2u (1 + gamma_n)(A + B) each: |G - D| <= (2 gamma_n + 4u)(A + B)
    to first order. S rounds each difference and square and sums n
    nonnegative terms, so |S - D| <= gamma_{n+2} D <= 2 gamma_{n+2} (A + B).
    Together |S - G| <= (4n + 8) u (A + B) to first order. E = _KNN_REL (N + Nq)
    is twice that, which covers the second-order terms, N + Nq in place of
    A + B and the rounding of E and of G +- E. An underflowing product is off
    by at most 2**-1075 more (a subnormal sum or difference is exact), 5n of
    them in all, which _KNN_ABS covers. Hence lo = G - E <= S <= G + E = hi
    whenever N, Nq and P are finite, which they are when no partial sum
    overflowed.

    The candidates. sqrt rounds monotonically, so sqrt(lo) <= d <= sqrt(hi).
    Let t be the k-th smallest sqrt(hi) of a query. A row with sqrt(lo) > t
    has k rows whose d <= t is strictly below its own, so they precede it
    whatever their indices, and it is not among the k nearest. Every other
    row is a candidate: this comparison is made after sqrt, so rows whose
    different S tie after sqrt are kept. The candidates' exact d, in index
    order, through the stable argsort give the k nearest in the order of the
    full computation.

    Overflow. A row whose hi is not below _KNN_LIMIT (an infinite or NaN hi
    included) is always a candidate. Any other row has D <= hi < 2**1000, so
    no step of its exact d overflows. So every non-finite d is among the
    candidates', and the first query row with one raises.
    """
    X, N = model.parameters["X"], model.scoring["sq_norms"]
    k = model.hyperparameters["k"]
    M = N + (Xs * Xs).sum(axis=1)[:, None]
    G = M - 2.0 * (Xs @ X.T)
    E = M * _KNN_REL + _KNN_ABS
    hi = G + E
    bounded = hi < _KNN_LIMIT
    t = np.sqrt(np.partition(np.where(bounded, hi, np.inf), k - 1, axis=1)[:, k - 1:k])
    candidates = (np.sqrt(np.maximum(G - E, 0.0)) <= t) | ~bounded
    nearest = np.empty((len(Xs), k), dtype=np.intp)
    for i, xs in enumerate(Xs):
        rows = np.flatnonzero(candidates[i])
        dist = np.sqrt(((X[rows] - xs) ** 2).sum(axis=1))
        if not np.isfinite(dist).all():
            raise UnscorableRow(i, "distances")
        nearest[i] = rows[np.argsort(dist, kind="stable")[:k]]
    return nearest


class UnscorableRow(ParseError, ValueError):
    """Feature row ``row`` gives non-finite knn distances or class scores."""
    def __init__(self, row: int, what: str):
        self.row = row
        super().__init__(f"feature row {row} gives non-finite {what}; is a value far outside "
                         "the model's training range?")


def predict(model: TrainedModel, features: VideoFeatures):
    """(label, per-class score dict) of one video; label is the argmax with class-order ties."""
    row = scores(model, features.x[None, :], features.schema_fingerprint)[0]
    label = model.class_set[int(np.argmax(row))]
    return label, {c: float(s) for c, s in zip(model.class_set, row)}
