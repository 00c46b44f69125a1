"""Shared builders and independent geometry oracles for the test suite."""

import json
import math
from fractions import Fraction

import numpy as np

from gaitlab import frame_features as ff
from gaitlab.errors import DuplicateFrame, InsufficientDataError, MalformedLine, ParseError
from gaitlab.pose import GaitLabel, KeypointId, PoseSequence
from gaitlab.classify import UnscorableRow, scores, softmax
from gaitlab.video_features import FeatureTable, VideoFeatures, schema_fingerprint

# vector layout of the 113-dim frame features
LS = slice(0, 4)
HL = slice(4, 6)
US = 6
BS = 7
CD = slice(8, 22)
MD = slice(22, 113)


def sequence_from_coords(coords, frame_index=None, confidence=1.0, source_id=""):
    """A PoseSequence of (T, 14, 2) coordinates with one confidence for every joint."""
    xy = np.asarray(coords, dtype=float)
    return PoseSequence(xy, np.full(xy.shape[:2], confidence), frame_index, source_id=source_id)


def random_frame(rng, lo=0.0, hi=320.0):
    """(14, 2) coordinates of a random pose."""
    return rng.uniform(lo, hi, size=(14, 2))


def extract_frame_features(xy):
    """The 113 features of one complete (14, 2) pose, as extract_sequence
    computes them for a one-frame sequence; raises its first degeneracy."""
    features, _ = ff.extract_sequence(sequence_from_coords([xy]), skip_degenerate=False)
    return features[0]


def coords_with(overrides):
    """Generic pose with selected joints overridden; all joints distinct."""
    base = np.column_stack([np.linspace(0, 130, 14), np.linspace(0, 260, 14) % 97])
    xy = base.copy()
    for k, point in overrides.items():
        xy[k - 1] = point
    return xy


def left_arm_pose(p, a, b):
    """(14, 2) coordinates of a pose whose left shoulder is a, left wrist b and
    left elbow p: its ls1 is p's distance from the line through a and b."""
    return coords_with({KeypointId.LEFT_SHOULDER: a, KeypointId.LEFT_WRIST: b,
                        KeypointId.LEFT_ELBOW: p})


def vf_from_vector(vec, source_id="v", fingerprint=None):
    return VideoFeatures(np.asarray(vec, dtype=float).reshape(226), source_id,
                         fingerprint or schema_fingerprint())


def predicted_labels(model, videos):
    """The labels a model predicts for a list of VideoFeatures, scored as one matrix."""
    table = FeatureTable.from_rows([(vf, None) for vf in videos])
    return [model.class_set[i] for i in scores(model, table.X, table.fingerprint).argmax(axis=1)]


def serialize_sequence_oracle(seq):
    """A sequence's .kp.jsonl text built as one dict per frame through json.dumps:
    the writer that serialize_sequence's cached line formats replaced."""
    names = [k.json_name for k in KeypointId]
    lines = []
    xy, conf = seq.xy.tolist(), seq.conf.tolist()
    for t, idx in enumerate(seq.frame_index.tolist()):
        obj = {"frame": idx}
        if seq.t_ms[t] is not None:
            obj["t_ms"] = seq.t_ms[t]
        obj["kp"] = {name: [x, y, c] for name, (x, y), c in zip(names, xy[t], conf[t])
                     if not math.isnan(c)}
        lines.append(json.dumps(obj))
    return "\n".join(lines) + "\n"


def parse_keypoint_file_oracle(data, source_id=""):
    """parse_keypoint_file as one walk over the lines, checking and converting
    each line in turn: the parser that the column checks replaced."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"keypoint data is not UTF-8: {exc}") from None
    names = [k.json_name for k in KeypointId]
    absent = [math.nan] * 3
    line_nos, indices, stamps, rows, named = [], [], [], [], []
    for line_no, line in enumerate(data.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise MalformedLine(line_no, str(exc)) from None
        if not isinstance(obj, dict) or "frame" not in obj:
            raise MalformedLine(line_no, "missing 'frame' field")
        idx = obj["frame"]
        if type(idx) is not int or not 0 <= idx <= 2**63 - 1:
            raise MalformedLine(line_no, f"bad frame index {idx!r}")
        if idx in indices:
            raise DuplicateFrame(idx)
        t_ms = obj.get("t_ms")
        if not (t_ms is None or type(t_ms) is int
                or (type(t_ms) is float and math.isfinite(t_ms))):
            raise MalformedLine(line_no, f"bad t_ms {t_ms!r}")
        kp = obj.get("kp", {})
        if not isinstance(kp, dict):
            raise MalformedLine(line_no, "'kp' must be an object")
        row = []
        for name in names:
            value = kp.get(name, absent)
            if type(value) is not list or len(value) != 3:
                raise MalformedLine(line_no, f"keypoint {name!r} is not an [x, y, conf] triple")
            row += value
        if any(type(v) not in (int, float) for v in row):
            raise MalformedLine(line_no, "keypoint values must be numbers")
        try:
            rows.append([float(v) for v in row])
        except OverflowError:
            raise MalformedLine(line_no, "keypoint value beyond the float range") from None
        line_nos.append(line_no)
        indices.append(idx)
        stamps.append(t_ms)
        named.append([name in kp for name in names])
    if not indices:
        raise ParseError(f"no frames parsed from input {source_id!r}")
    for t, (row, row_named) in enumerate(zip(rows, named)):
        for j, name in enumerate(names):
            x, y, c = row[3 * j:3 * j + 3]
            if row_named[j] and not (math.isfinite(x) and math.isfinite(y) and 0.0 <= c <= 1.0):
                raise MalformedLine(line_nos[t], f"keypoint {name!r}: non-finite "
                                                 "coordinates or confidence outside [0, 1]")
    order = sorted(range(len(indices)), key=indices.__getitem__)
    values = np.array([rows[i] for i in order]).reshape(-1, 14, 3)
    return PoseSequence(values[..., :2], values[..., 2], np.array(sorted(indices), dtype=np.int64),
                        tuple(stamps[i] for i in order), source_id)


def geometry_oracle(xy):
    """frame_features._geometry computed point by point on (..., 2) vectors:
    each difference by its own subtraction, each norm by np.linalg.norm."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mid = (xy[..., ff._MID_A, :] + xy[..., ff._MID_B, :]) / 2.0
        points = np.concatenate([xy, mid], axis=-2)
        p, a = points[..., ff._POINT, :], points[..., ff._END_A, :]
        d = points[..., ff._END_B, :] - a  # every defining line, end to end
        lengths = np.hypot(d[..., 0], d[..., 1])
        cross = d[..., 0] * (p[..., 1] - a[..., 1]) - d[..., 1] * (p[..., 0] - a[..., 0])
        straight = np.abs(cross) / lengths
        u, v = d[..., [0, 1], :], d[..., [3, 2], :]  # left/right hand, right/left leg lines
        cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
        dot = u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
        angle = np.arctan2(np.abs(cross), dot)
        folded = np.minimum(angle, np.pi - angle)
        lines = np.concatenate([straight[..., :4], folded, straight[..., 4:]], axis=-1)
        central = np.linalg.norm(xy - xy.mean(axis=-2, keepdims=True), axis=-1)
        mutual = np.linalg.norm(xy[..., ff._PAIR_I, :] - xy[..., ff._PAIR_J, :], axis=-1)
    return lines, lengths, central, mutual


# --- slope-intercept oracles (independent of the cross-product code path) ----


def slope_distance_oracle(p, a, b):
    """Point-line distance via slope and y-intercept; undefined for vertical lines."""
    m = (a[1] - b[1]) / (a[0] - b[0])
    c = (b[1] * a[0] - b[0] * a[1]) / (a[0] - b[0])
    return abs(m * p[0] + c - p[1]) / math.sqrt(m * m + 1)


def us_direct_oracle(xy):
    """Upper-body straightness via the coordinate-sum slope formula."""
    rl, rr, sl, sr = xy[0], xy[1], xy[2], xy[3]
    hl, hr = xy[8], xy[9]
    den = rl[0] + rr[0] - hl[0] - hr[0]
    m = (rl[1] + rr[1] - hl[1] - hr[1]) / den
    c = ((rl[0] + rr[0]) * (hl[1] + hr[1]) - (hl[0] + hr[0]) * (rl[1] + rr[1])) / den
    return 0.5 * abs(m * (sl[0] + sr[0]) + c - (sl[1] + sr[1])) / math.sqrt(1 + m * m)


def bs_direct_oracle(xy):
    """Body straightness via the coordinate-sum slope formula."""
    sl, sr = xy[2], xy[3]
    hl, hr = xy[8], xy[9]
    al, ar = xy[12], xy[13]
    den = sl[0] + sr[0] - al[0] - ar[0]
    m = (sl[1] + sr[1] - al[1] - ar[1]) / den
    c = ((sl[0] + sr[0]) * (al[1] + ar[1]) - (al[0] + ar[0]) * (sl[1] + sr[1])) / den
    return 0.5 * abs(m * (hl[0] + hr[0]) + c - (hl[1] + hr[1])) / math.sqrt(1 + m * m)


# defining lines of each line family, (name, end, end); an end is a 1-based
# joint number or a pair of them, whose midpoint it is
_K = KeypointId
_FAMILY_LINES = {
    "limb": (("left-hand", _K.LEFT_SHOULDER, _K.LEFT_WRIST),
             ("right-hand", _K.RIGHT_SHOULDER, _K.RIGHT_WRIST),
             ("left-leg", _K.LEFT_HIP, _K.LEFT_ANKLE),
             ("right-leg", _K.RIGHT_HIP, _K.RIGHT_ANKLE)),
    "hand-leg": (("left-hand", _K.LEFT_SHOULDER, _K.LEFT_WRIST),
                 ("right-leg", _K.RIGHT_HIP, _K.RIGHT_ANKLE),
                 ("right-hand", _K.RIGHT_SHOULDER, _K.RIGHT_WRIST),
                 ("left-leg", _K.LEFT_HIP, _K.LEFT_ANKLE)),
    "upper-body": (("upper-body axis", (_K.LEFT_EAR, _K.RIGHT_EAR), (_K.LEFT_HIP, _K.RIGHT_HIP)),),
    "body": (("body axis", (_K.LEFT_SHOULDER, _K.RIGHT_SHOULDER),
              (_K.LEFT_ANKLE, _K.RIGHT_ANKLE)),),
}


def line_lengths_oracle(pose, family):
    """[(name, length)] of a line family's defining lines in one pose (14 [x, y]
    pairs), computed in plain Python; family is limb, hand-leg, upper-body or body."""
    def point(end):
        if isinstance(end, tuple):
            (ax, ay), (bx, by) = pose[end[0] - 1], pose[end[1] - 1]
            return (ax + bx) / 2.0, (ay + by) / 2.0
        return pose[end - 1]

    lengths = []
    for name, a, b in _FAMILY_LINES[family]:
        (ax, ay), (bx, by) = point(a), point(b)
        lengths.append((name, math.hypot(bx - ax, by - ay)))
    return lengths


def distance_maxima_oracle(pose):
    """(largest centroid distance, largest pairwise distance) of one pose, in plain Python."""
    cx = sum(x for x, _ in pose) / len(pose)
    cy = sum(y for _, y in pose) / len(pose)
    central = max(math.hypot(x - cx, y - cy) for x, y in pose)
    mutual = max(math.hypot(bx - ax, by - ay) for i, (ax, ay) in enumerate(pose)
                 for bx, by in pose[i + 1:])
    return central, mutual


def make_separable_items(rng, n_per_class=10, labels=(GaitLabel.NORMAL, GaitLabel.PARKINSON)):
    """Classes with disjoint feature ranges (centers 12 apart, noise 0.1)."""
    items = []
    for c, label in enumerate(labels):
        center = 12.0 * c
        for i in range(n_per_class):
            vec = center + rng.normal(0.0, 0.1, size=226)
            items.append((vf_from_vector(vec, f"{label.value}_{i}"), label))
    return items


def task_rows_oracle(task, labels):
    """evaluate.task_rows in plain Python: (mask, None) for a usable task, or
    (None, (error type, message)) for a refused one."""
    order = ["Choreiform", "Diplegia", "Hemiplegia", "Normal", "Parkinson"]
    if task == "multi":
        keep = order
    elif task.startswith("binary:"):
        name = task[len("binary:"):]
        matches = [value for value in order if value.lower() == name.strip().lower()]
        if not matches:
            return None, (ValueError, f"unknown gait label {name!r}")
        if matches[0] == "Normal":
            return None, (ValueError, f"task {task!r} compares Normal with itself")
        keep = [matches[0], "Normal"]
    else:
        return None, (ValueError, f"unknown task {task!r}")
    values = [None if label is None else label.value for label in labels]
    found = [value for value in keep if values.count(value) > 0]
    if len(found) < 2:
        return None, (InsufficientDataError,
                      f"task {task!r} needs rows of at least 2 of its labels "
                      f"({', '.join(keep)}), found {', '.join(found) if found else 'none'}")
    return [task == "multi" or value in keep for value in values], None


def fold_refusal_oracle(sizes, folds, split):
    """The too-little-data line of evaluate.run_task (split=True) or
    cross_validate (split=False) for a table with ``sizes[label]`` rows of
    each of two or more labels, in GaitLabel order, in plain Python; None for a
    usable table. A class of n rows keeps floor(3n/4) to train under split,
    then deals them round-robin to the folds; it is too small when some fold
    has no test row of it or leaves fewer than 2 training rows of it. The line
    names the smallest class, and the least class size is the first usable n."""
    def usable(n):
        kept = 3 * n // 4 if split else n
        test = [len(range(f, kept, folds)) for f in range(folds)]
        return all(t > 0 and kept - t >= 2 for t in test)

    if all(usable(n) for n in sizes.values()):
        return None
    least = next(n for n in range(1, 10 * folds) if usable(n))
    smallest = min(sizes, key=lambda label: sizes[label])
    return f"class {smallest.value} has only {sizes[smallest]} items, need at least {least}"


def tree_leaf_oracle(params, root, x):
    """Class frequencies at the leaf that one tree of a flat node-array model
    (``feature``, ``threshold``, ``left``, ``right``, ``probs``) sends x to,
    walked node by node in plain Python."""
    node = int(root)
    while int(params["feature"][node]) >= 0:
        f = int(params["feature"][node])
        side = "left" if float(x[f]) <= float(params["threshold"][node]) else "right"
        node = int(params[side][node])
    return [float(p) for p in params["probs"][node]]


def best_split_oracle(X, y, n_classes, features, min_leaf):
    """(feature, threshold, weighted Gini) of the best split of rows X (n, d)
    with class indices y over the columns ``features``, scanned in plain
    Python; None when no split leaves min_leaf rows on each side.

    A split puts the rows with x[f] <= threshold on the left, at the midpoint
    of two adjacent distinct values, or at the lower value where the midpoint
    rounds onto the upper one or overflows. The weighted Gini is an exact
    ``Fraction``, so two splits tie only when their Gini values are equal.
    Scanning features in order and thresholds upward, keeping only a strictly
    lower value, gives the tie rules: the lowest feature index, then the
    lowest threshold.
    """
    n = len(y)
    best = None
    for f in features:
        values = sorted({float(row[f]) for row in X})
        for low, high in zip(values, values[1:]):
            left = [int(c) for row, c in zip(X, y) if float(row[f]) <= low]
            right = [int(c) for row, c in zip(X, y) if float(row[f]) > low]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            impurity = [1 - sum(Fraction(side.count(c), len(side)) ** 2
                                for c in range(n_classes))
                        for side in (left, right)]
            weighted = (len(left) * impurity[0] + len(right) * impurity[1]) / n
            if best is None or weighted < best[2]:
                mid = (low + high) / 2.0
                best = (int(f), mid if low <= mid < high else low, weighted)
    return best


def forest_vote_oracle(model, x):
    """Per-class count of the forest's trees whose leaf class (first argmax) it is."""
    votes = [0] * len(model.class_set)
    for root in model.parameters["roots"]:
        probs = tree_leaf_oracle(model.parameters, root, x)
        votes[probs.index(max(probs))] += 1
    return votes


def tree_scores_oracle(model, X):
    """scores() of a tree or forest model, each row walked down each tree in
    plain Python: the leaf's class frequencies for a tree, and for a forest
    the share of its trees whose leaf class (first argmax) each class is."""
    roots = model.parameters["roots"]
    if model.algorithm == "tree":
        return np.array([tree_leaf_oracle(model.parameters, roots[0], x) for x in X])
    return np.array([[v / len(roots) for v in forest_vote_oracle(model, x)] for x in X])


def knn_brute_force_oracle(items, query: VideoFeatures, k: int) -> GaitLabel:
    """Exhaustive O(N*d) kNN scan in plain Python, used to validate predict().

    Applies the same z-scoring as the production path (recomputed here with
    elementary loops, std floored at 1e-9), then sorts by (distance, training
    index) and breaks vote ties by class order.
    """
    if k > len(items):
        raise ValueError("k exceeds training set size")
    vectors = [list(map(float, vf.vector())) for vf, _ in items]
    labels = [label for _, label in items]
    classes = [label for label in GaitLabel if label in set(labels)]
    d = len(vectors[0])
    n = len(vectors)

    means, stds = [], []
    for j in range(d):
        col = [v[j] for v in vectors]
        mu = sum(col) / n
        var = sum((v - mu) ** 2 for v in col) / n
        means.append(mu)
        stds.append(max(math.sqrt(var), 1e-9))

    def z(vec):
        return [(vec[j] - means[j]) / stds[j] for j in range(d)]

    q = z(list(map(float, query.vector())))
    scored = []
    for i, vec in enumerate(vectors):
        zi = z(vec)
        dist = math.sqrt(sum((zi[j] - q[j]) ** 2 for j in range(d)))
        scored.append((dist, i))
    scored.sort()  # distance ties broken by lower training index
    votes = {c: 0 for c in classes}
    for _, i in scored[:k]:
        votes[labels[i]] += 1
    return max(classes, key=lambda c: (votes[c], -classes.index(c)))


def knn_scores_oracle(model, X):
    """scores() of a knn model by every training row's distance in full, one
    query at a time, and the stable argsort: the form the bound-and-refine
    search replaced. A row with a non-finite distance raises UnscorableRow."""
    p, k = model.parameters, model.hyperparameters["k"]
    with np.errstate(over="ignore", invalid="ignore"):
        Xs = (np.asarray(X, dtype=float) - p["mean"]) / p["std"]
        dist = np.array([np.sqrt(((p["X"] - xs) ** 2).sum(axis=1)) for xs in Xs])
    dist = dist.reshape(len(Xs), len(p["X"]))
    finite = np.isfinite(dist).all(axis=1)
    if not finite.all():
        raise UnscorableRow(int(np.argmin(finite)), "distances")
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return (p["y"][nearest][:, :, None] == np.arange(len(model.class_set))).mean(axis=1)


def logreg_scores_oracle(model, X):
    """scores() of a logreg model one row at a time: the 1-D W @ xs + b of
    each z-scored row, then softmax, the form the stacked product replaced.
    A row with a non-finite logit raises UnscorableRow."""
    p = model.parameters
    with np.errstate(over="ignore", invalid="ignore"):
        Xs = (np.asarray(X, dtype=float) - p["mean"]) / p["std"]
        logits = np.array([p["W"] @ xs + p["b"] for xs in Xs]).reshape(len(Xs), len(p["b"]))
        finite = np.isfinite(logits).all(axis=1)
        if not finite.all():
            raise UnscorableRow(int(np.argmin(finite)), "class scores")
        return softmax(logits)


def logreg_loss(W, b, X, y, l2):
    """Mean cross-entropy of the softmax of X @ W.T + b at class indices y,
    plus 0.5*l2*||W||^2: the loss that classify._logreg_grad differentiates."""
    probs = softmax(X @ W.T + b)
    eps = 1e-300  # guard the log only; probs from softmax are positive anyway
    return -np.mean(np.log(probs[np.arange(len(X)), y] + eps)) + 0.5 * l2 * np.sum(W**2)
