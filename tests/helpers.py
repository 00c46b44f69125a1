"""Shared builders and independent geometry oracles for the test suite."""

import json
import math

import numpy as np

from gaitlab.pose import GaitLabel, KeypointId, PoseSequence
from gaitlab.classify import scores
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
    of two adjacent distinct values. The Gini arithmetic is the production
    one (squared class shares summed class by class from 0.0), so the weighted
    Gini values agree bit for bit. Scanning features in order and thresholds
    upward, keeping only a strictly lower value, gives the tie rules: the
    lowest feature index, then the lowest threshold.
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
            impurity = []
            for side in (left, right):
                sum_sq = 0.0
                for c in range(n_classes):
                    share = side.count(c) / float(len(side))
                    sum_sq += share * share
                impurity.append(1.0 - sum_sq)
            weighted = (len(left) * impurity[0] + len(right) * impurity[1]) / n
            if best is None or weighted < best[2]:
                best = (int(f), (low + high) / 2.0, weighted)
    return best


def forest_vote_oracle(model, x):
    """Per-class count of the forest's trees whose leaf class (first argmax) it is."""
    votes = [0] * len(model.class_set)
    for root in model.parameters["roots"]:
        probs = tree_leaf_oracle(model.parameters, root, x)
        votes[probs.index(max(probs))] += 1
    return votes


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
