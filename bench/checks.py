"""Output checks for the benchmark, with oracles written in plain Python.

Each check returns a list of problems; an empty list means the output is
correct. The oracles use only the standard library: they recompute video
features from the keypoint JSONL and kNN labels from the feature CSV without
calling gaitlab, so a defect in gaitlab cannot hide in them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

KEYPOINTS = ("LeftEar", "RightEar", "LeftShoulder", "RightShoulder", "LeftElbow",
             "RightElbow", "LeftWrist", "RightWrist", "LeftHip", "RightHip",
             "LeftKnee", "RightKnee", "LeftAnkle", "RightAnkle")
LABELS = ("Choreiform", "Diplegia", "Hemiplegia", "Normal", "Parkinson")

# 0-based keypoint indices: (middle joint, line end, line end) per limb
_LIMBS = ((4, 2, 6), (5, 3, 7), (10, 8, 12), (11, 9, 13))
# (shoulder, wrist) of one arm with (hip, ankle) of the opposite leg
_ARM_LEG = ((2, 6, 9, 13), (3, 7, 8, 12))
_EPS = 1e-9
MIN_CONFIDENCE = 0.05
FEATURE_TOL = 1e-12  # relative to max(1, |value|)
SCORE_TOL = 1e-9

# sha256 of the eval-multi report on the default corpus at seed 42
EVAL_REPORT_SHA256_SEED42 = "3644ae06cd40bdd00b701ab3e97c95040f2b405220b4645734fb8a495636d696"


class Degenerate(Exception):
    pass


def _line_distance(p, a, b):
    dx, dy = b[0] - a[0], b[1] - a[1]
    norm = math.hypot(dx, dy)
    if norm < _EPS:
        raise Degenerate
    return abs(dx * (p[1] - a[1]) - dy * (p[0] - a[0])) / norm


def _line_angle(u, v):
    if math.hypot(*u) < _EPS or math.hypot(*v) < _EPS:
        raise Degenerate
    angle = math.atan2(abs(u[0] * v[1] - u[1] * v[0]), u[0] * v[0] + u[1] * v[1])
    return min(angle, math.pi - angle)


def _mid(pts, i, j):
    return ((pts[i][0] + pts[j][0]) / 2.0, (pts[i][1] + pts[j][1]) / 2.0)


def _normalized(values):
    top = max(values)
    if top < _EPS:
        raise Degenerate
    return [v / top for v in values]


def frame_features(pts):
    """The 113 frame features of 14 (x, y) points, in the published order."""
    out = [_line_distance(pts[m], pts[a], pts[b]) for m, a, b in _LIMBS]
    for s, w, h, k in _ARM_LEG:
        out.append(_line_angle((pts[w][0] - pts[s][0], pts[w][1] - pts[s][1]),
                               (pts[k][0] - pts[h][0], pts[k][1] - pts[h][1])))
    out.append(_line_distance(_mid(pts, 2, 3), _mid(pts, 0, 1), _mid(pts, 8, 9)))
    out.append(_line_distance(_mid(pts, 8, 9), _mid(pts, 2, 3), _mid(pts, 12, 13)))
    cx = math.fsum(p[0] for p in pts) / len(pts)
    cy = math.fsum(p[1] for p in pts) / len(pts)
    out += _normalized([math.hypot(x - cx, y - cy) for x, y in pts])
    out += _normalized([math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
                        for i in range(14) for j in range(i + 1, 14)])
    return out


def video_features(jsonl: bytes):
    """226 values (113 means, 113 population stds) of one keypoint JSONL clip."""
    frames = {}
    for line in jsonl.decode("utf-8").splitlines():
        if line.strip():
            obj = json.loads(line)
            frames[obj["frame"]] = obj["kp"]
    rows = []
    for index in sorted(frames):
        kp = frames[index]
        if all(name in kp and kp[name][2] >= MIN_CONFIDENCE for name in KEYPOINTS):
            try:
                rows.append(frame_features([(kp[n][0], kp[n][1]) for n in KEYPOINTS]))
            except Degenerate:
                pass
    n = len(rows)
    means = [math.fsum(col) / n for col in zip(*rows)]
    stds = [math.sqrt(math.fsum((v - mu) ** 2 for v in col) / n)
            for col, mu in zip(zip(*rows), means)]
    return means + stds


def read_features_csv(path):
    """(source_id, label, values) rows of a feature CSV, parsed with the csv module."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(row[0], row[1], [float(v) for v in row[2:]]) for row in reader]


def check_features(rows, labels: dict, clips: dict) -> list[str]:
    """Rows must be finite 226-vectors, one per expected video, with the
    manifest's label; the videos in ``clips`` (source_id -> JSONL bytes) must
    match the plain-Python recomputation."""
    problems = []
    if sorted(sid for sid, _, _ in rows) != sorted(labels):
        problems.append(f"expected rows for {len(labels)} videos, got {len(rows)}")
    by_id = {}
    for sid, label, values in rows:
        by_id[sid] = values
        if len(values) != 226 or not all(math.isfinite(v) for v in values):
            problems.append(f"{sid}: not 226 finite values")
        if labels.get(sid) != label:
            problems.append(f"{sid}: label {label!r}, manifest says {labels.get(sid)!r}")
    for sid, jsonl in clips.items():
        got = by_id.get(sid)
        if got is None:
            continue
        want = video_features(jsonl)
        bad = [i for i, (g, w) in enumerate(zip(got, want))
               if not abs(g - w) <= FEATURE_TOL * max(1.0, abs(w))]
        if len(got) != len(want) or bad:
            problems.append(f"{sid}: {len(bad)} features differ from the oracle")
    return problems


def check_report(report: bytes, expected_sha256: str | None) -> list[str]:
    """An eval report must cover the five algorithms with accuracies in [0, 1]
    and, when a digest is pinned for this input, hash to it."""
    problems = []
    doc = json.loads(report)
    algos = sorted(r["algorithm"] for r in doc["reports"])
    if algos != sorted(("knn", "tree", "forest", "gnb", "logreg")):
        problems.append(f"report covers {algos}")
    for r in doc["reports"]:
        if not all(0.0 <= r[k] <= 1.0 for k in ("cv_accuracy", "test_accuracy")):
            problems.append(f"{r['algorithm']}: accuracy out of range")
    digest = hashlib.sha256(report).hexdigest()
    if expected_sha256 is not None and digest != expected_sha256:
        problems.append(f"report sha256 {digest}, expected {expected_sha256}")
    return problems


def check_prediction(label: str, scores: list[float], classes: list[str]) -> list[str]:
    """The label must be the first argmax of finite scores that sum to 1."""
    if len(scores) != len(classes) or not all(math.isfinite(s) for s in scores):
        return [f"scores {scores} are not {len(classes)} finite values"]
    if abs(math.fsum(scores) - 1.0) > SCORE_TOL:
        return [f"scores sum to {math.fsum(scores)}"]
    best = classes[scores.index(max(scores))]
    if label != best:
        return [f"label {label}, argmax of scores is {best}"]
    return []


class KnnOracle:
    """Brute-force kNN over a feature CSV: z-score with population std
    (floored at 1e-9), sort by (distance, training index), vote, and break
    vote ties by class order."""

    def __init__(self, rows, k: int):
        self.k = k
        self.labels = [label for _, label, _ in rows]
        self.classes = [c for c in LABELS if c in set(self.labels)]
        vectors = [values for _, _, values in rows]
        n = len(vectors)
        self.means = [math.fsum(col) / n for col in zip(*vectors)]
        self.stds = [max(math.sqrt(math.fsum((v - mu) ** 2 for v in col) / n), 1e-9)
                     for col, mu in zip(zip(*vectors), self.means)]
        self.train = [self._z(v) for v in vectors]

    def _z(self, vector):
        return [(v - mu) / sd for v, mu, sd in zip(vector, self.means, self.stds)]

    def predict(self, vector) -> tuple[str, list[float]]:
        """(label, vote shares in class order) of one feature vector."""
        q = self._z(vector)
        nearest = sorted((math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(row, q))), i)
                         for i, row in enumerate(self.train))[: self.k]
        votes = {c: 0 for c in self.classes}
        for _, i in nearest:
            votes[self.labels[i]] += 1
        label = max(self.classes, key=lambda c: (votes[c], -self.classes.index(c)))
        return label, [votes[c] / self.k for c in self.classes]


def check_knn(label: str, scores: list[float], oracle: KnnOracle, vector) -> list[str]:
    """A kNN prediction must match the brute-force label and vote shares."""
    want_label, want_scores = oracle.predict(vector)
    if label != want_label or any(abs(a - b) > SCORE_TOL for a, b in zip(scores, want_scores)):
        return [f"kNN says {label} {scores}, brute force says {want_label} {want_scores}"]
    return []
