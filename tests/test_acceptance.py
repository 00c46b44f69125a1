"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line and asserting its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
from dataclasses import replace
import subprocess
import sys
import time

import numpy as np
import pytest

from gaitlab import classify, evaluate
from gaitlab import frame_features as ffmod
from gaitlab.pose import GaitLabel, KeypointId
from gaitlab.synth import default_params, generate, generate_corpus
from gaitlab.video_features import FeatureTable, aggregate, featurize_sequence

from helpers import (
    BS,
    CD,
    HL,
    LS,
    MD,
    US,
    bs_direct_oracle,
    forest_vote_oracle,
    knn_brute_force_oracle,
    slope_distance_oracle,
    us_direct_oracle,
    vf_from_vector,
)

CORPUS_SEED = 42
SPLIT_SEED = 0


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def corpus_table():
    corpus = generate_corpus(seed=CORPUS_SEED)
    return FeatureTable.from_rows([(featurize_sequence(seq), label) for seq, label in corpus])


def test_criterion_1_dimension_fidelity():
    start = time.perf_counter()
    seq = generate(default_params(GaitLabel.DIPLEGIA, seed=1), "dims")
    feats, failed = ffmod.extract_sequence(seq)
    video = aggregate(feats, seq.source_id)
    elapsed = time.perf_counter() - start
    ok = (
        failed == 0
        and feats.shape == (len(seq), 113)
        and video.vector().shape == (226,)
        and elapsed < 1.0
    )
    _report(1, ok, f"(113 frame dims, 226 video dims, {elapsed:.2f}s)")


def test_criterion_2_geometry_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    checked = 0
    worst = 0.0
    while checked < 1000:
        xy = rng.uniform(0, 320, (14, 2))
        # the slope-form oracles need non-vertical defining lines
        sl = xy[KeypointId.LEFT_SHOULDER - 1]
        wl = xy[KeypointId.LEFT_WRIST - 1]
        if abs(sl[0] - wl[0]) < 0.05:
            continue
        if abs(xy[0, 0] + xy[1, 0] - xy[8, 0] - xy[9, 0]) < 0.05:
            continue
        if abs(xy[2, 0] + xy[3, 0] - xy[12, 0] - xy[13, 0]) < 0.05:
            continue
        el = xy[KeypointId.LEFT_ELBOW - 1]
        ff = ffmod.extract_frame_features(xy)
        pairs = (
            (ffmod.point_line_distance(el, sl, wl), slope_distance_oracle(el, sl, wl)),
            (ff[US], us_direct_oracle(xy)),
            (ff[BS], bs_direct_oracle(xy)),
        )
        for got, expected in pairs:
            worst = max(worst, abs(got - expected) / max(abs(expected), 1e-9))
        checked += 1
    # vertical lines: slope form undefined, analytic distance known
    vertical_ok = ffmod.point_line_distance((5, 3), (2, 0), (2, 10)) == pytest.approx(3.0)
    vertical_ok &= ffmod.point_line_distance((-4, 7), (1, -5), (1, 9)) == pytest.approx(5.0)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and vertical_ok and elapsed < 5.0
    _report(2, ok, f"(1000 frames, worst rel err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_3_invariance_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(200):
        xy = rng.uniform(0, 320, (14, 2))
        base = ffmod.extract_frame_features(xy)

        shift = rng.uniform(-400, 400, 2)
        shifted = ffmod.extract_frame_features(xy + shift)
        ok &= bool(np.allclose(shifted, base, atol=1e-9, rtol=0))

        theta = rng.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        rotated = ffmod.extract_frame_features(xy @ rot.T)
        ok &= bool(np.allclose(rotated, base, rtol=1e-6, atol=1e-9))

        s = float(rng.uniform(0.2, 5.0))
        scaled = ffmod.extract_frame_features(xy * s)
        ok &= bool(np.allclose(scaled[CD], base[CD], rtol=1e-6))
        ok &= bool(np.allclose(scaled[MD], base[MD], rtol=1e-6))
        ok &= bool(np.allclose(scaled[HL], base[HL], rtol=1e-6))
        ok &= bool(np.allclose(scaled[LS], s * base[LS], rtol=1e-6, atol=1e-9))
        ok &= bool(np.isclose(scaled[US], s * base[US], rtol=1e-6, atol=1e-9))
        ok &= bool(np.isclose(scaled[BS], s * base[BS], rtol=1e-6, atol=1e-9))
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(3, ok, f"(200 frames per property, {elapsed:.2f}s)")


def test_criterion_4_split_fidelity():
    start = time.perf_counter()
    counts = {
        GaitLabel.CHOREIFORM: 51,
        GaitLabel.DIPLEGIA: 55,
        GaitLabel.HEMIPLEGIA: 70,
        GaitLabel.NORMAL: 31,
        GaitLabel.PARKINSON: 51,
    }
    labels = [label for label, n in counts.items() for _ in range(n)]
    train_rows = evaluate.stratified_split(labels, seed=SPLIT_SEED)
    train = {label: 0 for label in GaitLabel}
    test = {label: 0 for label in GaitLabel}
    for label, part in zip(labels, train_rows):
        (train if part else test)[label] += 1
    expected_train = {
        GaitLabel.CHOREIFORM: 38,
        GaitLabel.DIPLEGIA: 41,
        GaitLabel.HEMIPLEGIA: 52,
        GaitLabel.NORMAL: 23,
        GaitLabel.PARKINSON: 38,
    }
    expected_test = {
        GaitLabel.CHOREIFORM: 13,
        GaitLabel.DIPLEGIA: 14,
        GaitLabel.HEMIPLEGIA: 18,
        GaitLabel.NORMAL: 8,
        GaitLabel.PARKINSON: 13,
    }
    elapsed = time.perf_counter() - start
    ok = train == expected_train and test == expected_test and elapsed < 1.0
    _report(4, ok, f"(train {tuple(train.values())}, test {tuple(test.values())}, {elapsed:.2f}s)")


def test_criterion_5_classifier_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    ok = True

    # nearest-neighbor production path vs exhaustive pure-Python oracle
    labels = list(GaitLabel)
    items = [
        (vf_from_vector(rng.normal(0, 1, 226), f"p{i}"), labels[int(rng.integers(5))])
        for i in range(200)
    ]
    table = FeatureTable.from_rows(items)
    model = classify.train("knn", table, hyper={"k": 5})
    for vf, _ in items:
        if classify.predict(model, vf)[0] is not knn_brute_force_oracle(items, vf, 5):
            ok = False
            break

    # analytic softmax-regression gradient vs central finite differences
    n, d, c = 10, 5, 3
    X = rng.normal(size=(n, d))
    y = rng.integers(0, c, size=n)
    W = rng.normal(scale=0.5, size=(c, d))
    b = rng.normal(scale=0.5, size=c)
    _, dW, db = classify.logreg_loss_and_grad(W, b, X, y, 1e-4)
    h = 1e-5
    for idx in np.ndindex(c, d):
        Wp, Wm = W.copy(), W.copy()
        Wp[idx] += h
        Wm[idx] -= h
        numeric = (classify.logreg_loss_and_grad(Wp, b, X, y, 1e-4)[0]
                   - classify.logreg_loss_and_grad(Wm, b, X, y, 1e-4)[0]) / (2 * h)
        if abs(dW[idx] - numeric) > 1e-4 * max(abs(numeric), 1e-8):
            ok = False
    for j in range(c):
        bp, bm = b.copy(), b.copy()
        bp[j] += h
        bm[j] -= h
        numeric = (classify.logreg_loss_and_grad(W, bp, X, y, 1e-4)[0]
                   - classify.logreg_loss_and_grad(W, bm, X, y, 1e-4)[0]) / (2 * h)
        if abs(db[j] - numeric) > 1e-4 * max(abs(numeric), 1e-8):
            ok = False

    # forest prediction equals the per-tree majority vote
    small = items[:60]
    forest = classify.train("forest", table[:60], hyper={"n_trees": 25}, seed=1)
    for vf, _ in small[:20]:
        votes = np.array(forest_vote_oracle(forest, vf.vector()))
        if classify.predict(forest, vf)[0] is not forest.class_set[int(np.argmax(votes))]:
            ok = False

    # naive Bayes scores normalize to 1 within 1e-9
    gnb = classify.train("gnb", table)
    for vf, _ in items[:50]:
        _, scores = classify.predict(gnb, vf)
        if abs(sum(scores.values()) - 1.0) > 1e-9:
            ok = False

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(5, ok, f"({elapsed:.1f}s)")


def test_criterion_6_end_to_end_benchmark(corpus_table):
    start = time.perf_counter()
    train_rows = evaluate.stratified_split(corpus_table.labels, seed=SPLIT_SEED)
    candidates = ["knn", "logreg"]

    reports, errors = evaluate.run_task("multi", candidates, corpus_table, train_rows,
                                        seed=SPLIT_SEED)
    assert not errors
    multi_best = max(r.test_accuracy for r in reports)

    binary_best = {}
    for label in (GaitLabel.CHOREIFORM, GaitLabel.DIPLEGIA,
                  GaitLabel.HEMIPLEGIA, GaitLabel.PARKINSON):
        reports, errors = evaluate.run_task(f"binary:{label.value}", candidates,
                                            corpus_table, train_rows, seed=SPLIT_SEED)
        assert not errors
        binary_best[label.value] = max(r.test_accuracy for r in reports)

    # chance-level control: permuted labels should score near 1/5
    rng = np.random.default_rng(7)
    permuted = replace(corpus_table, labels=corpus_table.labels[rng.permutation(len(corpus_table))])
    control_rows = evaluate.stratified_split(permuted.labels, seed=SPLIT_SEED)
    control = evaluate.cross_validate("knn", permuted[control_rows],
                                      folds=5, seed=SPLIT_SEED)

    elapsed = time.perf_counter() - start
    ok = (
        multi_best >= 0.90
        and all(v >= 0.95 for v in binary_best.values())
        and 0.1 <= control <= 0.3
        and elapsed < 300.0
    )
    _report(6, ok, f"(multi {multi_best:.3f}, binary {binary_best}, "
                   f"permuted control {control:.3f}, {elapsed:.1f}s)")


def test_criterion_7_cli_determinism(tmp_path):
    start = time.perf_counter()
    corpus = tmp_path / "corpus"
    features = tmp_path / "features.csv"
    base = [sys.executable, "-m", "gaitlab"]
    subprocess.run(base + ["synth", "--counts",
                           "Choreiform=8,Diplegia=8,Hemiplegia=8,Normal=8,Parkinson=8",
                           "--seed", "5", "--frames", "30", "--out", str(corpus)],
                   check=True, capture_output=True)
    subprocess.run(base + ["extract", "--in", str(corpus), "--out", str(features)],
                   check=True, capture_output=True)
    outputs = []
    for name in ("r1.json", "r2.json"):
        report = tmp_path / name
        subprocess.run(base + ["eval", "--features", str(features),
                               "--algos", "all", "--task", "multi", "--folds", "3",
                               "--seed", "11", "--report", str(report)],
                       check=True, capture_output=True)
        outputs.append(report.read_bytes())
    elapsed = time.perf_counter() - start
    ok = (
        outputs[0] == outputs[1]
        and len(json.loads(outputs[0])["reports"]) == 5
        and elapsed < 300.0
    )
    _report(7, ok, f"(byte-identical eval reports, {elapsed:.1f}s)")
