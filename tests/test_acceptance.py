"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line and asserting its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
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
    candidates = ["knn", "logreg"]

    reports, errors = evaluate.run_task("multi", candidates, corpus_table, seed=SPLIT_SEED)
    assert not errors
    multi_best = max(r.test_accuracy for r in reports)

    binary_best = {}
    for label in (GaitLabel.CHOREIFORM, GaitLabel.DIPLEGIA,
                  GaitLabel.HEMIPLEGIA, GaitLabel.PARKINSON):
        reports, errors = evaluate.run_task(f"binary:{label.value}", candidates,
                                            corpus_table, seed=SPLIT_SEED)
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


# Tree growth's exact output on the full-size corpus: sha256 of the tree and
# forest model JSONs for training seeds 0 and 42, computed when trees were still
# grown one at a time, so growing them in lockstep changed no model.
_GATE_HYPERS = {"defaults": None, "max_depth=None": {"max_depth": None},
                "min_samples_leaf=1": {"min_samples_leaf": 1}, "n_trees=1": {"n_trees": 1}}
_GATE_DIGESTS = {
    ("multi", "tree", "defaults"): (
        "0237ef4b055ecff393ff8e749854a8a9f16e386ae579528102a16639d16f7911",
        "0237ef4b055ecff393ff8e749854a8a9f16e386ae579528102a16639d16f7911"),
    ("multi", "tree", "max_depth=None"): (
        "32f908f8b1c41c6743226aa71ed0588973359f983abf902e12692bc82a7132bb",
        "32f908f8b1c41c6743226aa71ed0588973359f983abf902e12692bc82a7132bb"),
    ("multi", "tree", "min_samples_leaf=1"): (
        "710dbef0af9f210df4396913f1c9054641e9bbb720afa907f77fa2a9d1abf38a",
        "710dbef0af9f210df4396913f1c9054641e9bbb720afa907f77fa2a9d1abf38a"),
    ("multi", "forest", "defaults"): (
        "919a2e784f210afec567224e72f532a6d78fc0564ea57d47906e862ef0184f54",
        "6dfff5cacdeea1d76c948084e0117a9a234137dffcb365e1ddf3e8f1d8b65682"),
    ("multi", "forest", "max_depth=None"): (
        "d3db5e2abf102e7d7250081f93f8053018b663fa847c76167ee18d7a100386bf",
        "4e6461d71a0926d2ded5a38d4c39aa5df48c8bcd7a02534c5a8a73d52cc77cf3"),
    ("multi", "forest", "min_samples_leaf=1"): (
        "0b95d694cf293ef5fbcfb5e9fb987ab9f46ff8701bd8fb26e5c0155d9e8867c9",
        "6d0b41858d77acef49b26cd223efb97d741dd2ad654f5c15445a38f09c9a5ce4"),
    ("multi", "forest", "n_trees=1"): (
        "dd7dea4318d3ab8d0f2e51f647e7b3a86fbecd592062829997bdb8179ed595a5",
        "fd09c64f480a1b54a3d97f3457d3ceacf2a848d2e42df1be12a8ec2aa94a57a1"),
    ("binary:Parkinson", "tree", "defaults"): (
        "891f605ac0d2e94107ea541af4fbd2930857cae9fe6ddbcc4cd597c9330822d2",
        "891f605ac0d2e94107ea541af4fbd2930857cae9fe6ddbcc4cd597c9330822d2"),
    ("binary:Parkinson", "tree", "max_depth=None"): (
        "cbea3a57afc22f6169ad73bf8c76ca153df9e2eef755cfd95f8665ca34896159",
        "cbea3a57afc22f6169ad73bf8c76ca153df9e2eef755cfd95f8665ca34896159"),
    ("binary:Parkinson", "tree", "min_samples_leaf=1"): (
        "8cf4ddbd16ed4889fb7f5eb05204220ee20c034e00d286c127e9f193891979c5",
        "8cf4ddbd16ed4889fb7f5eb05204220ee20c034e00d286c127e9f193891979c5"),
    ("binary:Parkinson", "forest", "defaults"): (
        "3efad3466cb9b92eadef3030f3f6d5a8583bb81a4d71d14eea729f71950c2815",
        "7450e14184d2ccbcc01c638021b1abd14522c90fc016c321c3570d12662f578a"),
    ("binary:Parkinson", "forest", "max_depth=None"): (
        "702958fc3c49ca238647b4a4fcdccae4f2cba5de09f30700436c5ab1d74d40ed",
        "b8e60f8ad877e2f96a5960aeaf3033c183bee16853aeaa1fe890eec17ebb56ce"),
    ("binary:Parkinson", "forest", "min_samples_leaf=1"): (
        "212e8d67f93b98e82d661a7b7fffd28b9545ec920479fc30d0517d1638a99297",
        "2547c1b7222b71a7c6d5d02bcb62967c94ef56659eb6ffa52ea511ecdd6589d0"),
    ("binary:Parkinson", "forest", "n_trees=1"): (
        "fe902f143a51575441cb15550bde35026b0cf30c8cc9c55df163ee11490d116a",
        "d77b25441c7b40abf6674b58991c24f4c1ff28f2ca0dbabf5142af4c471c0e44"),
}


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("task, algorithm, hyper", _GATE_DIGESTS)
def test_tree_growth_gate_model_bytes(corpus_table, task, algorithm, hyper, seed):
    rows = evaluate.task_rows(task, corpus_table.labels)
    model = classify.train(algorithm, corpus_table[rows], hyper=_GATE_HYPERS[hyper], seed=seed)
    digest = hashlib.sha256(model.to_json().encode()).hexdigest()
    assert digest == _GATE_DIGESTS[task, algorithm, hyper][seed == 42]


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
