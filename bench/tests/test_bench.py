"""Self-test of the benchmark: each workload passes at a tiny size, and the
output checks reject corrupted outputs."""

import dataclasses
import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from gaitlab import classify, cli, synth  # noqa: E402
from gaitlab.pose import GaitLabel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [
    ("extract-corpus", 0), ("extract-corpus", 1), ("eval-multi", 1), ("score-stream", 1),
])
def test_workload_passes_at_tiny_size(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                     "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "extract-corpus", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A small corpus, its features CSV, an eval report and a kNN model."""
    root = tmp_path_factory.mktemp("tiny")
    corpus, features = root / "corpus", root / "features.csv"
    synth.write_corpus(corpus, counts={label: 8 for label in GaitLabel}, seed=3, n_frames=16)
    assert cli.main(["extract", "--in", str(corpus), "--out", str(features)]) == 0
    assert cli.main(["eval", "--features", str(features), "--algos", "all",
                     "--report", str(root / "report.json")]) == 0
    assert cli.main(["train", "--features", str(features), "--algo", "knn",
                     "--out", str(root / "knn.json")]) == 0
    return root


def _features_inputs(root):
    rows = checks.read_features_csv(root / "features.csv")
    labels = {sid: label for sid, label, _ in rows}
    clips = {sid: (root / "corpus" / f"{sid}.kp.jsonl").read_bytes() for sid in sorted(labels)[:3]}
    return rows, labels, clips


def test_features_check_accepts_and_rejects(tiny):
    rows, labels, clips = _features_inputs(tiny)
    assert checks.check_features(rows, labels, clips) == []

    sid = next(iter(clips))
    perturbed = [(s, label, [v * (1 + 1e-9) if s == sid and j == 50 else v
                             for j, v in enumerate(values)]) for s, label, values in rows]
    assert any("differ from the oracle" in p for p in checks.check_features(perturbed, labels, clips))

    swapped = [(s, "Normal" if label != "Normal" else "Parkinson", values) if s == sid
               else (s, label, values) for s, label, values in rows]
    assert any("manifest says" in p for p in checks.check_features(swapped, labels, clips))

    nan = [(s, label, values[:-1] + [math.nan]) if s == sid else (s, label, values)
           for s, label, values in rows]
    assert any("finite" in p for p in checks.check_features(nan, labels, clips))

    assert checks.check_features(rows[1:], labels, clips)


def test_report_check_rejects_an_altered_byte(tiny):
    report = (tiny / "report.json").read_bytes()
    digest = hashlib.sha256(report).hexdigest()
    assert checks.check_report(report, digest) == []
    altered = report.replace(b'"seed": 0', b'"seed": 1', 1)
    assert altered != report
    assert any("sha256" in p for p in checks.check_report(altered, digest))
    doc = json.loads(report)
    doc["reports"] = doc["reports"][1:]
    assert any("covers" in p for p in checks.check_report(json.dumps(doc).encode(), None))


def test_prediction_check_rejects_a_swapped_label():
    classes = ["Normal", "Parkinson"]
    assert checks.check_prediction("Parkinson", [0.25, 0.75], classes) == []
    assert checks.check_prediction("Normal", [0.25, 0.75], classes)
    assert checks.check_prediction("Normal", [0.5, 0.6], classes)
    assert checks.check_prediction("Normal", [math.nan, 0.5], classes)


def test_knn_oracle_agrees_and_catches_a_swapped_label(tiny):
    rows, _, _ = _features_inputs(tiny)
    model = classify.load_model(tiny / "knn.json")
    oracle = checks.KnnOracle(rows, model.hyperparameters["k"])
    vfs = cli.read_features_csv(tiny / "features.csv")
    for vf, _ in vfs[::7]:
        label, scores = classify.predict(model, vf)
        shares = [scores[c] for c in model.class_set]
        assert checks.check_knn(label.value, shares, oracle, vf.vector().tolist()) == []
        other = next(c.value for c in model.class_set if c != label)
        assert checks.check_knn(other, shares, oracle, vf.vector().tolist())
        shifted = shares[1:] + shares[:1]
        assert checks.check_knn(label.value, shifted, oracle, vf.vector().tolist())


def test_score_stream_rejects_wrong_drop_count_label_and_rejection(tmp_path):
    import workloads

    wl = workloads.ScoreStream(tmp_path, seed=5, small=True)
    wl.setup()
    accepted = next(i for i, (_, n_bad, rejected) in enumerate(wl.requests) if not rejected and n_bad)
    report, vf, predictions = wl.op(accepted)
    assert wl.after(accepted, (report, vf, predictions)) == []

    miscounted = dataclasses.replace(report, dropped_frames=report.dropped_frames - 1)
    assert any("corrupted" in p for p in wl.after(accepted, (miscounted, vf, predictions)))

    label, scores = predictions[1]
    wrong = next(c for c in scores if c != label)
    swapped = [predictions[0], (wrong, scores)] + predictions[2:]
    assert any("argmax" in p for p in wl.after(accepted, (report, vf, swapped)))

    rejected = next(i for i, (_, _, r) in enumerate(wl.requests) if r)
    assert wl.after(rejected, wl.op(rejected)) == []
    assert any("not rejected" in p for p in wl.after(rejected, (report, vf, predictions)))


def test_outputs_must_repeat_across_operations(tmp_path):
    import workloads

    wl = workloads.EvalMulti(tmp_path, seed=5, small=True)
    out = tmp_path / "report.json"
    out.write_bytes(b'{"a": 1}')
    assert wl.same_as_first(0, out) == []
    out.write_bytes(b'{"a": 2}')
    assert wl.same_as_first(1, out)
    assert wl.matching == [0]


def test_host_speed_drops_sample_time_and_scales_by_it():
    import hostspeed

    speed = hostspeed.HostSpeed()
    start = speed.mark()
    assert speed.scale(start, speed.mark()) == 1.0  # no samples: wall seconds
    speed.running = True
    speed.last = -1.0
    speed.tick()
    speed.tick()  # not due yet
    end = speed.mark()
    assert len(speed.samples) == 1 and speed.stolen >= speed.samples[0] > 0
    assert speed.net_s(start, end) == pytest.approx(end[0] - start[0] - speed.stolen)
    speed.samples = [2 * hostspeed.REFERENCE_KERNEL_S] * hostspeed.MIN_SAMPLES
    end = speed.mark()
    assert speed.scale(start, end) == pytest.approx(0.5)  # a host at half speed
    assert speed.reference_s(start, end) == pytest.approx(0.5 * speed.net_s(start, end))
