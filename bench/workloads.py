"""The benchmark's workloads. Each drives gaitlab only through its public
entry points: ``cli.main`` in-process and the module functions.

A workload has ``setup()`` (one set-up repetition; the runner times several),
``op(i)`` (one timed operation), ``after(i, result)`` (untimed checks of one
operation, returning its problems) and ``finish()`` (untimed checks that need
every operation, returning problems by operation index).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import shutil
from pathlib import Path

import checks
from gaitlab import classify, cli, ingest, synth, video_features
from gaitlab.errors import TooFewValidFrames
from gaitlab.pose import GaitLabel

ALGORITHMS = classify.ALGORITHMS
KNN = ALGORITHMS.index("knn")
SMALL_COUNTS = {label: 8 for label in GaitLabel}  # enough for a 3:1 split and 5 folds
SMALL_FRAMES = 20
ORACLE_VIDEOS = 6  # videos per run recomputed by the plain-Python feature oracle


def run_cli(argv) -> int:
    """``cli.main`` with its console output captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main([str(a) for a in argv])


class Workload:
    name = ""
    # span names whose per-layer metrics are taken over set-up repetitions
    setup_spans = frozenset({"synth.write_corpus", "synth.generate", "classify.load_model"})

    def __init__(self, work: Path, seed: int, small: bool):
        self.work = work
        self.seed = seed
        self.counts = SMALL_COUNTS if small else None
        self.frames = SMALL_FRAMES if small else 60
        self.small = small
        self.corpus = work / "corpus"
        self.features = work / "features.csv"
        self.reference, self.matching = None, []  # first output's digest, ops that match it

    def reset(self):
        """Remove what the previous set-up repetition wrote (untimed)."""
        shutil.rmtree(self.corpus, ignore_errors=True)

    def write_corpus(self):
        synth.write_corpus(self.corpus, counts=self.counts, seed=self.seed, n_frames=self.frames)

    def extract(self, out: Path):
        rc = run_cli(["extract", "--in", self.corpus, "--out", out])
        if rc != 0:
            raise RuntimeError(f"extract exited with {rc}")

    def manifest(self) -> dict:
        with open(self.corpus / "manifest.csv", newline="") as fh:
            return {row["source_id"]: row["label"] for row in csv.DictReader(fh)}

    def size(self) -> dict:
        videos = len(self.manifest())
        return {"videos": videos, "frames": videos * self.frames}

    def same_as_first(self, i, output: Path) -> list[str]:
        """Every operation must write the bytes the first one wrote."""
        digest = hashlib.sha256(output.read_bytes()).hexdigest()
        if self.reference is None:
            self.reference = digest
        if digest != self.reference:
            return [f"{output.name} differs from the first operation's"]
        self.matching.append(i)
        return []


class ExtractCorpus(Workload):
    """One op: ``gaitlab extract`` over the whole corpus directory."""

    name = "extract-corpus"

    def setup(self):
        self.write_corpus()
        self.videos = len(self.manifest())

    def op(self, i):
        out = self.work / ("features-first.csv" if i == 0 else "features.csv")
        return run_cli(["extract", "--in", self.corpus, "--out", out]), out

    def after(self, i, result):
        rc, out = result
        return [f"extract exited with {rc}"] if rc != 0 else self.same_as_first(i, out)

    def finish(self):
        labels = self.manifest()
        sample = random.Random(self.seed).sample(sorted(labels), min(ORACLE_VIDEOS, len(labels)))
        clips = {sid: (self.corpus / f"{sid}.kp.jsonl").read_bytes() for sid in sample}
        rows = checks.read_features_csv(self.work / "features-first.csv")
        problems = checks.check_features(rows, labels, clips)
        return {i: problems for i in self.matching} if problems else {}


class EvalMulti(Workload):
    """One op: ``gaitlab eval`` of all five algorithms on the multi-class task."""

    name = "eval-multi"

    def setup(self):
        self.write_corpus()
        self.extract(self.features)
        self.videos = len(self.manifest())

    def op(self, i):
        report = self.work / ("report-first.json" if i == 0 else "report.json")
        rc = run_cli(["eval", "--features", self.features, "--task", "multi", "--algos", "all",
                      "--folds", "5", "--report", report])
        return rc, report

    def after(self, i, result):
        rc, report = result
        return [f"eval exited with {rc}"] if rc != 0 else self.same_as_first(i, report)

    def finish(self):
        pinned = None if self.small or self.seed != 42 else checks.EVAL_REPORT_SHA256_SEED42
        problems = checks.check_report((self.work / "report-first.json").read_bytes(), pinned)
        return {i: problems for i in self.matching} if problems else {}


class ScoreStream(Workload):
    """A closed loop with one client: each request is one 30-frame keypoint
    clip in bytes, run through parse, validity filter, features and all five
    models. The models are trained, saved and loaded during set-up."""

    name = "score-stream"
    setup_spans = Workload.setup_spans | {"classify.train"}
    CLIP_FRAMES = 30
    POOL = 200  # distinct clips, sent in a seeded order and then repeated
    CORRUPT_FRAME_SHARE = 0.10  # frames with one keypoint's confidence set to 0
    REJECT_SHARE = 0.02  # clips left with fewer than 10 valid frames
    STREAM_SEED_OFFSET = 1  # requests never come from the training corpus's seed

    def setup(self):
        self.write_corpus()
        self.extract(self.features)
        self.models = []
        for algo in ALGORITHMS:
            path = self.work / f"model-{algo}.json"
            rc = run_cli(["train", "--features", self.features, "--algo", algo,
                          "--task", "multi", "--out", path])
            if rc != 0:
                raise RuntimeError(f"train {algo} exited with {rc}")
            self.models.append(classify.load_model(path))
        self.requests = self.make_requests(10 if self.small else self.POOL // len(GaitLabel))
        self.videos = 1
        self.knn_samples = {}

    def make_requests(self, per_class: int):
        """(JSONL bytes, corrupted frames, rejection expected) per clip."""
        seed = self.seed + self.STREAM_SEED_OFFSET
        rng = random.Random(seed)
        clips = synth.generate_corpus({label: per_class for label in GaitLabel},
                                      seed=seed, n_frames=self.CLIP_FRAMES)
        rejected = set(rng.sample(range(len(clips)), max(1, round(self.REJECT_SHARE * len(clips)))))
        requests = []
        for i, (seq, _) in enumerate(clips):
            if i in rejected:
                n_bad = rng.randint(self.CLIP_FRAMES - 9, self.CLIP_FRAMES)
            else:
                draws = sum(rng.random() < self.CORRUPT_FRAME_SHARE for _ in range(self.CLIP_FRAMES))
                n_bad = min(draws, self.CLIP_FRAMES - 10)
            lines = ingest.serialize_sequence(seq).splitlines()
            for f in rng.sample(range(self.CLIP_FRAMES), n_bad):
                obj = json.loads(lines[f])
                obj["kp"][rng.choice(checks.KEYPOINTS)][2] = 0.0
                lines[f] = json.dumps(obj)
            requests.append(("\n".join(lines).encode() + b"\n", n_bad, i in rejected))
        rng.shuffle(requests)
        return requests

    def size(self):
        return {**super().size(), "pool": len(self.requests)}

    def op(self, i):
        data = self.requests[i % len(self.requests)][0]
        seq = ingest.parse_keypoint_file(data, source_id=f"request-{i}")
        try:
            seq, report = ingest.filter_valid(seq)
        except TooFewValidFrames as exc:
            return exc
        vf = video_features.featurize_sequence(seq)
        return report, vf, [classify.predict(model, vf) for model in self.models]

    def after(self, i, result):
        clip = i % len(self.requests)
        _, n_bad, rejected = self.requests[clip]
        if isinstance(result, TooFewValidFrames):
            if not rejected:
                return [f"unexpected rejection: {result}"]
            dropped = self.CLIP_FRAMES - result.valid
            return [] if dropped == n_bad else [f"dropped {dropped} frames, {n_bad} were corrupted"]
        if rejected:
            return ["clip with too few valid frames was not rejected"]
        report, vf, predictions = result
        problems = []
        if report.dropped_frames != n_bad:
            problems.append(f"dropped {report.dropped_frames} frames, {n_bad} were corrupted")
        for model, (label, scores) in zip(self.models, predictions):
            problems += checks.check_prediction(label.value, [scores[c] for c in model.class_set],
                                                [c.value for c in model.class_set])
        if clip not in self.knn_samples:  # each distinct clip is checked once
            label, scores = predictions[KNN]
            self.knn_samples[clip] = (i, vf.vector().tolist(), label.value,
                                      [scores[c] for c in self.models[KNN].class_set])
        return problems

    def finish(self):
        knn = self.models[KNN]
        oracle = checks.KnnOracle(checks.read_features_csv(self.features), knn.hyperparameters["k"])
        failed = {}
        for i, vector, label, scores in self.knn_samples.values():
            problems = checks.check_knn(label, scores, oracle, vector)
            if problems:
                failed[i] = problems
        return failed


WORKLOADS = {w.name: w for w in (ExtractCorpus, EvalMulti, ScoreStream)}
