import csv
import hashlib
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gaitlab import classify, evaluate, parallel
from gaitlab.cli import main
from gaitlab.classify import load_model
from gaitlab.errors import InsufficientDataError
from gaitlab.pose import GaitLabel
from gaitlab.synth import write_corpus
from gaitlab.video_features import FeatureTable, read_features_csv

from helpers import corpus_digest

SMALL_COUNTS = "Choreiform=6,Diplegia=6,Hemiplegia=6,Normal=6,Parkinson=6"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """synth -> extract once for the whole module."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    features = root / "features.csv"
    assert main(["synth", "--counts", SMALL_COUNTS, "--seed", "3",
                 "--frames", "24", "--out", str(corpus)]) == 0
    assert main(["extract", "--in", str(corpus), "--out", str(features)]) == 0
    return root


def test_synth_outputs(pipeline_dir):
    corpus = pipeline_dir / "corpus"
    files = list(corpus.glob("*.kp.jsonl"))
    assert len(files) == 30
    assert (corpus / "manifest.csv").exists()


def test_extract_outputs_labeled_csv(pipeline_dir):
    with open(pipeline_dir / "features.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["source_id", "label"]
    assert len(rows) == 31  # header + 30 videos
    labels = {row[1] for row in rows[1:]}
    assert labels == {label.value for label in GaitLabel}


def test_extract_single_file(pipeline_dir, tmp_path):
    src = next(iter((pipeline_dir / "corpus").glob("*.kp.jsonl")))
    out = tmp_path / "one.csv"
    assert main(["extract", "--in", str(src), "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2
    assert rows[1][1] == ""  # no manifest, so no label


def test_refused_synth_leaves_the_output_directory_alone(tmp_path):
    out = tmp_path / "m"
    assert main(["synth", "--out", str(out), "--counts", "Normal=5,Parkinson=5"]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    with pytest.raises(SystemExit) as info:
        main(["synth", "--out", str(out), "--frames", "1"])
    assert info.value.code == 2
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    with pytest.raises(SystemExit) as info:
        main(["synth", "--out", str(tmp_path / "new"), "--frames", "1"])
    assert info.value.code == 2
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("counts, label", [
    ("Normal=2,Parkinson=2,Normal=3", "Normal"),
    ("Parkinson=2,parkinson=2", "Parkinson"),
], ids=["repeated", "repeated-other-case"])
def test_synth_refuses_a_label_counted_twice(tmp_path, capsys, counts, label):
    out = tmp_path / "c"
    capsys.readouterr()
    assert main(["synth", "--out", str(out), "--counts", counts, "--frames", "4"]) == 2
    assert f"label {label!r} is counted twice" in capsys.readouterr().err
    assert not out.exists()


def test_synth_names_the_label_of_a_refused_count(tmp_path, capsys):
    out = tmp_path / "c"
    capsys.readouterr()
    assert main(["synth", "--out", str(out), "--counts", "Normal=0,Parkinson=2"]) == 2
    assert "count for Normal must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_synth_refuses_empty_counts(tmp_path, capsys):
    """An empty --counts is a bad counts entry, not the default corpus."""
    out = tmp_path / "c"
    capsys.readouterr()
    assert main(["synth", "--out", str(out), "--counts", ""]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: bad counts entry '', expected Label=N"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--counts", "Normal=2,Parkinson=2", "--frames", "4", "--out", "{tmp}/c"],
    ["eval", "--features", "{features}", "--report", "{tmp}/r.json"],
    *[["train", "--features", "{features}", "--algo", algo, "--out", "{tmp}/m.json"]
      for algo in ("knn", "tree", "forest", "gnb", "logreg")],
], ids=["synth", "eval", "train-knn", "train-tree", "train-forest", "train-gnb",
        "train-logreg"])
def test_negative_seed_is_refused_by_name(pipeline_dir, tmp_path, capsys, argv):
    """Every subcommand that takes --seed refuses a negative one before doing any
    work, with exit 2 and a message naming the flag and the value."""
    argv = [a.format(tmp=tmp_path, features=pipeline_dir / "features.csv") for a in argv]
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(argv + ["--seed", "-1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: expected a non-negative integer, got '-1'" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["synth", "--frames", "1"], "argument --frames: expected an integer >= 2, got '1'"),
    (["synth", "--frames", "x"], "argument --frames: expected an integer >= 2, got 'x'"),
    (["extract", "--in", "{corpus}", "--min-frames", "0"],
     "argument --min-frames: expected an integer >= 1, got '0'"),
    (["extract", "--in", "{corpus}", "--min-conf", "-1"],
     "argument --min-conf: expected a number in [0, 1], got '-1'"),
    (["extract", "--in", "{corpus}", "--min-conf", "nan"],
     "argument --min-conf: expected a number in [0, 1], got 'nan'"),
], ids=["frames", "frames-not-a-number", "min-frames", "min-conf", "min-conf-nan"])
def test_numeric_flags_are_refused_by_name(pipeline_dir, tmp_path, capsys, argv, message):
    """An out-of-range numeric flag is refused before any work, with exit 2 and
    a message naming the flag and the value."""
    argv = [a.format(corpus=pipeline_dir / "corpus") for a in argv]
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(tmp_path / "out")])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_synth_names_a_count_that_is_not_an_integer(tmp_path, capsys):
    out = tmp_path / "c"
    capsys.readouterr()
    assert main(["synth", "--out", str(out), "--counts", "Normal=2,Parkinson=x"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: bad counts entry 'Parkinson=x', expected Label=N"]
    assert not out.exists()


def _edit_line(data, index, old, new):
    lines = data.splitlines(keepends=True)
    lines[index] = lines[index].replace(old, new)
    return b"".join(lines)


@pytest.mark.parametrize("edit, flags, code, message", [
    (lambda data: _edit_line(data, 2, b'"frame"', b'"frames"'), [], 2,
     " line 3: missing 'frame' field"),
    (lambda data: b"".join(data.splitlines(keepends=True)[:4]), [], 3,
     ": only 4 valid frames, need at least 10"),
    (lambda data: b"\xff" + data, [], 2, ": keypoint data is not UTF-8: "),
    (lambda data: data.splitlines(keepends=True)[0] + data, [], 2,
     " line 2: duplicate frame index 0"),
    (lambda data: data.splitlines(keepends=True)[0], ["--min-frames", "1"], 3,
     ": need at least 2 frames to aggregate, got 1"),
], ids=["no-frame-field", "too-few-valid-frames", "not-utf8", "duplicate-frame",
        "one-frame"])
def test_extract_names_the_refused_file(pipeline_dir, tmp_path, capsys, monkeypatch, edit, flags,
                                        code, message):
    """A refused keypoint file in a directory is named in the one error line,
    which keeps its exit code, and no CSV is written. Worker processes run the
    files 8 to a chunk; the refused file is the first of the 30, the fifth (in
    the middle of its chunk) and the last, and each is named, not its chunk's
    first file."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    for position in 0, 4, 29:
        corpus, out = tmp_path / f"corpus-{position}", tmp_path / f"o-{position}.csv"
        shutil.copytree(pipeline_dir / "corpus", corpus)
        refused = sorted(corpus.glob("*.kp.jsonl"))[position]
        refused.write_bytes(edit(refused.read_bytes()))
        capsys.readouterr()
        assert main(["extract", "--in", str(corpus), "--out", str(out), *flags]) == code
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert len(errors) == 1 and errors[0].startswith(f"error: {refused}{message}")
        assert not out.exists()


def test_extract_names_manifest_and_file_disagreements(pipeline_dir, tmp_path, capsys):
    """A manifest row without a file and a file without a manifest row each get
    one stderr line; the exit code and the CSV stay as they were."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for path in (pipeline_dir / "corpus").iterdir():
        if path.name != "normal_000.kp.jsonl":
            (corpus / path.name).write_bytes(path.read_bytes())
    (corpus / "stray_000.kp.jsonl").write_bytes((corpus / "normal_001.kp.jsonl").read_bytes())
    with open(corpus / "manifest.csv", "a", newline="", encoding="utf-8") as fh:
        fh.write("ghost_001,Normal,0\r\n")
    capsys.readouterr()
    assert main(["extract", "--in", str(corpus), "--out", str(tmp_path / "o.csv")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "normal_000: in manifest.csv but has no keypoint file",
        "ghost_001: in manifest.csv but has no keypoint file",
        "stray_000: no manifest.csv row, written unlabeled",
    ]
    lines = (pipeline_dir / "features.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    stray = next(line for line in lines if line.startswith("normal_001,"))
    expected = [line for line in lines if not line.startswith("normal_000,")]
    expected.append(stray.replace("normal_001,Normal,", "stray_000,,", 1))
    assert (tmp_path / "o.csv").read_text(encoding="utf-8") == "".join(expected)
    # a corpus that agrees with its manifest gets no such line
    assert main(["extract", "--in", str(pipeline_dir / "corpus"),
                 "--out", str(tmp_path / "p.csv")]) == 0
    assert "manifest.csv" not in capsys.readouterr().err


def test_extract_refuses_a_directory_without_keypoint_files(tmp_path, capsys):
    capsys.readouterr()
    assert main(["extract", "--in", str(tmp_path), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == f"error: no .kp.jsonl files in {tmp_path}\n"
    assert not (tmp_path / "o.csv").exists()


def test_extract_names_the_frames_it_drops(pipeline_dir, tmp_path, capsys):
    """A video with invalid frames gets one stderr line counting them, and its
    row is still written, from the frames that remain."""
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline_dir / "corpus", corpus)
    clip = corpus / "normal_000.kp.jsonl"
    data = clip.read_bytes()
    for index in (3, 7):  # an unknown name leaves the joint absent, so the frame invalid
        data = _edit_line(data, index, b'"LeftEar"', b'"LeftEars"')
    clip.write_bytes(data)
    capsys.readouterr()
    assert main(["extract", "--in", str(corpus), "--out", str(tmp_path / "o.csv")]) == 0
    assert capsys.readouterr().err == "normal_000: dropped 2/24 frames\n"
    written = (tmp_path / "o.csv").read_text(encoding="utf-8").splitlines()
    pinned = (pipeline_dir / "features.csv").read_text(encoding="utf-8").splitlines()
    changed = [(a, b) for a, b in zip(written, pinned) if a != b]
    assert len(written) == len(pinned) and len(changed) == 1
    assert changed[0][0].startswith("normal_000,Normal,")


def test_extract_reads_a_manifest_after_a_byte_order_mark(pipeline_dir, tmp_path):
    """A manifest saved as "CSV UTF-8" by a spreadsheet starts with EF BB BF; it
    gives the features CSV byte for byte."""
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline_dir / "corpus", corpus)
    manifest = corpus / "manifest.csv"
    manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
    assert main(["extract", "--in", str(corpus), "--out", str(tmp_path / "o.csv")]) == 0
    assert (tmp_path / "o.csv").read_bytes() == (pipeline_dir / "features.csv").read_bytes()


def test_eval_writes_report(pipeline_dir, tmp_path):
    report = tmp_path / "report.json"
    rc = main(["eval", "--features", str(pipeline_dir / "features.csv"),
               "--algos", "gnb,tree", "--task", "multi", "--folds", "2",
               "--seed", "0", "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert {r["algorithm"] for r in doc["reports"]} == {"gnb", "tree"}
    assert doc["best_algorithm"] in {"gnb", "tree"}
    assert all(len(r["confusion"]) == 5 for r in doc["reports"])


@pytest.mark.parametrize("algos, message", [
    ("knn,svm", "unknown algorithm 'svm'"),
    ("knn,knn", "algorithm 'knn' is listed twice"),
    ("gnb,tree,gnb", "algorithm 'gnb' is listed twice"),
], ids=["unknown", "repeated", "repeated-later"])
def test_eval_refuses_bad_algorithm_lists(pipeline_dir, tmp_path, capsys, algos, message):
    report = tmp_path / "report.json"
    capsys.readouterr()
    rc = main(["eval", "--features", str(pipeline_dir / "features.csv"), "--algos", algos,
               "--folds", "2", "--report", str(report)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not report.exists()



@pytest.mark.parametrize("algos, failing", [
    ("gnb", ["gnb"]),
    ("all", ["knn", "tree", "forest", "gnb", "logreg"]),
])
def test_eval_prints_each_failure_once(pipeline_dir, tmp_path, capsys, monkeypatch, algos,
                                       failing):
    """When every algorithm fails, stderr holds one line per algorithm and nothing more.
    logreg fits through train_logregs, every other algorithm through train."""
    def cannot_fit(*args, **kwargs):
        raise InsufficientDataError("too little data to fit")

    monkeypatch.setattr(classify, "train", cannot_fit)
    monkeypatch.setattr(classify, "train_logregs", cannot_fit)
    report = tmp_path / "report.json"
    capsys.readouterr()
    rc = main(["eval", "--features", str(pipeline_dir / "features.csv"), "--algos", algos,
               "--folds", "2", "--report", str(report)])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [
        f"{algo}: too little data to fit" for algo in failing]
    assert not report.exists()


@pytest.mark.parametrize("folds, least", [("5", 7), ("99999999999999999999",
                                                   133333333333333333332)],
                         ids=["5", "99999999999999999999"])
def test_eval_refuses_more_folds_than_the_smallest_class_once(pipeline_dir, tmp_path, capsys,
                                                              monkeypatch, folds, least):
    """Each class has 6 rows, so 4 training rows, too few for 5 folds: a class
    needs ceil(4k/3) rows for k folds. eval says so once, with exit 3, before
    any algorithm fits a model."""
    def no_fit(*args, **kwargs):
        raise AssertionError("eval fit a model")

    monkeypatch.setattr(classify, "train", no_fit)
    report = tmp_path / "report.json"
    capsys.readouterr()
    rc = main(["eval", "--features", str(pipeline_dir / "features.csv"), "--folds", folds,
               "--report", str(report)])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: class Choreiform has only 6 items, need at least {least}"]
    assert not report.exists()


@pytest.mark.parametrize("args, message", [
    (["--folds", "1"], "argument --folds: expected an integer >= 2, got '1'"),
    (["--folds", "0"], "argument --folds: expected an integer >= 2, got '0'"),
    (["--task", "binary:Normal"], "error: task 'binary:Normal' compares Normal with itself"),
    (["--task", "binary:normal"], "error: task 'binary:normal' compares Normal with itself"),
], ids=["one-fold", "no-folds", "normal-against-normal", "normal-other-case"])
def test_eval_refuses_a_bad_argument_once(pipeline_dir, tmp_path, capsys, args, message):
    """A bad fold count or task is an argument error (exit 2), reported once and
    not once per algorithm; argparse names the flag of a bad fold count."""
    report = tmp_path / "report.json"
    argv = ["eval", "--features", str(pipeline_dir / "features.csv"), "--report", str(report)]
    capsys.readouterr()
    if args[0] == "--folds":
        with pytest.raises(SystemExit) as info:
            main(argv + args)
        assert info.value.code == 2
        assert message in capsys.readouterr().err
    else:
        assert main(argv + args) == 2
        assert capsys.readouterr().err.splitlines() == [message]
    assert not report.exists()


def test_eval_binary_task(pipeline_dir, tmp_path):
    report = tmp_path / "binary.json"
    rc = main(["eval", "--features", str(pipeline_dir / "features.csv"),
               "--algos", "gnb", "--task", "binary:Parkinson", "--folds", "2",
               "--seed", "0", "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["reports"][0]["classes"] == ["Normal", "Parkinson"]


def _features_of(pipeline_dir, tmp_path, counts):
    """The module's features CSV cut to the first ``counts[label]`` rows of each label."""
    lines = (pipeline_dir / "features.csv").read_text(encoding="utf-8").splitlines(True)
    left, body = dict(counts), []
    for line in lines[1:]:
        label = line.split(",")[1]
        if left.get(label, 0):
            left[label] -= 1
            body.append(line)
    kept = tmp_path / "kept.csv"
    kept.write_text(lines[0] + "".join(body), encoding="utf-8")
    return kept


def test_eval_refuses_a_task_without_rows_once(pipeline_dir, tmp_path, capsys, monkeypatch):
    """A task whose labels the CSV does not hold is too little data, named
    once, before any algorithm fits a model."""
    def no_fit(*args, **kwargs):
        raise AssertionError("eval fit a model")

    monkeypatch.setattr(classify, "train", no_fit)
    monkeypatch.setattr(classify, "train_logregs", no_fit)
    features = _features_of(pipeline_dir, tmp_path, {"Choreiform": 6, "Diplegia": 6})
    report = tmp_path / "report.json"
    capsys.readouterr()
    rc = main(["eval", "--features", str(features), "--task", "binary:Parkinson",
               "--folds", "2", "--report", str(report)])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: task 'binary:Parkinson' needs rows of at least 2 of its labels "
        "(Parkinson, Normal), found none"]
    assert not report.exists()


def test_eval_binary_task_ignores_a_tiny_class_it_does_not_use(pipeline_dir, tmp_path, capsys):
    """3 Choreiform rows are too few for the multi-class task, which refuses
    them, but the Parkinson task never uses them."""
    features = _features_of(pipeline_dir, tmp_path,
                            {"Choreiform": 3, "Parkinson": 6, "Normal": 6})
    report = tmp_path / "report.json"
    argv = ["eval", "--features", str(features), "--algos", "gnb", "--folds", "2",
            "--report", str(report)]
    assert main(argv + ["--task", "binary:Parkinson"]) == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert [r["classes"] for r in doc["reports"]] == [["Normal", "Parkinson"]]
    report.unlink()
    capsys.readouterr()
    assert main(argv + ["--task", "multi"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: class Choreiform has only 3 items, need at least 6"]
    assert not report.exists()


# On a file with a class of 1-3 rows, argument errors come before the class-size
# refusal, and a class the task does not use is not counted.
@pytest.mark.parametrize("counts, args, code, message", [
    ({"Choreiform": 3, "Parkinson": 6, "Normal": 6}, ["--algos", "knn,svm"], 2,
     "error: unknown algorithm 'svm'"),
    ({"Choreiform": 3, "Parkinson": 6, "Normal": 6}, ["--task", "pairwise"], 2,
     "error: unknown task 'pairwise'"),
    ({"Choreiform": 3, "Parkinson": 6, "Normal": 6}, ["--task", "binary:Normal"], 2,
     "error: task 'binary:Normal' compares Normal with itself"),
    ({"Choreiform": 3, "Diplegia": 6}, ["--task", "binary:Parkinson"], 3,
     "error: task 'binary:Parkinson' needs rows of at least 2 of its labels "
     "(Parkinson, Normal), found none"),
    ({"Choreiform": 3, "Parkinson": 6, "Normal": 6}, ["--task", "binary:Parkinson"], 3,
     "error: class Normal has only 6 items, need at least 7"),
], ids=["unknown-algorithm", "unknown-task", "normal-against-normal", "task-without-rows",
        "folds-of-the-task"])
def test_eval_on_a_file_with_a_tiny_class(pipeline_dir, tmp_path, capsys, counts, args, code,
                                          message):
    features = _features_of(pipeline_dir, tmp_path, counts)
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["eval", "--features", str(features), "--report", str(report)] + args) == code
    assert capsys.readouterr().err.splitlines() == [message]
    assert not report.exists()


def test_train_names_a_task_without_rows(pipeline_dir, tmp_path, capsys):
    features = _features_of(pipeline_dir, tmp_path, {"Choreiform": 6, "Diplegia": 6})
    model = tmp_path / "m.gaitmodel.json"
    capsys.readouterr()
    assert main(["train", "--features", str(features), "--task", "binary:Parkinson",
                 "--algo", "gnb", "--out", str(model)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: task 'binary:Parkinson' needs rows of at least 2 of its labels "
        "(Parkinson, Normal), found none"]
    assert not model.exists()


# Every refusal of too little data for the evaluation protocol, through the CLI
# (argv, exit code and stderr line) and the library (keyword arguments besides
# the table, exception type and message): the rows of each label in the CSV,
# the entry point, its arguments, and what it gives.
_REFUSALS = {
    "eval-2-folds-4-rows": ({"Normal": 4, "Parkinson": 4}, "eval", ["--folds", "2"], 3,
                            "error: class Normal has only 4 items, need at least 6"),
    "eval-3-folds-3-rows": ({"Choreiform": 3, "Normal": 6, "Parkinson": 6}, "eval",
                            ["--folds", "3"], 3,
                            "error: class Choreiform has only 3 items, need at least 4"),
    "eval-5-folds-6-rows": ({"Normal": 6, "Parkinson": 6}, "eval", [], 3,
                            "error: class Normal has only 6 items, need at least 7"),
    "eval-binary-4-folds": ({"Choreiform": 1, "Normal": 6, "Parkinson": 5}, "eval",
                            ["--task", "binary:Parkinson", "--folds", "4"], 3,
                            "error: class Parkinson has only 5 items, need at least 6"),
    "eval-task-without-rows": ({"Choreiform": 6, "Diplegia": 6}, "eval",
                               ["--task", "binary:Parkinson"], 3,
                               "error: task 'binary:Parkinson' needs rows of at least 2 of "
                               "its labels (Parkinson, Normal), found none"),
    "train-1-row": ({"Normal": 1, "Parkinson": 4}, "train", ["--algo", "knn"], 3,
                    "error: class Normal has only 1 item, need at least 2"),
    "train-binary-1-row": ({"Choreiform": 1, "Normal": 1, "Parkinson": 4}, "train",
                           ["--algo", "logreg", "--task", "binary:Parkinson"], 3,
                           "error: class Normal has only 1 item, need at least 2"),
    "train-1-class": ({"Parkinson": 4}, "train", ["--algo", "tree"], 3,
                      "error: task 'multi' needs rows of at least 2 of its labels (Choreiform, "
                      "Diplegia, Hemiplegia, Normal, Parkinson), found Parkinson"),
    "library-train-1-row": ({"Normal": 1, "Parkinson": 4}, classify.train,
                            {"algorithm": "gnb"}, InsufficientDataError,
                            "class Normal has only 1 item, need at least 2"),
    "library-train-empty": ({}, classify.train, {"algorithm": "forest"},
                            InsufficientDataError, "need at least 2 classes, got 0"),
    "cross-validate-2-folds-3-rows": ({"Normal": 3, "Parkinson": 4}, evaluate.cross_validate,
                                      {"algorithm": "logreg", "folds": 2},
                                      InsufficientDataError,
                                      "class Normal has only 3 items, need at least 4"),
    "cross-validate-4-folds-3-rows": ({"Normal": 4, "Parkinson": 3}, evaluate.cross_validate,
                                      {"algorithm": "knn", "folds": 4}, InsufficientDataError,
                                      "class Parkinson has only 3 items, need at least 4"),
    "cross-validate-1-class": ({"Parkinson": 6}, evaluate.cross_validate,
                               {"algorithm": "logreg", "folds": 2}, InsufficientDataError,
                               "need at least 2 classes, got 1"),
    "cross-validate-empty": ({}, evaluate.cross_validate, {"algorithm": "logreg", "folds": 2},
                             InsufficientDataError, "need at least 2 classes, got 0"),
    "cross-validate-1-fold": ({"Normal": 4, "Parkinson": 4}, evaluate.cross_validate,
                              {"algorithm": "gnb", "folds": 1}, ValueError,
                              "folds must be >= 2"),
    "run-task-2-folds-4-rows": ({"Normal": 4, "Parkinson": 4}, evaluate.run_task,
                                {"task": "multi", "algorithms": classify.ALGORITHMS,
                                 "folds": 2}, InsufficientDataError,
                                "class Normal has only 4 items, need at least 6"),
    "run-task-binary-3-folds": ({"Choreiform": 6, "Normal": 3, "Parkinson": 6},
                                evaluate.run_task,
                                {"task": "binary:Parkinson", "algorithms": ["gnb"], "folds": 3},
                                InsufficientDataError,
                                "class Normal has only 3 items, need at least 4"),
    "run-task-1-fold": ({"Normal": 6, "Parkinson": 6}, evaluate.run_task,
                        {"task": "multi", "algorithms": ["gnb"], "folds": 1}, ValueError,
                        "folds must be >= 2"),
}


@pytest.mark.parametrize("counts, entry, args, outcome, line", _REFUSALS.values(),
                         ids=_REFUSALS)
def test_too_little_data_is_refused_by_one_rule_before_any_fit(
        pipeline_dir, tmp_path, capsys, monkeypatch, counts, entry, args, outcome, line):
    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fit")

    monkeypatch.setattr(classify, "_check_hypers", no_fit)  # the first step of every fit
    features = _features_of(pipeline_dir, tmp_path, counts)
    if entry in ("eval", "train"):
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([entry, "--features", str(features),
                     "--report" if entry == "eval" else "--out", str(out)] + args) == outcome
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()
    else:
        table = FeatureTable.from_rows(read_features_csv(features))
        with pytest.raises(outcome) as info:
            entry(table=table, **args)
        assert type(info.value) is outcome and str(info.value) == line


def test_eval_reports_a_failed_lockstep_fold(pipeline_dir, tmp_path, capsys):
    """A binary task on a CSV without Normal rows has one class: it is refused
    once, before its logreg folds are fit in lockstep (test_evaluate holds a
    failed lockstep fit to train's message)."""
    features = _features_of(pipeline_dir, tmp_path, {"Parkinson": 6, "Diplegia": 6})
    report = tmp_path / "report.json"
    capsys.readouterr()
    rc = main(["eval", "--features", str(features), "--task", "binary:Parkinson",
               "--algos", "logreg", "--folds", "2", "--report", str(report)])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: task 'binary:Parkinson' needs rows of at least 2 of its labels "
        "(Parkinson, Normal), found Parkinson"]
    assert not report.exists()


def test_train_and_eval_refuse_a_one_class_task_with_one_line(pipeline_dir, tmp_path, capsys):
    """Both commands resolve the task in one place, so they exit 3 with the
    same single line, not one line per algorithm."""
    features = _features_of(pipeline_dir, tmp_path, {"Parkinson": 6, "Diplegia": 6})
    expected = ["error: task 'binary:Parkinson' needs rows of at least 2 of its labels "
                "(Parkinson, Normal), found Parkinson"]
    capsys.readouterr()
    assert main(["eval", "--features", str(features), "--task", "binary:Parkinson",
                 "--folds", "2", "--report", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err.splitlines() == expected
    assert main(["train", "--features", str(features), "--task", "binary:Parkinson",
                 "--algo", "knn", "--out", str(tmp_path / "m.json")]) == 3
    assert capsys.readouterr().err.splitlines() == expected


def test_train_and_predict(pipeline_dir, tmp_path):
    model_path = tmp_path / "model.gaitmodel.json"
    rc = main(["train", "--features", str(pipeline_dir / "features.csv"),
               "--algo", "knn", "--task", "multi", "--seed", "0",
               "--out", str(model_path)])
    assert rc == 0
    model = load_model(model_path)
    assert model.algorithm == "knn"

    predictions = tmp_path / "predictions.csv"
    rc = main(["predict", "--model", str(model_path),
               "--features", str(pipeline_dir / "features.csv"),
               "--out", str(predictions)])
    assert rc == 0
    with open(predictions, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["source_id", "predicted", "score_Choreiform", "score_Diplegia",
                       "score_Hemiplegia", "score_Normal", "score_Parkinson"]
    assert len(rows) == 31
    scores = [float(v) for v in rows[1][2:]]
    assert abs(sum(scores) - 1.0) < 1e-9


def test_predict_of_a_csv_without_rows(pipeline_dir, tmp_path):
    """A features CSV of no videos gets a predictions CSV of no rows."""
    features = _edited_features(pipeline_dir, tmp_path, lambda rows: rows[:1])
    model_path = tmp_path / "model.gaitmodel.json"
    assert main(["train", "--features", str(pipeline_dir / "features.csv"), "--algo", "gnb",
                 "--out", str(model_path)]) == 0
    predictions = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model_path), "--features", features,
                 "--out", str(predictions)]) == 0
    with open(predictions, newline="", encoding="utf-8") as fh:
        assert [row[:2] for row in csv.reader(fh)] == [["source_id", "predicted"]]
    assert main(["train", "--features", features, "--algo", "gnb",
                 "--out", str(model_path)]) == 2


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.kp.jsonl"
    bad.write_text("{nope\n", encoding="utf-8")
    assert main(["extract", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
    capsys.readouterr()
    missing = tmp_path / "missing.kp.jsonl"
    assert main(["extract", "--in", str(missing), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: [Errno 2] No such file or directory: '{missing}'"]


def test_extract_refuses_coordinates_too_large_for_finite_features(pipeline_dir, tmp_path, capsys):
    """Finite but huge coordinates overflow the features; extract names the
    video and exits 2 instead of writing nan and inf cells."""
    src = next(iter((pipeline_dir / "corpus").glob("*.kp.jsonl")))
    huge = tmp_path / "huge.kp.jsonl"
    with open(huge, "w", encoding="utf-8") as fh:
        for line in src.read_text(encoding="utf-8").splitlines():
            frame = json.loads(line)
            frame["kp"] = {name: [x * 1e160, y * 1e160, c] for name, (x, y, c)
                           in frame["kp"].items()}
            fh.write(json.dumps(frame) + "\n")
    capsys.readouterr()
    rc = main(["extract", "--in", str(huge), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "'huge'" in err[0]
    assert not (tmp_path / "o.csv").exists()


def test_exit_code_insufficient_data(pipeline_dir, tmp_path):
    src = next(iter((pipeline_dir / "corpus").glob("*.kp.jsonl")))
    rc = main(["extract", "--in", str(src), "--out", str(tmp_path / "o.csv"),
               "--min-frames", "1000"])
    assert rc == 3


def _extract(pipeline_dir, out, *flags):
    assert main(["extract", "--in", str(pipeline_dir / "corpus"), "--out", str(out),
                 *flags]) == 0
    return str(out)


def test_exit_code_schema_mismatch(pipeline_dir, tmp_path):
    model_path = tmp_path / "model.gaitmodel.json"
    assert main(["train", "--features", str(pipeline_dir / "features.csv"),
                 "--algo", "gnb", "--out", str(model_path)]) == 0
    # features extracted under another std convention carry another schema
    sample = _extract(pipeline_dir, tmp_path / "sample.csv", "--std", "sample")
    rc = main(["predict", "--model", str(model_path), "--features", sample,
               "--out", str(tmp_path / "p.csv")])
    assert rc == 4


def test_model_of_video_scope_csv_refuses_frame_scope_csv(pipeline_dir, tmp_path):
    video = _extract(pipeline_dir, tmp_path / "video.csv", "--norm-scope", "video")
    model_path = tmp_path / "model.gaitmodel.json"
    assert main(["train", "--features", video, "--algo", "gnb", "--out", str(model_path)]) == 0
    assert main(["predict", "--model", str(model_path), "--features", video,
                 "--out", str(tmp_path / "p.csv")]) == 0
    rc = main(["predict", "--model", str(model_path),
               "--features", str(pipeline_dir / "features.csv"),
               "--out", str(tmp_path / "p.csv")])
    assert rc == 4


def test_eval_reports_the_schema_of_the_csv(pipeline_dir, tmp_path):
    features = _extract(pipeline_dir, tmp_path / "video-sample.csv",
                        "--norm-scope", "video", "--std", "sample")
    report = tmp_path / "report.json"
    assert main(["eval", "--features", features, "--algos", "gnb", "--folds", "2",
                 "--report", str(report)]) == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert (doc["norm_scope"], doc["std"]) == ("video", "sample")


def test_only_extract_takes_the_feature_config(capsys):
    for command, takes_it in [("extract", True), ("train", False), ("eval", False),
                              ("predict", False)]:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        assert ("--norm-scope" in usage, "--std" in usage) == (takes_it, takes_it)


def test_eval_deterministic_report_bytes(pipeline_dir, tmp_path):
    args = ["eval", "--features", str(pipeline_dir / "features.csv"),
            "--algos", "gnb", "--task", "multi", "--folds", "2", "--seed", "9"]
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--report", str(r1)]) == 0
    assert main(args + ["--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def _edited_features(pipeline_dir, tmp_path, edit):
    rows = (pipeline_dir / "features.csv").read_text(encoding="utf-8").splitlines()
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(edit(rows)) + "\n", encoding="utf-8")
    return str(path)


def test_exit_code_non_finite_features(pipeline_dir, tmp_path):
    def put_nan(rows):
        cells = rows[1].split(",")
        cells[5] = "nan"
        return [rows[0], ",".join(cells)] + rows[2:]

    features = _edited_features(pipeline_dir, tmp_path, put_nan)
    model_path = tmp_path / "model.gaitmodel.json"
    assert main(["train", "--features", features, "--algo", "gnb",
                 "--out", str(model_path)]) == 2
    assert main(["train", "--features", str(pipeline_dir / "features.csv"), "--algo", "gnb",
                 "--out", str(model_path)]) == 0
    assert main(["predict", "--model", str(model_path), "--features", features,
                 "--out", str(tmp_path / "p.csv")]) == 2


def test_exit_code_duplicate_source_ids(pipeline_dir, tmp_path):
    def repeat_first_id(rows):
        first_id = rows[1].split(",")[0]
        return rows[:2] + [first_id + row[row.index(","):] for row in rows[2:]]

    features = _edited_features(pipeline_dir, tmp_path, repeat_first_id)
    assert main(["train", "--features", features, "--algo", "gnb",
                 "--out", str(tmp_path / "m.json")]) == 2
    assert main(["eval", "--features", features, "--algos", "gnb", "--folds", "2",
                 "--report", str(tmp_path / "r.json")]) == 2


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(algorithm="svm"), "unknown algorithm 'svm'"),
    (lambda doc: doc["parameters"].pop("y"), "missing parameter 'y'"),
    (lambda doc: doc["parameters"].update(mean=[0.0] * 10), "parameter 'mean' has shape (10,)"),
    (lambda doc: doc.update(version=1), "version 1 is not supported"),
], ids=["unknown-algorithm", "missing-parameter", "wrong-shape", "version-1"])
def test_exit_code_malformed_model(pipeline_dir, tmp_path, capsys, edit, message):
    features = str(pipeline_dir / "features.csv")
    model_path = tmp_path / "model.gaitmodel.json"
    assert main(["train", "--features", features, "--algo", "knn", "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    edit(doc)
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    rc = main(["predict", "--model", str(model_path), "--features", features,
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_predict_refuses_a_deeply_nested_model(pipeline_dir, tmp_path, capsys):
    model_path = tmp_path / "deep.gaitmodel.json"
    model_path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    capsys.readouterr()
    rc = main(["predict", "--model", str(model_path), "--features",
               str(pipeline_dir / "features.csv"), "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert "nested too deeply" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (None, "Expecting value: line 1 column 1 (char 0)"),
], ids=["not-utf8", "features-csv"])
def test_predict_names_an_unreadable_model_file(pipeline_dir, tmp_path, capsys, content,
                                                message):
    features = pipeline_dir / "features.csv"
    model_path = tmp_path / "model.gaitmodel.json"
    model_path.write_bytes(features.read_bytes() if content is None else content)
    capsys.readouterr()
    rc = main(["predict", "--model", str(model_path), "--features", str(features),
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {model_path}: {message}"]
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("edit", [
    lambda rows: [rows[0][:rows[0].rindex(",")]] + rows[1:],
    lambda rows: [rows[0][:rows[0].rindex("=") + 1] + "0123456789abcdef"] + rows[1:],
    lambda rows: rows[:1] + [rows[1].replace(",", "," + "1" * 200_000, 1)] + rows[2:],
], ids=["no-schema-cell", "unknown-fingerprint", "oversized-field"])
def test_exit_code_unreadable_features_csv(pipeline_dir, tmp_path, capsys, edit):
    features = _edited_features(pipeline_dir, tmp_path, edit)
    model_path = tmp_path / "model.gaitmodel.json"
    assert main(["train", "--features", features, "--algo", "gnb",
                 "--out", str(model_path)]) == 2
    assert main(["train", "--features", str(pipeline_dir / "features.csv"), "--algo", "gnb",
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--features", features,
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert str(tmp_path / "edited.csv") in capsys.readouterr().err


@pytest.mark.parametrize("manifest, message", [
    ("id,label\n{sid},Normal\n", "line 1"),
    ("source_id,label\n{sid}\n", "line 2"),
    ("source_id,label\n{sid},Normal\n{sid},Parkinson\n", "line 3: duplicate source_id"),
    ("source_id,label\n{sid},Limping\n", "line 2: unknown gait label 'Limping'"),
    ("source_id,label\n{sid},Norm\udce9al\n", "manifest.csv: not a readable manifest"),
], ids=["no-source_id-column", "short-row", "duplicate-source_id", "unknown-label", "not-utf8"])
def test_exit_code_malformed_manifest(pipeline_dir, tmp_path, capsys, manifest, message):
    src = next(iter((pipeline_dir / "corpus").glob("*.kp.jsonl")))
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / src.name).write_bytes(src.read_bytes())
    sid = src.name.removesuffix(".kp.jsonl")
    # surrogateescape writes the lone surrogate \udce9 as the byte e9, which is not UTF-8
    (corpus / "manifest.csv").write_bytes(manifest.format(sid=sid).encode("utf-8",
                                                                          "surrogateescape"))
    rc = main(["extract", "--in", str(corpus), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "manifest.csv" in err and message in err


@pytest.fixture(scope="module")
def pinned_outputs(tmp_path_factory):
    """Bytes of the extract, train, predict and eval outputs on a small seed-5 corpus."""
    root = tmp_path_factory.mktemp("pinned")
    write_corpus(root / "corpus", {label: 12 for label in GaitLabel}, seed=5, n_frames=20)
    outputs = {}
    for name, config in (("features", []),
                         ("features-video-sample", ["--norm-scope", "video", "--std", "sample"])):
        path = root / f"{name}.csv"
        assert main(["extract", "--in", str(root / "corpus"), "--out", str(path)] + config) == 0
        outputs[name] = path.read_bytes()
    features = str(root / "features.csv")
    for algo in ("knn", "tree", "forest", "gnb", "logreg"):
        model, predictions = root / f"{algo}.json", root / f"{algo}.csv"
        assert main(["train", "--features", features, "--algo", algo, "--out", str(model)]) == 0
        assert main(["predict", "--model", str(model), "--features", features,
                     "--out", str(predictions)]) == 0
        outputs[f"model-{algo}"] = model.read_bytes()
        outputs[f"predict-{algo}"] = predictions.read_bytes()
    for task in ("multi", "binary:Parkinson"):
        report = root / "report.json"
        assert main(["eval", "--features", features, "--task", task,
                     "--report", str(report)]) == 0
        outputs[f"eval-{task}"] = report.read_bytes()
    return outputs


@pytest.mark.parametrize("name, digest", [
    ("features",
     "5a4ea570ca00c9218499f6d076ad07162e0cc8238b02404e290ddd41eff22437"),
    ("features-video-sample",
     "9e691fbd63319e96646adeb5f4bc6fd1bfb8876d6bd059715e93211acb9b6ae2"),
    ("model-knn",
     "e6d3f66a3a924bec80a758323f59f16963b6b87383be98ef8e3c4b53391963d1"),
    ("model-gnb",
     "137930e053c4a12d7f81cd367d10b3d45d599864195cde3f9484b888d837132a"),
    ("model-logreg",
     "0f7d5185c26677e76a0af441780fde00230de9595b349abc47030e3b5f52d944"),
    ("predict-knn",
     "ee4e6cc3eba8b604e0f50d70d36b5968da5c70fb86665af0def1219a891f7279"),
    ("predict-tree",
     "e4de5f00cc7114ba72b423fdb2afbb8eb18f0ad1c4d47a78a9c8e1d7cbe510fd"),
    ("predict-forest",
     "dc0c8d472aab5e4156da8a9ff10cdf357611d810544d31e9eddd211f03e2f206"),
    ("predict-gnb",
     "f1339ac0ff62ab00d25bbcc35db1f70b8e789d1003e8a932ee899eefa44bbd36"),
    ("predict-logreg",
     "655e35d0c7b7b2ec849060fd0e8db250091d06e275b47aa27ec7ea74a3ba36a4"),
    ("eval-multi",
     "7936e497848c310cd92d90cf809cd732efff35f31b5937e5f76ffeefcb7b133f"),
    ("eval-binary:Parkinson",
     "5743eb8f9d0a85768a2663731c270a67e1f94759afd027df53ef6671d60a169a"),
])
def test_cli_output_bytes_pinned(pinned_outputs, name, digest):
    """The exact bytes `extract`, `train`, `predict` and `eval` write; a change that moves
    them has to update these digests."""
    assert hashlib.sha256(pinned_outputs[name]).hexdigest() == digest


@pytest.fixture(scope="module")
def huge_value_features(tmp_path_factory):
    """A 12-video features CSV, and a copy with column 5 of its first three
    rows set to the finite value 1e308."""
    root = tmp_path_factory.mktemp("huge-values")
    features, huge = root / "features.csv", root / "huge.csv"
    assert main(["synth", "--counts", "Normal=6,Parkinson=6", "--seed", "1", "--frames", "20",
                 "--out", str(root / "corpus")]) == 0
    assert main(["extract", "--in", str(root / "corpus"), "--out", str(features)]) == 0
    with open(features, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:4]:
        row[5] = "1e308"
    with open(huge, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return features, huge


@pytest.mark.parametrize("algo", ["knn", "tree", "forest", "gnb", "logreg"])
def test_predict_refuses_rows_whose_scores_overflow(huge_value_features, tmp_path, capsys,
                                                    algo):
    """A feature of 1e308 overflows the knn distances and the gnb and logreg
    class scores: predict refuses the row instead of writing nan scores or
    voting on infinite distances, in one line naming the features file, the
    data row and its source_id. Trees only compare values and score it."""
    features, huge = huge_value_features
    model, out = tmp_path / "model.json", tmp_path / "p.csv"
    assert main(["train", "--features", str(features), "--algo", algo, "--out", str(model)]) == 0
    capsys.readouterr()
    rc = main(["predict", "--model", str(model), "--features", str(huge), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    if algo in ("tree", "forest"):
        assert rc == 0 and err == []
        with open(out, newline="", encoding="utf-8") as fh:
            assert all(math.isfinite(float(v)) for row in list(csv.reader(fh))[1:]
                       for v in row[2:])
    else:
        assert rc == 2
        with open(huge, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        what = "distances" if algo == "knn" else "class scores"
        hint = "is a value far outside the model's training range?"
        assert err == [f"error: {huge} ({rows[1][0]!r}): feature row 0 gives non-finite {what}; "
                       f"{hint}"]
        assert not out.exists()
        # only the third data row is huge: the message names that row and its video
        rows[1][5], rows[2][5] = rows[4][5], rows[4][5]
        third = tmp_path / "third.csv"
        with open(third, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["predict", "--model", str(model), "--features", str(third),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {third} ({rows[3][0]!r}): feature row 2 gives non-finite {what}; {hint}"]


def test_eval_names_the_algorithm_of_a_hyperparameter_error_once(huge_value_features,
                                                                 tmp_path, capsys):
    """Two folds of the 8 training rows of a 12-video corpus leave knn 4 rows for
    its k=5: the one stderr line names knn once."""
    features, _ = huge_value_features
    report = tmp_path / "report.json"
    capsys.readouterr()
    rc = main(["eval", "--features", str(features), "--folds", "2", "--algos", "knn",
               "--report", str(report)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == ["knn: k=5 exceeds the 4 training rows"]
    assert not report.exists()


@pytest.mark.parametrize("algo", ["knn", "gnb", "logreg"])
def test_train_refuses_overflowing_features_in_one_line(huge_value_features, tmp_path, capsys,
                                                        algo):
    """Training on a feature of 1e308 overflows; the refused model is the one
    line on stderr, with no numpy warning before it."""
    _, huge = huge_value_features
    capsys.readouterr()
    rc = main(["train", "--features", str(huge), "--algo", algo,
               "--out", str(tmp_path / "m.json")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and len(err) == 1
    assert err[0].startswith(f"error: {algo} with ") and "non-finite values" in err[0]


def _run_python(code, *args, **env):
    """Run code in a fresh interpreter that imports gaitlab from this checkout."""
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, encoding="utf-8", timeout=120)


def test_predict_writes_utf8_whatever_the_locale(huge_value_features, tmp_path):
    """The predictions CSV is UTF-8 like every other output, also where the
    locale's encoding is ASCII."""
    features, _ = huge_value_features
    text = features.read_text(encoding="utf-8")
    first_id = text.splitlines()[1].split(",")[0]
    renamed = tmp_path / "renamed.csv"
    renamed.write_text(text.replace(first_id + ",", "vid\u00e9o_1,", 1), encoding="utf-8")
    model, out = tmp_path / "model.json", tmp_path / "p.csv"
    assert main(["train", "--features", str(features), "--algo", "gnb", "--out", str(model)]) == 0
    result = _run_python("import sys; from gaitlab.cli import main; sys.exit(main(sys.argv[1:]))",
                         "predict", "--model", model, "--features", renamed, "--out", out,
                         LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    assert result.returncode == 0, result.stderr
    rows = out.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 13 and rows[1].startswith("vid\u00e9o_1,")


_DEV_ONLY = ("scipy", "orjson", "hypothesis", "pytest", "pytest_benchmark")


def test_every_subcommand_runs_on_numpy_alone(tmp_path):
    """numpy is the only runtime dependency: no subcommand imports a package
    that is installed here for development only."""
    code = f"""
import sys
from gaitlab.cli import main
out = sys.argv[1]
for argv in (["synth", "--counts", "Normal=6,Parkinson=6", "--frames", "12", "--out", out + "/c"],
             ["extract", "--in", out + "/c", "--out", out + "/f.csv"],
             ["train", "--features", out + "/f.csv", "--algo", "knn", "--out", out + "/m.json"],
             ["eval", "--features", out + "/f.csv", "--folds", "2", "--report", out + "/r.json"],
             ["predict", "--model", out + "/m.json", "--features", out + "/f.csv",
              "--out", out + "/p.csv"]):
    assert main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] in {_DEV_ONLY!r}))
"""
    result = _run_python(code, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def _run_on(cpus, monkeypatch, capsys, argv, out):
    """(exit code, stdout, stderr, output bytes or None) of one run with
    ``cpus`` usable CPUs: 1 runs in this process, 2 in forked workers. No
    worker process outlives the run."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = main([str(a) for a in argv])
    stdout, stderr = capsys.readouterr()
    assert multiprocessing.active_children() == []
    return code, stdout, stderr, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("refused", [False, True], ids=["written", "refused"])
def test_extract_gives_the_same_bytes_in_one_process_and_in_workers(pipeline_dir, tmp_path,
                                                                    capsys, monkeypatch, refused):
    """Dropped-frame lines of two files in one worker's chunk, a manifest row
    without a file, a file without a manifest row whose name holds a comma and
    a double quote, and a refused file after them in that chunk: the CSV, both
    streams and the exit code are the same on the serial and the pool path,
    and the quoted source_id reads back as it was."""
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline_dir / "corpus", corpus)
    files = sorted(corpus.glob("*.kp.jsonl"))
    for path in files[1], files[5]:
        path.write_bytes(_edit_line(path.read_bytes(), 3, b'"LeftEar"', b'"LeftEars"'))
    if refused:
        files[6].write_bytes(_edit_line(files[6].read_bytes(), 2, b'"frame"', b'"frames"'))
    files[9].unlink()
    shutil.copyfile(files[0], corpus / 'a,"b".kp.jsonl')  # sorts first, in the same chunk
    out = tmp_path / "o.csv"
    argv = ["extract", "--in", corpus, "--out", out]
    serial = _run_on(1, monkeypatch, capsys, argv, out)
    pooled = _run_on(2, monkeypatch, capsys, argv, out)
    assert pooled == serial
    code, _, stderr, written = serial
    dropped = [f"{path.name.split('.')[0]}: dropped 1/24 frames" for path in (files[1], files[5])]
    if refused:
        assert code == 2 and written is None
        assert stderr.splitlines() == dropped + [
            f"error: {files[6]} line 3: missing 'frame' field"]
    else:
        assert code == 0 and len(written.splitlines()) == 31
        assert stderr.splitlines() == dropped + [
            f"{files[9].name.split('.')[0]}: in manifest.csv but has no keypoint file",
            'a,"b": no manifest.csv row, written unlabeled']
        for cpus, run in (1, serial), (2, pooled):
            back = tmp_path / f"back-{cpus}.csv"
            back.write_bytes(run[3])
            vf, label = read_features_csv(back)[0]
            assert (vf.source_id, label) == ('a,"b"', None)


@pytest.mark.parametrize("case", ["five-algorithms", "knn-fails"])
def test_eval_gives_the_same_bytes_in_one_process_and_in_workers(pipeline_dir, tmp_path, capsys,
                                                                 monkeypatch, case):
    """The report, both streams and the exit code are the same on the serial
    and the pool path, also when one algorithm fails: knn's k=5 exceeds the 4
    training rows of a class of 4 at 3 folds."""
    features = pipeline_dir / "features.csv"
    if case == "knn-fails":
        corpus, features = tmp_path / "c", tmp_path / "f.csv"
        assert main(["synth", "--counts", "Normal=4,Parkinson=4", "--frames", "12",
                     "--out", str(corpus)]) == 0
        assert main(["extract", "--in", str(corpus), "--out", str(features)]) == 0
    report = tmp_path / "report.json"
    argv = ["eval", "--features", features, "--folds", "3", "--report", report]
    serial = _run_on(1, monkeypatch, capsys, argv, report)
    assert _run_on(2, monkeypatch, capsys, argv, report) == serial
    code, _, stderr, written = serial
    assert code == 0 and len(json.loads(written)["reports"]) == 4 + (case == "five-algorithms")
    assert stderr.splitlines() == ([] if case == "five-algorithms"
                                   else ["knn: k=5 exceeds the 4 training rows"])


@pytest.mark.parametrize("refused", [False, True], ids=["written", "refused"])
def test_synth_gives_the_same_bytes_in_one_process_and_in_workers(tmp_path, capsys, monkeypatch,
                                                                  refused):
    """Every file, both streams and the exit code are the same on the serial
    and the pool path. A directory named as normal_010's file, in the middle
    of the second chunk of 8, is refused in one line after the manifest rows
    of the files before it, also those of its own chunk."""
    corpus = tmp_path / "corpus"
    counts = ("Normal=12,Parkinson=12" if refused
              else "Choreiform=3,Diplegia=4,Hemiplegia=5,Normal=6,Parkinson=7")
    squat = corpus / "normal_010.kp.jsonl"
    argv = ["synth", "--counts", counts, "--seed", "3", "--frames", "12", "--out", corpus]

    def run(cpus):
        shutil.rmtree(corpus, ignore_errors=True)
        if refused:
            squat.mkdir(parents=True)
        result = _run_on(cpus, monkeypatch, capsys, argv, corpus / "manifest.csv")
        return result, None if refused else corpus_digest(corpus)

    serial = run(1)
    assert run(2) == serial
    (code, stdout, stderr, manifest), _ = serial
    rows = manifest.decode("utf-8").splitlines()
    if refused:
        assert code == 2 and stdout == ""
        assert stderr.splitlines() == [f"error: [Errno 21] Is a directory: '{squat}'"]
        assert [row.split(",")[0] for row in rows] == ["source_id"] + [
            f"normal_{i:03d}" for i in range(10)]
    else:
        assert code == 0 and stderr == "" and stdout == f"wrote 25 sequences to {corpus}\n"
        assert len(rows) == 26 and len(list(corpus.iterdir())) == 26


def _huge_coordinates(data):
    """Every keypoint's x and y times 1e160: finite, but the features overflow."""
    frames = [json.loads(line) for line in data.splitlines()]
    for frame in frames:
        frame["kp"] = {name: [x * 1e160, y * 1e160, c] for name, (x, y, c) in frame["kp"].items()}
    return "".join(json.dumps(frame) + "\n" for frame in frames).encode("utf-8")


def _with_cell(index, value):
    """A features CSV edit that sets one cell of the first data row."""
    def edit(rows):
        cells = rows[1].split(",")
        cells[index] = value
        return [rows[0], ",".join(cells)] + rows[2:]
    return edit


def _unlabeled(rows):
    return rows[:1] + [",".join([row.split(",")[0], ""] + row.split(",")[2:]) for row in rows[1:]]


def _first_id_twice(rows):
    return rows[:2] + [rows[1].split(",")[0] + rows[2][rows[2].index(","):]] + rows[3:]


_KEYPOINT_REFUSALS = {
    "malformed-line": (lambda data: _edit_line(data, 2, b'"frame"', b'"frames"'), [], 2,
                       "{path} line 3: missing 'frame' field"),
    "duplicate-frame": (lambda data: data.splitlines(keepends=True)[0] + data, [], 2,
                        "{path} line 2: duplicate frame index 0"),
    "not-utf8": (lambda data: b"\xff" + data, [], 2,
                 "{path}: keypoint data is not UTF-8: 'utf-8' codec can't decode byte 0xff "
                 "in position 0: invalid start byte"),
    "too-few-valid-frames": (lambda data: b"".join(data.splitlines(keepends=True)[:4]), [], 3,
                             "{path}: only 4 valid frames, need at least 10"),
    "one-frame": (lambda data: data.splitlines(keepends=True)[0], ["--min-frames", "1"], 3,
                  "{path}: need at least 2 frames to aggregate, got 1"),
    "features-overflow": (_huge_coordinates, [], 2,
                          "{path} ('{sid}'): frame 0 has non-finite features; are its "
                          "coordinates too large?"),
}
_MANIFEST_REFUSALS = {
    "no-source_id-column": ("id,label\n{sid},Normal\n",
                            "{path} line 1: the header needs source_id and label columns"),
    "short-row": ("source_id,label\n{sid}\n", "{path} line 2: row has too few cells"),
    "duplicate-source_id": ("source_id,label\n{sid},Normal\n{sid},Parkinson\n",
                            "{path} line 3: duplicate source_id '{sid}'"),
    "unknown-label": ("source_id,label\n{sid},Limping\n",
                      "{path} line 2: unknown gait label 'Limping'"),
    "not-utf8": ("source_id,label\n{sid},Norm\udce9al\n",
                 "{path}: not a readable manifest: 'utf-8' codec can't decode byte 0xe9 in "
                 "position {position}: invalid continuation byte"),
}
_CSV_REFUSALS = {
    "no-schema-cell": (lambda rows: [rows[0][:rows[0].rindex(",")]] + rows[1:], 2,
                       "{path}: no gaitlab feature CSV header with a known schema= cell; "
                       "re-run `gaitlab extract` to write one"),
    "cell-count": (lambda rows: [rows[0], rows[1][:rows[1].rindex(",")]] + rows[2:], 2,
                   "{path} line 2: 227 cells, expected 228"),
    "not-a-number": (_with_cell(5, "x"), 2, "{path} line 2: could not convert string to "
                                            "float: 'x'"),
    "non-finite": (_with_cell(5, "nan"), 2, "{path} line 2: non-finite feature value for '{sid}'"),
    "oversized-field": (lambda rows: rows[:1] + [rows[1].replace(",", "," + "1" * 200_000, 1)]
                        + rows[2:], 2,
                        "{path}: not a readable feature CSV: field larger than field limit "
                        "(131072)"),
}
_LABELED_ROW_REFUSALS = {
    "no-labeled-rows": (_unlabeled, 2, "{path}: no labeled rows"),
    "duplicate-source_id": (_first_id_twice, 2, "{path}: duplicate source_id '{sid}'"),
}
_PLACED_REFUSALS = (
    [pytest.param("extract-keypoints", *case, id=f"extract-{name}")
     for name, case in _KEYPOINT_REFUSALS.items()]
    + [pytest.param("extract-manifest", manifest, [], 2, line, id=f"manifest-{name}")
       for name, (manifest, line) in _MANIFEST_REFUSALS.items()]
    + [pytest.param(command, edit, [], code, line, id=f"{command}-{name}")
       for command in ("train", "predict") for name, (edit, code, line) in _CSV_REFUSALS.items()]
    + [pytest.param(command, edit, [], code, line, id=f"{command}-{name}")
       for command in ("train", "eval")
       for name, (edit, code, line) in _LABELED_ROW_REFUSALS.items()]
    + [pytest.param("predict-overflow", algo, [], 2,
                    "{path} ('{sid}'): feature row 0 gives non-finite {what}; is a value far "
                    "outside the model's training range?", id=f"predict-overflow-{algo}")
       for algo in ("knn", "gnb", "logreg")]
    + [pytest.param("predict-model", b"[]", [], 2, "{path}: not a recognized gaitmodel document",
                    id="predict-bad-model")]
)


@pytest.mark.parametrize("command, edit, flags, code, line", _PLACED_REFUSALS)
def test_each_refusal_with_a_place_is_one_pinned_line(pipeline_dir, huge_value_features,
                                                       tmp_path, capsys, command, edit, flags,
                                                       code, line):
    """Every refusal that names its file, line or video gives exactly this one
    stderr line and exit code, and writes no output."""
    src = sorted((pipeline_dir / "corpus").glob("*.kp.jsonl"))[0]
    sid = src.name.removesuffix(".kp.jsonl")
    out, model = tmp_path / "out", tmp_path / "m.json"
    fields = {}
    if command == "extract-keypoints":
        path = tmp_path / src.name
        path.write_bytes(edit(src.read_bytes()))
        argv = ["extract", "--in", path, "--out", out, *flags]
    elif command == "extract-manifest":
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(src, corpus)
        path = corpus / "manifest.csv"
        # surrogateescape writes the lone surrogate \udce9 as the byte e9, which is not UTF-8
        path.write_bytes(edit.format(sid=sid).encode("utf-8", "surrogateescape"))
        fields["position"] = path.read_bytes().find(b"\xe9")
        argv = ["extract", "--in", corpus, "--out", out]
    elif command == "predict-model":
        path = model
        path.write_bytes(edit)
        argv = ["predict", "--model", path, "--features", pipeline_dir / "features.csv",
                "--out", out]
    else:
        features = pipeline_dir / "features.csv"
        if command == "predict-overflow":
            features, path = huge_value_features
            fields["what"] = "distances" if edit == "knn" else "class scores"
        else:
            path = Path(_edited_features(pipeline_dir, tmp_path, edit))
        sid = path.read_text(encoding="utf-8").splitlines()[1].split(",")[0]
        algo = edit if command == "predict-overflow" else "gnb"
        if command.startswith("predict"):
            assert main(["train", "--features", str(features), "--algo", algo,
                         "--out", str(model)]) == 0
            argv = ["predict", "--model", model, "--features", path, "--out", out]
        elif command == "train":
            argv = ["train", "--features", path, "--algo", algo, "--out", out]
        else:
            argv = ["eval", "--features", path, "--algos", algo, "--folds", "2", "--report", out]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == code
    expected = "error: " + line.format(path=path, sid=sid, **fields)
    assert capsys.readouterr().err.splitlines() == [expected]
    assert not out.exists()
