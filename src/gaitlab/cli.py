"""Command-line pipeline: extract, synth, train, eval, predict.

Exit code 0 on success; a failure exits with its error's ``exit_code``
(see gaitlab.errors), and a ValueError or OSError with ParseError's.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

from . import classify, evaluate, ingest, synth
from .errors import GaitLabError, InsufficientDataError, ParseError
from .pose import GaitLabel
from .frame_features import NORM_SCOPES
from .video_features import (STD_MODES, FeatureTable, featurize_sequence, read_features_csv,
                             schema_config, write_features_csv)


def _parse_counts(text: str) -> dict:
    counts = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        try:
            count = int(value)
        except ValueError:  # also an entry without "="
            raise ValueError(f"bad counts entry {part!r}, expected Label=N") from None
        label = GaitLabel.from_name(name)
        if label in counts:
            raise ValueError(f"label {label.value!r} is counted twice")
        counts[label] = count
    return counts


def _number(kind, low, high, wanted: str):
    """The argparse type of a numeric flag: a ``kind`` value in [low, high]."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:  # a NaN fails too
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value
    return parse


_seed = _number(int, 0, math.inf, "a non-negative integer")


def _keypoint_files(in_path: Path) -> list[Path]:
    if in_path.is_dir():
        files = sorted(in_path.glob("*.kp.jsonl"))
        if not files:
            raise FileNotFoundError(f"no .kp.jsonl files in {in_path}")
        return files
    if not in_path.exists():
        raise FileNotFoundError(str(in_path))
    return [in_path]


def cmd_extract(args) -> int:
    in_path = Path(args.in_path)
    files = _keypoint_files(in_path)
    manifest = in_path / "manifest.csv" if in_path.is_dir() else None
    labels = synth.read_manifest(manifest) if manifest and manifest.exists() else None
    rows = []
    for path in files:
        try:
            seq = ingest.load_keypoint_file(path)
            seq, report = ingest.filter_valid(seq, args.min_conf, args.min_frames)
            vf = featurize_sequence(seq, norm_scope=args.norm_scope, std_mode=args.std)
        except GaitLabError as exc:  # name the file, keeping the type and so the exit code
            exc.args = (f"{path}: {exc}",)
            raise
        rows.append((vf, None if labels is None else labels.get(seq.source_id)))
        if report.dropped_frames:
            print(f"{seq.source_id}: dropped {report.dropped_frames}/"
                  f"{report.total_frames} frames", file=sys.stderr)
    if labels is not None:  # a manifest and the files should name the same videos
        found = {vf.source_id for vf, _ in rows}
        for source_id in labels:
            if source_id not in found:
                print(f"{source_id}: in manifest.csv but has no keypoint file", file=sys.stderr)
        for vf, label in rows:
            if label is None:
                print(f"{vf.source_id}: no manifest.csv row, written unlabeled", file=sys.stderr)
    write_features_csv(FeatureTable.from_rows(rows), args.out)
    print(f"wrote {len(rows)} video feature rows to {args.out}")
    return 0


def cmd_synth(args) -> int:
    counts = None if args.counts is None else _parse_counts(args.counts)
    written = synth.write_corpus(args.out, counts=counts, seed=args.seed,
                                 n_frames=args.frames)
    print(f"wrote {len(written)} sequences to {args.out}")
    return 0


def _labeled_rows(args) -> FeatureTable:
    table = FeatureTable.from_rows([(vf, label) for vf, label in read_features_csv(args.features)
                                    if label is not None])
    if not len(table):
        raise ParseError(f"no labeled rows in {args.features}")
    seen = set()
    for source_id in table.source_ids:
        if source_id in seen:
            raise ParseError(f"duplicate source_id {source_id!r} in {args.features}")
        seen.add(source_id)
    return table


def cmd_train(args) -> int:
    table = _labeled_rows(args)
    table = table[evaluate.task_rows(args.task, table.labels)]
    if not len(table):
        labels = ", ".join(label.value for label in evaluate.task_labels(args.task))
        raise InsufficientDataError(f"task {args.task!r} has no rows of its labels ({labels}) "
                                    f"in {args.features}")
    model = classify.train(args.algo, table, seed=args.seed)
    classify.save_model(model, args.out)
    print(f"trained {args.algo} on {len(table)} videos -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    table = _labeled_rows(args)
    algorithms = list(classify.ALGORITHMS) if args.algos == "all" else args.algos.split(",")
    for i, a in enumerate(algorithms):
        if a not in classify.ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}")
        if a in algorithms[:i]:
            raise ValueError(f"algorithm {a!r} is listed twice")
    reports, errors = evaluate.run_task(args.task, algorithms, table, folds=args.folds,
                                        seed=args.seed)
    for algorithm, exc in errors.items():  # name the algorithm once, if its message does not
        message = str(exc)
        print(message if message.startswith(algorithm) else f"{algorithm}: {message}",
              file=sys.stderr)
    if not reports:  # each algorithm's message is printed above
        return _exit_code(next(iter(errors.values())))
    norm_scope, std = schema_config(table.fingerprint)
    extra = {
        "task": args.task,
        "folds": args.folds,
        "seed": args.seed,
        "norm_scope": norm_scope,
        "std": std,
    }
    Path(args.report).write_text(evaluate.reports_to_json(reports, extra), encoding="utf-8")
    print(evaluate.render_text_table(reports), end="")
    print(f"report written to {args.report}")
    return 0


def cmd_predict(args) -> int:
    model = classify.load_model(args.model)
    table = FeatureTable.from_rows(read_features_csv(args.features))
    try:
        scores = classify.scores(model, table.X, table.fingerprint)
    except classify.UnscorableRow as exc:  # name the file and video, as the CSV reader does
        raise ParseError(f"{args.features} data row {exc.row + 1} "
                         f"({table.source_ids[exc.row]!r}) gives {exc.reason}") from None
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source_id", "predicted"]
                        + [f"score_{c.value}" for c in model.class_set])
        for source_id, row in zip(table.source_ids, scores):
            label = model.class_set[int(row.argmax())]
            writer.writerow([source_id, label.value] + [repr(float(s)) for s in row])
    print(f"wrote {len(table)} predictions to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gaitlab",
                                     description="Gait feature extraction and "
                                                 "abnormality classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="keypoint JSONL -> video feature CSV")
    p.add_argument("--in", dest="in_path", required=True,
                   help="a .kp.jsonl file or a directory of them")
    p.add_argument("--out", required=True, help="output features CSV")
    p.add_argument("--min-conf", type=_number(float, 0.0, 1.0, "a number in [0, 1]"),
                   default=ingest.DEFAULT_MIN_CONFIDENCE)
    p.add_argument("--min-frames", type=_number(int, 1, math.inf, "an integer >= 1"),
                   default=ingest.DEFAULT_MIN_VALID_FRAMES)
    p.add_argument("--norm-scope", choices=NORM_SCOPES, default="frame",
                   help="distance normalization scope (default: frame)")
    p.add_argument("--std", choices=STD_MODES, default="population",
                   help="standard deviation convention (default: population)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--counts", default=None,
                   help="per-class counts, e.g. Choreiform=51,Diplegia=55,...")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--frames", type=_number(int, 2, math.inf, "an integer >= 2"), default=60,
                   help="frames per sequence")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one classifier on a feature CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--algo", required=True, choices=classify.ALGORITHMS)
    p.add_argument("--task", default="multi", help="multi or binary:<Label>")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output .gaitmodel.json path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="split, cross-validate and test algorithms")
    p.add_argument("--features", required=True)
    p.add_argument("--algos", default="all", help="'all' or comma-separated list")
    p.add_argument("--task", default="multi", help="multi or binary:<Label>")
    p.add_argument("--folds", type=_number(int, 2, math.inf, "an integer >= 2"),
                   default=evaluate.DEFAULT_FOLDS)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--report", required=True, help="output report JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="predict labels for a feature CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="output predictions CSV")
    p.set_defaults(func=cmd_predict)

    return parser


def _exit_code(exc: Exception) -> int:
    """The exit code of an error the CLI reports by its message; re-raises any other."""
    if isinstance(exc, GaitLabError):
        return exc.exit_code
    if isinstance(exc, (ValueError, OSError)):
        return ParseError.exit_code
    raise exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code = _exit_code(exc)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
