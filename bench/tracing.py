"""Spans around calls into gaitlab's public functions, recorded from outside.

A `Tracer` replaces each traced function with a wrapper in every loaded
gaitlab module that holds a reference to it, so callers that imported the
function by name (``cli`` imports ``featurize_sequence``, ``video_features``
imports ``extract_sequence``) are traced too. Nothing under ``src/`` changes.

A span is (name, start, end, parent, pass, attrs). A pass is one set-up
repetition or one benchmark operation; the spans of one pass share its id.
Spans stay in memory until `write` dumps them as JSON lines.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ALGORITHMS = ("knn", "tree", "forest", "gnb", "logreg")


def _frames(args, kwargs, result, exc):
    return {"frames": len(result)} if exc is None else {}


def _filtered(args, kwargs, result, exc):
    # A rejected sequence still had its invalid frames dropped before the raise.
    if exc is None:
        return {"dropped": result[1].dropped_frames}
    if type(exc).__name__ == "TooFewValidFrames":
        return {"dropped": len(args[0]) - exc.valid}
    return {}


def _extracted(args, kwargs, result, exc):
    if exc is not None:
        return {}
    feats, n_failed = result
    return {"frames": len(feats) + n_failed, "degenerate": n_failed}


def _algo_arg(args, kwargs, result, exc):
    return {"algo": args[0] if args else kwargs["algorithm"]}


def _predicted(args, kwargs, result, exc):
    return {"algo": args[0].algorithm}


def _loaded(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"algo": result.algorithm, "bytes": Path(args[0]).stat().st_size}


def _none(args, kwargs, result, exc):
    return {}


# (module, function, attrs); every public function a layer metric needs
TARGETS = (
    ("synth", "write_corpus", _none),
    ("synth", "generate", _frames),
    ("ingest", "load_keypoint_file", _none),
    ("ingest", "parse_keypoint_file", _frames),
    ("ingest", "filter_valid", _filtered),
    ("frame_features", "extract_sequence", _extracted),
    ("video_features", "featurize_sequence", _none),
    ("video_features", "aggregate", _none),
    ("video_features", "write_features_csv", _none),
    ("video_features", "read_features_csv", _none),
    ("classify", "train", _algo_arg),
    ("classify", "predict", _predicted),
    ("classify", "load_model", _loaded),
    ("evaluate", "stratified_split", _none),
    ("evaluate", "cross_validate", _algo_arg),
    ("evaluate", "run_task", _none),
    ("cli", "main", _none),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "attrs", "child_s")

    def __init__(self, name, parent, pass_id):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.pass_id = pass_id
        self.attrs = {}
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.passes = {"setup": [], "op": []}
        self.pass_id = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def begin(self, phase: str, index: int):
        """Attribute the spans that follow to pass ``(phase, index)``."""
        self.pass_id = (phase, index)
        self.passes[phase].append(self.pass_id)

    def _wrap(self, name, fn, attrs_fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, parent, self.pass_id)
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span.end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.end - span.start
                span.attrs = attrs_fn(args, kwargs, result, exc)

        return traced

    def install(self):
        """Wrap every target wherever a gaitlab module holds a reference to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gaitlab" or n.startswith("gaitlab."))]
        for mod_name, fn_name, attrs_fn in TARGETS:
            original = getattr(sys.modules[f"gaitlab.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, attrs_fn)
            for module in modules:
                if module.__dict__.get(fn_name) is original:
                    setattr(module, fn_name, wrapper)
                    self._patched.append((module, fn_name, original))

    def uninstall(self):
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "pass": list(s.pass_id), "self_s": s.self_s,
                    **s.attrs,
                }) + "\n")


def unit(metric: str) -> str:
    family = metric.split(".")[1]  # "parse_s", "predict_us_p50", "model_bytes", ...
    if family.endswith("_s"):
        return "s"
    if family.endswith("_pct"):
        return "%"
    if "us_" in family:
        return "us"
    return "bytes" if family == "model_bytes" else "count"


def percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, setup_spans: frozenset, overhead_pct: float) -> dict:
    """Per-layer metrics from the recorded spans.

    A span name in ``setup_spans`` is measured over the set-up repetitions,
    every other name over the traced operations. A time is the median over
    passes of the per-pass total; a count is the mean per pass.
    """

    def per_pass(names, value, algo=None):
        phase = "setup" if names[0] in setup_spans else "op"
        totals = dict.fromkeys(tracer.passes[phase], 0.0)
        for s in tracer.spans:
            if (s.name in names and s.pass_id in totals
                    and (algo is None or s.attrs.get("algo") == algo)):
                totals[s.pass_id] += value(s)
        return list(totals.values()) or [0.0]

    def time_s(*names, algo=None, own=False):
        value = (lambda s: s.self_s) if own else (lambda s: s.duration)
        return statistics.median(per_pass(names, value, algo))

    def count(name, key=None, algo=None):
        value = (lambda s: s.attrs.get(key, 0)) if key else (lambda s: 1)
        return statistics.fmean(per_pass((name,), value, algo))

    def layer_self_s(layer):
        return time_s(*[f"{m}.{f}" for m, f, _ in TARGETS if m == layer], own=True)

    extract_s = sum(per_pass(("frame_features.extract_sequence",), lambda s: s.duration))
    extract_frames = sum(per_pass(("frame_features.extract_sequence",),
                                  lambda s: s.attrs.get("frames", 0)))
    m = {
        "ingest.parse_s": time_s("ingest.load_keypoint_file", "ingest.parse_keypoint_file",
                                 own=True),
        "ingest.frames_parsed": count("ingest.parse_keypoint_file", "frames"),
        "ingest.filter_s": time_s("ingest.filter_valid"),
        "ingest.frames_dropped": count("ingest.filter_valid", "dropped"),
        "frame_features.extract_s": time_s("frame_features.extract_sequence"),
        "frame_features.us_per_frame": 1e6 * extract_s / extract_frames if extract_frames else 0.0,
        "frame_features.degenerate_frames": count("frame_features.extract_sequence", "degenerate"),
        "video_features.aggregate_s": time_s("video_features.aggregate"),
        "video_features.csv_write_s": time_s("video_features.write_features_csv"),
        "video_features.csv_read_s": time_s("video_features.read_features_csv"),
    }
    for a in ALGORITHMS:
        m[f"classify.train_s.{a}"] = time_s("classify.train", algo=a)
        m[f"classify.fits.{a}"] = count("classify.train", algo=a)
    for a in ALGORITHMS:
        us = [1e6 * s.duration for s in tracer.spans
              if s.name == "classify.predict" and s.pass_id[0] == "op"
              and s.attrs.get("algo") == a]
        m[f"classify.predict_us_p50.{a}"] = percentile(us, 50)
        m[f"classify.predict_us_p95.{a}"] = percentile(us, 95)
        m[f"classify.predicts.{a}"] = count("classify.predict", algo=a)
    for a in ALGORITHMS:
        m[f"classify.load_model_s.{a}"] = time_s("classify.load_model", algo=a)
        m[f"classify.model_bytes.{a}"] = count("classify.load_model", "bytes", algo=a)
    for a in ALGORITHMS:
        m[f"evaluate.cross_validate_s.{a}"] = time_s("evaluate.cross_validate", algo=a)
    m["evaluate.self_s"] = layer_self_s("evaluate")
    m["synth.write_corpus_s"] = time_s("synth.write_corpus")
    m["synth.frames"] = count("synth.generate", "frames")
    m["cli.self_s"] = layer_self_s("cli")
    m["trace.overhead_pct"] = overhead_pct
    return m
