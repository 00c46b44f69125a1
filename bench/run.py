"""gaitlab benchmark runner: one workload in this fresh, single-threaded process.

    python3 bench/run.py --workload extract-corpus --seed 42 --seconds 15 --trace 0
    python3 bench/run.py --workload all        # each workload in its own process

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it is the run record. The exit code is nonzero when any output
check fails or the program under test cannot be found.

The end-to-end times are in reference seconds (see ``hostspeed``): wall time
scaled by the host speed sampled while it passed. The run record keeps the
wall-clock figures and the host speed next to them.
"""

import os
import sys

# Pin BLAS/OpenMP pools to one thread before numpy is first imported, and
# compile the sources on every run so that import time does not depend on
# what earlier runs left behind.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("extract-corpus", "eval-multi", "score-stream")
SETUP_REPS = 3  # set-up is repeated and its median reported
MIN_OPS = 2  # so that outputs can be compared and the traced run has a traced op

END_TO_END_UNITS = {"setup_s": "s", "videos_per_s": "1/s", "peak_rss_mb": "MB"}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run_all(args) -> int:
    """Each workload in a fresh child process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.small:
            cmd.append("--small")
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny corpus and request pool, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "gaitlab" / "__init__.py").is_file():
        print(f"error: gaitlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A traced run reports wall times: its sampler is never started, so its
    # marks carry no samples and a scale of 1.
    speed = hostspeed.HostSpeed()
    if not args.trace:
        speed.start()
    try:
        start = speed.mark()
        import gaitlab
        imported = speed.mark()
        return run_workload(args, speed, (start, imported), gaitlab)
    finally:
        speed.stop()


def run_workload(args, speed, import_marks, gaitlab) -> int:
    if Path(gaitlab.__file__).resolve().parent != SRC / "gaitlab":
        print(f"error: imported gaitlab from {gaitlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](work, args.seed, args.small)
        return measure(args, speed, import_marks, wl)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, speed, import_marks, wl) -> int:
    tracer = tracing.Tracer() if args.trace else None

    setup_times, setup_wall = [], []
    for rep in range(SETUP_REPS):
        wl.reset()
        if tracer:
            tracer.install()
            tracer.begin("setup", rep)
        m0 = speed.mark()
        wl.setup()
        m1 = speed.mark()
        setup_times.append(speed.reference_s(m0, m1))
        setup_wall.append(speed.net_s(m0, m1))
        if tracer:
            tracer.uninstall()

    # Operations alternate untraced and traced in a traced run, so that the
    # two medians give the tracing overhead under the same conditions.
    times = {False: [], True: []}
    problems = {}
    loop_start = speed.mark()
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < MIN_OPS or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
            tracer.begin("op", i)
        m0 = speed.mark()
        try:
            result = wl.op(i)
        except Exception as exc:  # an unexpected error fails this operation only
            result, problems[i] = None, [f"{type(exc).__name__}: {exc}"]
        m1 = speed.mark()
        if traced:
            tracer.uninstall()
        times[traced].append(speed.net_s(m0, m1))
        if i not in problems:
            problems[i] = wl.after(i, result)
        speed.tick()
        i += 1
    loop_end = speed.mark()
    for op, found in wl.finish().items():
        problems[op] = problems[op] + found
    attempted = i
    failures = {op: p for op, p in problems.items() if p}
    for op in sorted(failures)[:10]:
        print(f"operation {op} failed: {'; '.join(failures[op])}", file=sys.stderr)

    # Throughput is videos over the summed reference time of the untraced
    # operations: their wall time less the samples', scaled by the host speed
    # sampled over the whole loop. Latency medians are wall times and are not
    # gated: on a shared host they jump between the host's speed states.
    plain = times[False]
    scale = speed.scale(loop_start, loop_end)
    summary = {
        "setup_s": speed.reference_s(*import_marks) + statistics.median(setup_times),
        "videos_per_s": wl.videos * len(plain) / (sum(plain) * scale),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB
        "error_rate": len(failures) / attempted,
        "wall_setup_s": speed.net_s(*import_marks) + statistics.median(setup_wall),
        "wall_videos_per_s": wl.videos * len(plain) / sum(plain),
        "host_speed": scale,
        "host_samples": len(speed.samples),
    }
    if args.workload == "extract-corpus":
        summary["extract_frames_per_s"] = summary["videos_per_s"] * wl.frames
    elif args.workload == "eval-multi":
        summary["eval_s"] = statistics.median(plain) * scale
    else:
        summary["score_p50_ms"] = 1000.0 * statistics.median(plain)
        summary["score_p95_ms"] = 1000.0 * tracing.percentile(plain, 95)
        summary["score_samples"] = len(plain)
        summary["score_videos_per_s"] = summary["videos_per_s"]

    if tracer:
        overhead = 100.0 * (statistics.median(times[True]) / statistics.median(plain) - 1)
        values = tracing.layer_metrics(tracer, wl.setup_spans, overhead)
        units = {name: tracing.unit(name) for name in values}
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {k: summary[k] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "setup_reps": SETUP_REPS,
        "reference_kernel_s": hostspeed.REFERENCE_KERNEL_S,
        "sample_interval_s": hostspeed.INTERVAL_S,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(), "src_lines": src_lines(),
        "input": {**wl.size(), "requests": attempted},
        "attempted": attempted, "failed": len(failures),
        "summary": summary,
    }
    (WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(f"{args.workload}: " + ", ".join(f"{k}={v:.6g}" for k, v in summary.items()))
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
