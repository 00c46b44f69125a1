"""Run one workload on several seeds, one fresh process each, and give every
end-to-end metric's median, quartiles and quartile spread as a share of the
median, next to the bound BENCHMARK.json fixes for it.

    python3 bench/spread.py --workload score-stream --seeds 31-40
    python3 bench/spread.py --workload all --seeds 31-40 --baseline bench/baseline.json

With ``--baseline`` the figures of every workload run, and one traced run per
workload at seed 42 for the per-layer metrics, are written to that file.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACED_SEED = 42


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    record = json.loads(lines[-2].removeprefix("record: "))
    return record, json.loads(lines[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None  # error_rate reads 0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def measure(workload, seeds, seconds):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    records = []
    for seed in seeds:
        record, result = run(workload, seed, seconds, 0)
        records.append(record)
        s = record["summary"]
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={s[k]:.4g}" for k in (*bounds, "wall_videos_per_s", "host_speed")), flush=True)
    figures = {k: quartiles([r["summary"][k] for r in records]) for k in records[0]["summary"]}
    for name, bound in bounds.items():
        q = figures[name]
        print(f"{workload} {name}: median {q['median']:.4g}, spread {q['spread']:.3f} "
              f"(bound {bound}, a third of it {bound / 3:.3f})")
    return records, figures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("31-40"))
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]] if args.workload == "all" else [args.workload]

    baseline = {"workloads": {}}
    for name in names:
        records, figures = measure(name, args.seeds, args.seconds)
        baseline["workloads"][name] = {
            "seeds": args.seeds, "seconds": args.seconds,
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "input": {**records[0]["input"], "requests": [r["input"]["requests"] for r in records]},
            "summary": figures,
        }
        if args.baseline:
            _, traced = run(name, TRACED_SEED, args.seconds, 1)
            baseline["workloads"][name]["traced_run"] = {
                "seed": TRACED_SEED,
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            }
    if args.baseline:
        first = records[0]
        baseline["machine"] = {
            "nproc": first["nproc"], "python": first["python"], "numpy": first["numpy"],
            "cpu": platform.processor() or platform.machine(),
            "git_commit": first["git_commit"], "src_lines": first["src_lines"],
            "reference_kernel_s": first["reference_kernel_s"],
        }
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")


if __name__ == "__main__":
    main()
