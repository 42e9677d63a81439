#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises every metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                  [--out perfbench/baseline.json]

Run from the repository root. For each workload it runs perfbench/run.py
once per seed, then reports per metric the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, against
the metric's bound from BENCHMARK.json when it has one. With --out, the
summary is written as JSON stamped with the git revision, nproc and the CPU
model. Exits non-zero when any run fails or an end-to-end spread (other than
setup_s) exceeds its bound.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    # One digest per point: every pass of a run must reproduce it, or the run fails.
    digests = list(dict.fromkeys(ln.split()[-1] for ln in lines if ln.startswith("point ")))
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, digests
    return json.loads(lines[-1]), digests


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    a = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(a.seeds)
    report = {"git_rev": git_rev(), "nproc": os.cpu_count(), "cpu_model": cpu_model(),
              "run_seconds": spec["run_seconds"], "seeds": seeds, "trace": a.trace,
              "workloads": {}}
    ok = True
    for workload in a.workloads.split(","):
        runs = {}
        for seed in seeds:
            result, digests = run_once(workload, seed, spec["run_seconds"], a.trace)
            if result is None or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: FAILED", flush=True)
                ok = False
                continue
            runs[seed] = {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
                          "attempted": result["attempted"], "digests": digests}
            print(f"{workload} seed {seed}: ok " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[seed]["metrics"].items()
                if k in bounds), flush=True)
        if not runs:
            continue
        metrics = {}
        for name in next(iter(runs.values()))["metrics"]:
            s = summarise([r["metrics"][name] for r in runs.values()])
            metrics[name] = s
            flag = ""
            if name in bounds:
                bound = bounds[name]
                if name != "setup_s" and s["spread"] > bound:
                    ok = False
                flag = "ok" if s["spread"] < bound / 3 else (
                    "WIDE" if s["spread"] <= bound else "OVER")
            print(f"  {name:28s} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
                  f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f} {flag}", flush=True)
        report["workloads"][workload] = {
            "metrics": metrics,
            "digests": {str(seed): r["digests"] for seed, r in runs.items()},
        }
    if a.out:
        Path(a.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
