"""Record the benchmark's numbers for the current checkout in baseline.json.

    python3 perfbench/record.py --seeds 1-10

Runs every workload once per seed with tracing off, each run in a fresh
process for the ``run_seconds`` of BENCHMARK.json, then once with tracing
on (first seed).  The workloads take turns within each seed, so each
workload's runs spread over the whole recording and a slow spell of the
host does not fall on one workload alone.  Writes, per workload, the
median and quartiles of every end-to-end metric, the error rate with the
known failing inputs, and the traced per-layer metrics; plus the
environment (git sha, Python and numpy versions, nproc) and the predicted
map from per-layer metrics to the end-to-end metrics they should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Which end-to-end metric a per-layer metric should move, and where it
# should not move, written down before any optimisation lands.
LAYER_TO_END_TO_END = {
    "counting.restricted.self_s": {"moves": ["audit wall_s", "exact op_p90_ms"],
                                   "no_move": ["numeric"]},
    "counting.self_s": {"moves": ["exact wall_s", "exact op_p90_ms"], "no_move": ["numeric"]},
    "series.mul.calls": {"moves": ["audit wall_s"], "zero_on": ["exact", "numeric"]},
    "series.self_s": {"moves": ["audit wall_s"], "zero_on": ["exact", "numeric"]},
    "saddle.ms_per_call": {"moves": ["numeric wall_s", "numeric op_p90_ms"],
                           "zero_on": ["exact", "audit"]},
    "saddle.self_s": {"moves": ["numeric wall_s", "numeric op_p90_ms"],
                      "zero_on": ["exact", "audit"]},
    "asymptotic.us_per_call": {"moves": ["numeric op_p50_ms"], "small_on": ["exact"]},
    "asymptotic.self_s": {"moves": ["numeric op_p50_ms"], "small_on": ["exact"]},
    "fluctuation.self_s": {"moves": ["numeric op_p50_ms"]},
    "cli.self_s": {"moves": ["exact op_p50_ms (ranges against point queries)",
                             "peak_rss_mb everywhere"]},
    "cli.bytes_out": {"moves": ["exact op_p50_ms", "peak_rss_mb everywhere"]},
    "trace.overhead_s": {"moves": [], "meaning":
                         "median over pass pairs of traced minus untraced wall time"},
}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: float, traced: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(traced), "--details"]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    record = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seeds": seeds,
        "run_seconds": seconds,
        "layer_to_end_to_end": LAYER_TO_END_TO_END,
        "workloads": {},
    }
    by_workload = {name: [] for name in workloads.WORKLOADS}
    for seed in seeds:
        for name, runs in by_workload.items():
            runs.append(_run(name, seed, seconds, 0))
        print(f"recorded seed {seed}", flush=True)
    for name, runs in by_workload.items():
        metrics = {}
        for key in runs[0]["metrics"]:
            values = [r["metrics"][key] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[key] = {"median": med, "q1": q1, "q3": q3,
                            "iqr_over_median": (q3 - q1) / med, "values": values}
        traced = _run(name, seeds[0], seconds, 1)
        record["workloads"][name] = {
            "why": workloads.WHY[name],
            "ops_per_pass": runs[0]["ops_per_pass"],
            "strata": {k: v[0] for k, v in runs[0]["strata"].items()},
            "end_to_end": metrics,
            "error_rate": [r["failed"] / r["attempted"] for r in runs],
            "run_elapsed_s": [r["elapsed_s"] for r in [*runs, traced]],
            "known_failures": runs[0]["known"],
            "wrong_outputs": sorted({w for r in runs for w in r["wrong"]}),
            "per_layer": traced["metrics"],
        }
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
