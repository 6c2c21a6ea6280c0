"""Benchmark for partition-dos: seeded workloads, checked outputs, per-layer trace.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client in a closed loop: a single process and thread runs the
workload's ops back to back, in process, each op starting when the previous
one returns.  An op is one ``partition_dos.cli.main(argv)`` call writing to
a temp file, or one public library call (see workloads.py).  Passes over the
same op list repeat until ``--seconds`` is used up; every op of every pass
is timed and its output checked against oracle.py.

``--trace 0`` prints the end-to-end metrics: mean pass wall time, median
and 90th-percentile op latency over all passes, peak resident memory of this
process, and ``setup_s``, the median over fresh interpreters, started
between passes, of the time from process start until ``partition_dos.cli``
is imported and its parser is built.  ``--trace 1`` alternates untraced
and traced passes (layertrace.py) and prints the per-layer metrics of the
traced pass with the median wall time; ``trace.overhead_s`` is the median,
over those pairs, of a traced pass's wall time minus that of the untraced
pass just before it.  The traced pass must write the same outputs as the
untraced one.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  An op fails when it raises, exits non-zero or fails its
check; failed ops are still timed and never stop the run.  ``correct`` is
false when an op wrote a wrong output or tracing changed an output.
``--workload all`` runs every workload with tracing off and on, each in its
own process, and prints one table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import partition_dos.cli as cli\n"
    "cli.build_parser()\n"
    "print(repr(time.time()))\n"
)

LIB_CALLS = {
    "restricted_table": lambda pd, s, distinct, n_parts, n: pd.counting.build_table(
        pd.counting.SpectrumSpec(s, distinct, n_parts), n).counts,
    "bose_gf": lambda pd, s, d: pd.series.bose_gf(s, d).coeffs,
    "fermi_gf": lambda pd, s, d: pd.series.fermi_gf(s, d).coeffs,
    "distinct_restricted_gf": lambda pd, n_parts, d: pd.series.distinct_restricted_gf(
        n_parts, d).coeffs,
}

END_TO_END_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def load_package():
    """Import partition_dos from this checkout's src/, or exit non-zero."""
    init = SRC / "partition_dos" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} is missing; run from a partition-dos checkout")
    sys.path.insert(0, str(SRC))
    import partition_dos
    import partition_dos.cli  # noqa: F401

    if Path(partition_dos.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported {partition_dos.__file__}, expected {init}")
    return partition_dos


def setup_seconds() -> float:
    start = time.time()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - start


def _digest(output) -> bytes:
    data = output if isinstance(output, bytes) else repr(output).encode()
    return hashlib.blake2b(data, digest_size=16).digest()


def run_pass(pd, ops, workdir: Path, kept: dict):
    """Run every op once.

    Returns (wall seconds, [(seconds, error, output digest, output bytes)]).
    Each distinct output is kept once as a file in ``workdir``, listed in
    ``kept`` under (op index, digest), for the checks after the run: the
    harness holds no outputs in memory while peak memory is measured.
    """
    paths = [str(workdir / f"op{i}.out") for i in range(len(ops))]
    clock = time.perf_counter
    timed = []
    gc.collect()
    start = clock()
    for op, path in zip(ops, paths):
        t0 = clock()
        error = output = None
        try:
            if op.kind == "cli":
                rc = pd.cli.main([*op.args, "--output", path])
                if rc != 0:
                    error = f"exit code {rc}"
            else:
                output = LIB_CALLS[op.target](pd, *op.args)
        except Exception as exc:  # a failing op is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        timed.append((clock() - t0, error, output))
    wall = clock() - start
    outcomes = []
    for idx, (op, path, (seconds, error, output)) in enumerate(zip(ops, paths, timed)):
        size, digest = 0, None
        if op.kind == "cli" and error is None:
            output = Path(path).read_bytes()
            size = len(output)
        if error is None:
            digest = _digest(output)
            if (idx, digest) not in kept:
                keep = workdir / f"keep{idx}-{digest.hex()}"
                if op.kind == "cli":
                    os.replace(path, keep)
                else:
                    keep.write_bytes(pickle.dumps(output))
                kept[(idx, digest)] = keep
        if os.path.exists(path):
            os.unlink(path)
        outcomes.append((seconds, error, digest, size))
    return wall, outcomes


class Verdicts:
    """Checks each distinct (op, outcome) once and tallies the results.

    Every failed op counts in ``failed``.  A failure whose cause the oracle
    confirms as a known defect is listed in ``known``; anything else (a
    wrong output, an unexplained exception) goes to ``wrong``.
    """

    def __init__(self, ops, kept: dict) -> None:
        self.ops = ops
        self.kept = kept
        self.checker = oracle.Checker()
        self._seen: dict = {}
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.known: Counter = Counter()

    def _judge(self, idx, error, digest) -> str | None:
        op = self.ops[idx]
        if error is not None:
            if op.kind == "cli":
                known = self.checker.explain_failure(op.args, error)
                if known:
                    return f"{error.split(':', 1)[0]}, {known}"
            return f"unexplained failure {error}"
        data = self.kept[(idx, digest)].read_bytes()
        if op.kind == "cli":
            return self.checker.check_cli(op.args, data.decode("utf-8"))
        return self.checker.check_lib(op.target, op.args, pickle.loads(data))

    def add_pass(self, outcomes) -> None:
        for idx, (_, error, digest, _) in enumerate(outcomes):
            self.attempted += 1
            key = (idx, error, digest)
            if key not in self._seen:
                reason = self._seen[key] = self._judge(idx, error, digest)
                if reason and oracle.KNOWN not in reason:
                    self.wrong.append(f"{self.ops[idx].label()}: {reason}")
            reason = self._seen[key]
            if reason:
                self.failed += 1
                if oracle.KNOWN in reason:
                    self.known[(self.ops[idx].stratum, reason)] += 1


def run_workload(pd, name: str, seed: int, seconds: float, traced: bool,
                 scale: float = 1.0) -> dict:
    """Measure one workload; outputs are checked after the last pass.

    The checks run after peak memory is read, so the oracle's tables do not
    count as the program's memory.  With tracing off, one set-up sample is
    taken before each pass (the rest after the last), so that ``setup_s``
    spans the whole run rather than one moment of it.  scale < 1 is the
    self-test's smoke size.
    """
    ops = workloads.generate(name, seed, scale)
    kept: dict = {}
    setup: list[float] = []
    tracer = layertrace.Tracer()
    walls, passes, traced_runs = [], [], []
    mismatch = set()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        start = time.perf_counter()
        while True:
            if not traced and len(setup) < SETUP_SAMPLES:
                setup.append(setup_seconds())
            wall, outcomes = run_pass(pd, ops, workdir, kept)
            walls.append(wall)
            passes.append(outcomes)
            if traced:
                tracer.clear()
                with layertrace.patched(tracer, pd):
                    t_wall, t_outcomes = run_pass(pd, ops, workdir, kept)
                passes.append(t_outcomes)
                mismatch.update(op.label() for op, a, b in zip(ops, outcomes, t_outcomes)
                                if a[1:3] != b[1:3])
                layers = layertrace.layer_metrics(tracer.spans, t_wall)
                layers["cli.bytes_out"] = sum(o[3] for o in t_outcomes)
                layers["trace.overhead_s"] = t_wall - wall
                traced_runs.append((t_wall, layers))
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 1 / len(walls)) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while not traced and len(setup) < SETUP_SAMPLES:
            setup.append(setup_seconds())
        verdicts = Verdicts(ops, kept)
        for outcomes in passes:
            verdicts.add_pass(outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    first_pass = [o[0] for o in passes[0]]
    latencies = [o[0] for i, outcomes in enumerate(passes)
                 if not (traced and i % 2) for o in outcomes]
    strata: dict = {}
    for op, seconds_each in zip(ops, first_pass):
        count, total = strata.get(op.stratum, (0, 0.0))
        strata[op.stratum] = (count + 1, total + seconds_each)
    result = {
        "workload": name, "seed": seed, "ops_per_pass": len(ops), "passes": len(walls),
        "attempted": verdicts.attempted, "failed": verdicts.failed,
        "wrong": verdicts.wrong, "trace_mismatch": sorted(mismatch),
        "strata": strata,
        "pass_walls": walls,
        "known": {f"{s}: {r}": n for (s, r), n in sorted(verdicts.known.items())},
    }
    if traced:
        overhead = statistics.median(layers["trace.overhead_s"] for _, layers in traced_runs)
        traced_runs.sort(key=lambda run: run[0])
        t_wall, layers = traced_runs[(len(traced_runs) - 1) // 2]
        layers["trace.wall_s"] = t_wall
        layers["trace.overhead_s"] = overhead
        result["metrics"] = layers
    else:
        result["metrics"] = {
            # The mean, not the median: the host's slow spells last several
            # passes, and the mean of all passes varies less between runs.
            "wall_s": statistics.mean(walls),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1],
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
        result["samples"] = {"wall_s": len(walls), "op_p50_ms": len(latencies),
                             "op_p90_ms": len(latencies), "setup_s": len(setup)}
    return result


def report(result: dict) -> list[str]:
    """Human-readable lines: every metric with its unit and sample count."""
    name = result["workload"]
    lines = [f"# {name}: seed {result['seed']}, {result['ops_per_pass']} ops/pass, "
             f"{result['passes']} untraced passes"]
    for stratum, (count, total) in sorted(result["strata"].items()):
        lines.append(f"{name:8}   stratum {stratum:30} {count:4d} ops {total:9.4f} s in pass 1")
    samples = result.get("samples", {})
    for key, value in result["metrics"].items():
        unit = _unit(key)
        count = f"  (n={samples[key]})" if key in samples else ""
        lines.append(f"{name:8} {key:28} {value:14.6g} {unit}{count}")
    rate = result["failed"] / result["attempted"]
    lines.append(f"{name:8} {'error_rate':28} {rate:14.6g} fraction  "
                 f"({result['failed']}/{result['attempted']} ops)")
    for what, count in result["known"].items():
        lines.append(f"{name:8}   failed x{count}: {what}")
    lines.extend(f"{name:8}   WRONG OUTPUT: {w}" for w in result["wrong"])
    lines.extend(f"{name:8}   TRACE CHANGED OUTPUT: {m}" for m in result["trace_mismatch"])
    return lines


def _unit(key: str) -> str:
    if key in END_TO_END_UNITS:
        return END_TO_END_UNITS[key]
    for suffix, unit in (("calls", "count"), ("share", "fraction"), ("ms_per_call", "ms"),
                         ("us_per_call", "us"), ("bytes_out", "bytes")):
        if key.endswith(suffix):
            return unit
    return "s"


def contract_line(result: dict) -> str:
    correct = not result["wrong"] and not result["trace_mismatch"]
    metrics = {k: {"value": v, "unit": _unit(k)}
               for k, v in result["metrics"].items()}
    return json.dumps({"correct": correct, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def run_all(args) -> None:
    summary = {}
    for name in workloads.WORKLOADS:
        summary[name] = {}
        for traced in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(traced), "--details"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            summary[name][f"trace{traced}"] = json.loads(lines[-1])
    print(json.dumps(summary))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--details", action="store_true",
                        help="last line carries the full result, not the contract line")
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args)
        return 0
    pd = load_package()
    result = run_workload(pd, args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report(result)))
    print(json.dumps(result) if args.details else contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
