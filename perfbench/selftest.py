"""Self-tests for the benchmark; a few seconds at the smoke size.

    python3 perfbench/selftest.py

Runs every workload's generator, output checks and traced pass at a tiny
size, and shows that the oracle catches an injected wrong count, in the
spirit of ``partition-dos audit --inject-fault``.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMOKE = 0.1


def brute_count(parts_allowed, n, distinct, max_parts=None):
    """Count partitions of n by listing multisets of allowed parts."""
    total = 0
    values = [v for v in parts_allowed if v <= n]
    top = max_parts if max_parts is not None else n
    for k in range(top + 1):
        combos = (itertools.combinations(values, k) if distinct
                  else itertools.combinations_with_replacement(values, k))
        total += sum(1 for c in combos if sum(c) == n)
    return total


def test_oracle_counts():
    counts = oracle.ExactCounts()
    assert counts.unrestricted(1, False, 1000)[1000] == 24061467864032622473692149727991
    assert counts.unrestricted(1, True, 100)[100] == 444793
    squares = [m * m for m in range(1, 6)]
    for n in range(0, 26):
        assert counts.unrestricted(2, False, 25)[n] == brute_count(squares, n, False)
        assert counts.unrestricted(2, True, 25)[n] == brute_count(squares, n, True)
        for n_parts in (1, 3, 5):
            for distinct in (False, True):
                assert (counts.at_most(distinct, n_parts, 25)[n]
                        == brute_count(range(1, 26), n, distinct, n_parts))


def test_generator_is_seeded_and_stratified():
    for name in workloads.WORKLOADS:
        ops = workloads.generate(name, 7)
        assert ops == workloads.generate(name, 7)
        assert len(ops) >= 100, (name, len(ops))
        other = workloads.generate(name, 8)
        assert ops != other
        strata = sorted(op.stratum for op in ops)
        assert strata == sorted(op.stratum for op in other)


def _outputs(pd, argv):
    path = Path(run.ROOT) / ".perfbench-selftest.out"
    try:
        assert pd.cli.main([*argv, "--output", str(path)]) == 0
        return path.read_text()
    finally:
        path.unlink(missing_ok=True)


def test_oracle_catches_injected_faults(pd):
    checker = oracle.Checker()
    argv = ("exact", "--s", "1", "--min", "0", "--max", "40")
    text = _outputs(pd, argv)
    assert checker.check_cli(argv, text) is None
    lines = text.splitlines()
    n, value = lines[2 + 30].split(",")
    lines[2 + 30] = f"{n},{int(value) + 1}"  # one wrong count, as audit --inject-fault does
    reason = checker.check_cli(argv, "\n".join(lines) + "\n")
    assert reason and oracle.KNOWN not in reason and "n=30" in reason, reason

    argv = ("asym", "--s", "2", "--statistics", "bose", "--min", "100", "--max", "110",
            "--step", "5")
    text = _outputs(pd, argv)
    assert checker.check_cli(argv, text) is None
    lines = text.splitlines()
    e, density = lines[3].split(",")
    lines[3] = f"{e},{float(density) * (1 + 1e-8)!r}"
    assert checker.check_cli(argv, "\n".join(lines) + "\n")

    coeffs = list(pd.series.bose_gf(1, 50).coeffs)
    assert checker.check_lib("bose_gf", (1, 50), coeffs) is None
    coeffs[17] -= 1
    assert "index 17" in checker.check_lib("bose_gf", (1, 50), coeffs)


def test_failures_are_excused_only_with_a_confirmed_cause():
    checker = oracle.Checker()
    zero_div = "ZeroDivisionError: float division by zero"
    assert checker.explain_failure(("compare", "--s", "2", "--distinct", "--max", "50"),
                                   zero_div)
    assert checker.explain_failure(("compare", "--s", "1", "--max", "50"), zero_div) is None
    overflow = "OverflowError: math range error"
    assert checker.explain_failure(
        ("saddle", "--s", "1", "--statistics", "bose", "--energies", "90000"), overflow)
    assert checker.explain_failure(
        ("saddle", "--s", "1", "--statistics", "bose", "--energies", "70000"), overflow) is None


def test_smoke_every_workload_traced(pd):
    for name in workloads.WORKLOADS:
        result = run.run_workload(pd, name, seed=3, seconds=0.0, traced=True, scale=SMOKE)
        assert not result["wrong"], result["wrong"]
        assert not result["trace_mismatch"], result["trace_mismatch"]
        m = result["metrics"]
        attributed = sum(m[f"{layer}.self_s"] for layer in run.layertrace.LAYERS)
        assert abs(attributed + m["trace.unattributed_s"] - m["trace.wall_s"]) < 1e-9
        assert abs(m["trace.unattributed_s"]) < 0.05 * m["trace.wall_s"] + 0.01
        assert (m["series.calls"] > 0) == (name == "audit"), (name, m["series.calls"])
        assert (m["saddle.calls"] > 0) == (name == "numeric"), (name, m["saddle.calls"])


def main() -> int:
    pd = run.load_package()
    tests = [(test_oracle_counts, ()), (test_generator_is_seeded_and_stratified, ()),
             (test_oracle_catches_injected_faults, (pd,)),
             (test_failures_are_excused_only_with_a_confirmed_cause, ()),
             (test_smoke_every_workload_traced, (pd,))]
    for test, args in tests:
        test(*args)
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
