"""Seeded, stratified op lists for the three benchmark workloads.

An op is one unit a user runs: either one ``partition_dos.cli.main(argv)``
call (``kind == "cli"``) or one public library call (``kind == "lib"``).
Each workload is a fixed table of strata.  A stratum fixes what an op does
and a nominal size; the seed only shuffles the op order and jitters each
size by a few percent, so every seed does comparable work and the pass
time does not swing with the seed.  The program receives only the
generated argv or arguments.

Inputs that fail at the seed commit stay in the workloads and are counted
as failed ops, not skipped:

* ``compare --s 2 --distinct`` with ``--min 1`` divides by d^2(n) = 0
  (31 values of n <= 128 have no partition into distinct squares) and
  raises ``ZeroDivisionError``.  These ranges keep ``--max <= 5000``.
* The smooth densities overflow a float: s=1 bose above E ~ 7.66e4 and
  s=0.5 above E ~ 4.7e3 (bose) / 5.4e3 (fermi) raise ``OverflowError``
  in ``asym`` and ``saddle``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("exact", "audit", "numeric")

WHY = {
    "exact": (
        "Exact-count datasets: compare/exact over s in {1,2} x {multiset, distinct}, "
        "restricted exact --parts N, figures 1-4.  The knapsack DP in counting is "
        "~89% of the time (traced share); ranges (--min 1) beside one-row point queries use counting "
        "the same way but cli very differently."
    ),
    "audit": (
        "Identity suite and restricted curves: audit --degree d, figures 5/6 and "
        "library calls into the generating functions and the restricted DP.  The only "
        "workload where series does work; carries the cubic restricted DP while the "
        "unbounded tables stay light."
    ),
    "numeric": (
        "Float routes: saddle and asym energy grids over s in {0.5,1,2,3} x "
        "{bose, fermi} with E from 1e2 to 1e5, and fluct --s 2 --distinct --spectrum.  "
        "The pure-Python level sum in saddle dominates; asymptotic and fluctuation "
        "share the rest, and counting stays small."
    ),
}


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    kind "cli": ``args`` is the argv (``--output`` is appended by the runner).
    kind "lib": ``target`` names a library call in run.LIB_CALLS and ``args``
    are its plain arguments.
    """

    kind: str
    stratum: str
    args: tuple
    target: str = ""

    def label(self) -> str:
        if self.kind == "cli":
            return " ".join(self.args)
        return f"{self.target}{self.args}"


def _jit(rng: random.Random, nominal: float, rel: float) -> float:
    return nominal * (1.0 + rng.uniform(-rel, rel))


def _ijit(rng: random.Random, nominal: int, rel: float) -> int:
    return max(1, int(round(_jit(rng, nominal, rel))))


def _spec_flags(s: int, distinct: bool) -> list[str]:
    return ["--s", str(s)] + (["--distinct"] if distinct else [])


# Size jitter: heavy ops get the narrowest band, because their cost grows
# like n**2 (tables) or d**3 (audit) and they set most of the pass time.
_HEAVY, _LIGHT = 0.01, 0.05


def _exact_ops(rng: random.Random, scale: float) -> list[Op]:
    ops = []
    # Table sizes per spec; the s=2 tables are ~10x cheaper than s=1 at the
    # same n, so they reach the 5000 cap of the failing s=2 distinct ranges.
    bands = {1: (160, 400, 1000, 2200), 2: (400, 1000, 3000, 4900)}
    for s, sizes in bands.items():
        for distinct in (False, True):
            for cmd in ("exact", "compare"):
                for rank, nominal in enumerate(sizes):
                    copies = 2 if rank < 2 else 1  # light bands twice: >= 100 ops
                    rel = _LIGHT if rank < 2 else _HEAVY
                    for _ in range(copies):
                        n = _ijit(rng, int(nominal * scale), rel)
                        lo = "0" if cmd == "exact" else "1"
                        flags = _spec_flags(s, distinct)
                        ops.append(Op("cli", f"{cmd}-range-s{s}", (
                            cmd, *flags, "--min", lo, "--max", str(n))))
                        # Point queries stay above n = 128, the last n with
                        # d^2(n) = 0, so only the --min 1 ranges hit that defect.
                        n = max(150, _ijit(rng, int(nominal * scale), rel))
                        ops.append(Op("cli", f"{cmd}-point-s{s}", (
                            cmd, *flags, "--min", str(n), "--max", str(n))))
    # Restricted counts (s=1, at most N parts): the cubic DP, N <= 30, n <= 2000.
    for n_parts, nominal in ((4, 1200), (12, 400), (28, 200)):
        for distinct in (False, True):
            n = _ijit(rng, int(nominal * scale), _HEAVY)
            n_arg = str(n_parts)
            flags = _spec_flags(1, distinct)
            ops.append(Op("cli", "exact-restricted-range", (
                "exact", *flags, "--parts", n_arg, "--min", "0", "--max", str(n))))
            ops.append(Op("cli", "exact-restricted-point", (
                "exact", *flags, "--parts", n_arg, "--min", str(n), "--max", str(n))))
    for fid in (1, 2, 3, 4):
        args = ("figure", str(fid))
        if scale != 1.0:
            args += ("--max", str(int(1000 * scale)))
        ops.append(Op("cli", "figure-1-4", args))
    return ops


def _audit_ops(rng: random.Random, scale: float) -> list[Op]:
    ops = []
    for nominal in (250, 400, 560):
        d = _ijit(rng, int(nominal * scale), _HEAVY)
        ops.append(Op("cli", "audit", ("audit", "--degree", str(d))))
    for fid in (5, 6):
        for nominal in (8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40, 40):
            n_parts = _ijit(rng, max(2, int(nominal * scale)), _LIGHT)
            ops.append(Op("cli", f"figure-{fid}", ("figure", str(fid), "--parts", str(n_parts))))
    for s in (1, 2):
        for target in ("bose_gf", "fermi_gf"):
            for nominal in (100, 150, 200, 250, 300, 300):
                d = _ijit(rng, int(nominal * scale), _LIGHT)
                ops.append(Op("lib", f"series-{target}", (s, d), target))
    for n_parts in (4, 10, 20, 30):
        for nominal in (150, 200, 300, 300):
            d = _ijit(rng, int(nominal * scale), _LIGHT)
            ops.append(Op("lib", "series-distinct_restricted_gf", (n_parts, d),
                          "distinct_restricted_gf"))
    for n_parts, nominal in ((6, 300), (15, 200), (30, 150), (12, 400)):
        for distinct in (False, True):
            for _ in range(3):
                n = _ijit(rng, int(nominal * scale), _LIGHT)
                ops.append(Op("lib", "counting-restricted", (1, distinct, n_parts, n),
                              "restricted_table"))
    return ops


def _numeric_ops(rng: random.Random, scale: float) -> list[Op]:
    ops = []
    decades = (150.0, 1500.0, 15000.0, 90000.0)
    combos = [(s, st) for s in ("0.5", "1", "2", "3") for st in ("bose", "fermi")]
    for s, st in combos:
        for nominal in decades:
            top = nominal * scale
            if s == "0.5":
                # One energy: each s=0.5 level sum costs 0.05-1 s.  E ~ 9e4 is
                # left to asym here (a failing saddle would cost ~4 s a pass).
                if nominal > 15000.0:
                    continue
                energies = [_jit(rng, top, _HEAVY)]
            else:
                energies = [_jit(rng, top * f, _LIGHT) for f in (0.5, 0.75, 1.0)]
            text = ",".join(f"{e:.6g}" for e in energies)
            ops.append(Op("cli", f"saddle-s{s}", (
                "saddle", "--s", s, "--statistics", st, "--energies", text)))
        for nominal in decades:
            for _ in range(2):
                lo = _jit(rng, nominal * scale * 0.6, _LIGHT)
                step = lo / 100.0
                ops.append(Op("cli", f"asym-s{s}", (
                    "asym", "--s", s, "--statistics", st, "--min", f"{lo:.6g}",
                    "--max", f"{lo * 1.6:.6g}", "--step", f"{step:.6g}")))
    for nominal in (3000, 6000, 10000, 15000, 4500, 12000):
        n = _ijit(rng, int(nominal * scale), _HEAVY)
        ops.append(Op("cli", "fluct", (
            "fluct", "--s", "2", "--distinct", "--spectrum", "--max", str(n))))
    return ops


_BUILDERS = {"exact": _exact_ops, "audit": _audit_ops, "numeric": _numeric_ops}


def generate(workload: str, seed: int, scale: float = 1.0) -> list[Op]:
    """The op list of one workload pass: same seed, same ops, same order.

    scale < 1 shrinks every size (the smoke size used by the self-test).
    """
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng, scale)
    rng.shuffle(ops)
    return ops
