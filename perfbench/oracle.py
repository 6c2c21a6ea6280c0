"""Independent oracles for every benchmark op's output.

Nothing here imports ``partition_dos``.  Exact counts come from routes the
package does not use:

* s=1 p(n): Euler's pentagonal recurrence.
* s=1 d(n): d(n) = sum over k in Z of (-1)^k p(n - k(3k-1)), from
  prod(1+x^m) = prod(1-x^2m) / prod(1-x^m).
* s=2 p and d: a small knapsack table over the squares.
* At most N parts: the exactly-k recurrence P(m, k) = P(m-1, k-1) + P(m-k, k);
  distinct parts shift by the staircase k(k-1)/2.

Float columns are recomputed from the closed forms in log domain, with a
Euler-Maclaurin zeta, and must agree to a relative 1e-9 of the quantity's
scale (so a vectorised sum that moves last bits still passes).  Saddle rows
are re-evaluated with a numpy level sum at the reported beta0 and must meet
the solver's own residual bound |S'(beta0)| <= 1e-9 E.

Each check returns None when the output is right, else a reason.  A
reason that starts with ``KNOWN`` names a defect of the program whose cause
the oracle confirmed (see ``Checker.explain_failure``); any other reason is
a wrong or unexplained result.
"""

from __future__ import annotations

import functools
import math
import re
import sys

import numpy as np

REL = 1e-9
C1 = math.pi**2 / 6.0
KNOWN = "known defect: "
LOG_FLOAT_MAX = math.log(sys.float_info.max)
_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


# ---------------------------------------------------------------------------
# exact counts


def pentagonal_p(n_max: int) -> list[int]:
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > n:
                break
            term = p[n - g]
            if g + k <= n:
                term += p[n - g - k]
            total += term if k % 2 else -term
            k += 1
        p[n] = total
    return p


def distinct_from_p(p: list[int]) -> list[int]:
    n_max = len(p) - 1
    d = list(p)
    k = 1
    while k * (3 * k - 1) <= n_max:
        sign = -1 if k % 2 else 1
        for shift in (k * (3 * k - 1), k * (3 * k + 1)):
            for n in range(shift, n_max + 1):
                d[n] += sign * p[n - shift]
        k += 1
    return d


def squares_table(n_max: int, distinct: bool) -> list[int]:
    t = [1] + [0] * n_max
    m = 1
    while m * m <= n_max:
        v = m * m
        span = range(n_max, v - 1, -1) if distinct else range(v, n_max + 1)
        for n in span:
            t[n] += t[n - v]
        m += 1
    return t


def exactly_k_table(k_max: int, n_max: int) -> list[list[int]]:
    """P[k][m]: partitions of m into exactly k parts."""
    P = [[0] * (n_max + 1) for _ in range(k_max + 1)]
    P[0][0] = 1
    for k in range(1, k_max + 1):
        row, prev = P[k], P[k - 1]
        for m in range(k, n_max + 1):
            row[m] = prev[m - 1] + row[m - k]
    return P


class ExactCounts:
    """Memoised oracle tables, grown on demand."""

    def __init__(self) -> None:
        self._unrestricted: dict = {}
        self._by_k: list[list[int]] = [[1]]

    def unrestricted(self, s: int, distinct: bool, n_max: int) -> list[int]:
        key = (s, distinct)
        have = self._unrestricted.get(key)
        if have is None or len(have) <= n_max:
            size = max(n_max, 2 * (len(have) if have else 0))
            if s == 1:
                p = pentagonal_p(size)
                have = distinct_from_p(p) if distinct else p
            elif s == 2:
                have = squares_table(size, distinct)
            else:
                raise ValueError(f"no oracle for s={s}")
            self._unrestricted[key] = have
        return have

    def at_most(self, distinct: bool, n_parts: int, n_max: int) -> list[int]:
        n_parts = min(n_parts, n_max)  # more parts than n never help
        P = self._by_k
        k_have, n_have = len(P) - 1, len(P[0]) - 1
        if n_parts > k_have or n_max > n_have:
            n_new = n_have if n_max <= n_have else max(n_max, 2 * n_have)
            P = self._by_k = exactly_k_table(max(n_parts, k_have), n_new)
        out = []
        for n in range(n_max + 1):
            total = 0
            for k in range(n_parts + 1):
                m = n - k * (k - 1) // 2 if distinct else n
                if m < k:
                    break  # P[k][m] = 0 here and for every larger k
                total += P[k][m]
            out.append(total)
        return out


# ---------------------------------------------------------------------------
# float formulas


_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


@functools.lru_cache(maxsize=None)
def zeta(x: float, cut: int = 64) -> float:
    """Riemann zeta for x > 1 by Euler-Maclaurin summation."""
    total = math.fsum(k**-x for k in range(1, cut))
    total += cut ** (1.0 - x) / (x - 1.0) + 0.5 * cut**-x
    poch, fact = x, 2.0
    for j, b in enumerate(_BERNOULLI, start=1):
        total += b / fact * poch * cut ** (-x - 2 * j + 1)
        poch *= (x + 2 * j - 1) * (x + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
    return total


def log_rho(s: float, statistics: str, E: float, shift: bool = False) -> float:
    """ln of the smooth density for parts m**s at energy E."""
    a = 1.0 + 1.0 / s
    z = zeta(a)
    if statistics == "bose":
        if shift:
            E -= 1.0 / 24.0
        k = (math.gamma(a) * z / s) ** (s / (1.0 + s))
        return (math.log(k) - 0.5 * (s + 1.0) * math.log(2.0 * math.pi)
                + 0.5 * math.log(s / (s + 1.0))
                - (3.0 * s + 1.0) / (2.0 * (s + 1.0)) * math.log(E)
                + k * (s + 1.0) * E ** (1.0 / (1.0 + s)))
    lam = (math.gamma(a) * (1.0 - 2.0 ** (1.0 - a)) * z / s) ** (s / (1.0 + s))
    return (0.5 * math.log(s * lam) + (1.0 + s) * lam * E ** (1.0 / (1.0 + s))
            - math.log(2.0) - 0.5 * math.log(math.pi * (1.0 + s))
            - 0.5 * (2.0 * s + 1.0) / (s + 1.0) * math.log(E))


def rho(s: float, statistics: str, E: float, shift: bool = False) -> float:
    return math.exp(log_rho(s, statistics, E, shift))


def erdos_lehner(E: float, n_parts: int) -> float:
    root = math.sqrt(6.0 * E)
    return math.exp(-(root / math.pi - 0.5) * math.exp(-math.pi * n_parts / root))


def restricted_fermi(E: float, n_parts: int, counts: ExactCounts) -> float:
    """Distinct at-most-N smooth density: staircase-shifted subtraction series."""
    total = rho(1.0, "fermi", E)
    i = n_parts + 1
    while E - i * (i + 1) / 2.0 >= 0:
        shifted = E - i * (i + 1) / 2.0
        if shifted < 2.0 * C1:
            if float(E).is_integer():
                m = int(shifted)
                total -= counts.at_most(False, i, m)[m]
        else:
            total -= rho(1.0, "bose", shifted) * erdos_lehner(shifted, i)
        i += 1
    return total


def level_sums(s: float, statistics: str, beta: float) -> tuple[float, float, float]:
    """(ln Z, d ln Z/d beta, d2 ln Z/d beta2) over levels m**s with beta m**s <= 37."""
    top = int((37.0 / beta) ** (1.0 / s)) + 2
    parts = [[], [], []]
    for start in range(1, top + 1, 1 << 16):
        level = np.arange(start, min(start + (1 << 16), top + 1), dtype=float) ** s
        t = beta * level
        keep = t <= 37.0
        level, t = level[keep], t[keep]
        if statistics == "bose":
            em = np.expm1(t)
            parts[0].append(-np.log1p(-np.exp(-t)).sum())
            parts[1].append(-(level / em).sum())
            parts[2].append((level * level * (1.0 + 1.0 / em) / em).sum())
        else:
            ex = np.exp(-t)
            parts[0].append(np.log1p(ex).sum())
            parts[1].append(-(level * ex / (1.0 + ex)).sum())
            parts[2].append((level * level * ex / (1.0 + ex) ** 2).sum())
    return tuple(math.fsum(float(v) for v in p) for p in parts)


# ---------------------------------------------------------------------------
# output checks


def close(got: float, want: float, scale: float | None = None) -> bool:
    if not (math.isfinite(got) and math.isfinite(want)):
        return False
    ref = max(abs(want), abs(scale) if scale is not None else 0.0)
    return abs(got - want) <= REL * ref


def parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError("not a partition-dos CSV dataset")
    meta = dict(tok.split("=", 1) for tok in lines[0][2:].split())
    return meta, lines[1].split(","), [ln.split(",") for ln in lines[2:]]


_SWITCHES = {"--distinct", "--spectrum", "--shift", "--drop-half-term", "--inject-fault"}


def parse_argv(argv) -> tuple[str, list[str], dict]:
    cmd, rest = argv[0], list(argv[1:])
    positional, flags = [], {}
    while rest:
        tok = rest.pop(0)
        if tok in _SWITCHES:
            flags[tok] = True
        elif tok.startswith("--"):
            flags[tok] = rest.pop(0)
        else:
            positional.append(tok)
    return cmd, positional, flags


def _expect_columns(columns, expected):
    if columns != expected:
        return f"columns {columns} != {expected}"
    return None


def _check_counts(rows, ns, want_seq, label):
    """Rows must cover exactly ns, with the exact count in column 1."""
    if [int(r[0]) for r in rows] != list(ns):
        return f"{label}: n column is not {ns.start}..{ns.stop - 1}"
    for r in rows:
        n = int(r[0])
        if int(r[1]) != want_seq[n]:
            return f"{label}: count at n={n} is {r[1]}, oracle {want_seq[n]}"
    return None


class Checker:
    """Checks one op's output against the oracles above."""

    def __init__(self) -> None:
        self.counts = ExactCounts()

    # -- cli ---------------------------------------------------------------

    def check_cli(self, argv, text: str) -> str | None:
        cmd, positional, flags = parse_argv(argv)
        self._numpy_repr = False
        try:
            meta, columns, rows = parse_csv(text)
            reason = getattr(self, f"_cli_{cmd}")(positional, flags, meta, columns, rows)
        except (ValueError, IndexError, KeyError, OverflowError) as exc:
            return f"unreadable {cmd} output: {exc!r}"
        if reason is None and self._numpy_repr:
            # numpy >= 2 reprs a float64 as np.float64(x); the values were
            # checked, but the CSV cell is not a plain number.
            return KNOWN + "CSV cells written as 'np.float64(x)' (numpy repr), not numbers"
        return reason

    def _num(self, cell: str) -> float:
        match = _NUMPY_REPR.fullmatch(cell)
        if match:
            self._numpy_repr = True
            return float(match.group(1))
        return float(cell)

    def explain_failure(self, argv, error: str) -> str | None:
        """KNOWN reason when the oracle confirms the cause of a raised op, else None."""
        cmd, positional, flags = parse_argv(argv)
        kind = error.split(":", 1)[0]
        if cmd == "compare" and kind == "ZeroDivisionError":
            s, lo, hi = int(flags.get("--s", 1)), int(flags.get("--min", 1)), int(flags["--max"])
            table = self.counts.unrestricted(s, "--distinct" in flags, hi)
            if any(table[n] == 0 for n in range(lo, hi + 1)):
                return KNOWN + "a count in the range is 0 and rel_err divides by it"
        if cmd in ("asym", "saddle") and kind == "OverflowError":
            if "--energies" in flags:
                grid = [float(tok) for tok in flags["--energies"].split(",")]
            else:
                grid = [float(flags["--max"])]  # the density grows with E
            s, stats = float(flags["--s"]), flags["--statistics"]
            if any(log_rho(s, stats, e) > LOG_FLOAT_MAX for e in grid):
                return KNOWN + "the density at some E of the grid exceeds the float range"
        return None

    def _table(self, s: int, distinct: bool, parts, n_max: int) -> list[int]:
        if parts is None:
            return self.counts.unrestricted(s, distinct, n_max)
        if s != 1:
            raise ValueError("restricted oracle covers s=1 only")
        return self.counts.at_most(distinct, int(parts), n_max)

    def _cli_exact(self, positional, flags, meta, columns, rows):
        bad = _expect_columns(columns, ["n", "count"])
        if bad:
            return bad
        lo, hi = int(flags.get("--min", 0)), int(flags["--max"])
        want = self._table(int(flags.get("--s", 1)), "--distinct" in flags,
                           flags.get("--parts"), hi)
        return _check_counts(rows, range(lo, hi + 1), want, "exact")

    def _cli_compare(self, positional, flags, meta, columns, rows):
        bad = _expect_columns(columns, ["n", "exact", "asymptote", "rel_err"])
        if bad:
            return bad
        s, distinct, shift = int(flags.get("--s", 1)), "--distinct" in flags, "--shift" in flags
        lo, hi = int(flags.get("--min", 1)), int(flags["--max"])
        want = self._table(s, distinct, None, hi)
        bad = _check_counts(rows, range(lo, hi + 1), want, "compare")
        if bad:
            return bad
        stats = "fermi" if distinct else "bose"
        for r in rows:
            n = int(r[0])
            smooth = rho(float(s), stats, float(n), shift)
            exact = float(want[n])
            if not close(float(r[2]), smooth):
                return f"compare: asymptote at n={n} is {r[2]}, oracle {smooth!r}"
            if not close(float(r[3]), (smooth - exact) / exact, smooth / exact):
                return f"compare: rel_err at n={n} is {r[3]}"
        return None

    def _cli_figure(self, positional, flags, meta, columns, rows):
        fid = int(positional[0])
        if fid <= 4:
            bad = _expect_columns(columns, ["n", "exact", "asymptote"])
            if bad:
                return bad
            s, distinct = (1 if fid in (1, 3) else 2), fid in (3, 4)
            hi = int(flags.get("--max", 1000))
            want = self._table(s, distinct, None, hi)
            bad = _check_counts(rows, range(1, hi + 1), want, f"figure {fid}")
            if bad:
                return bad
            stats = "fermi" if distinct else "bose"
            for r in rows:
                smooth = rho(float(s), stats, float(r[0]))
                if not close(float(r[2]), smooth):
                    return f"figure {fid}: asymptote at n={r[0]} is {r[2]}"
            return None
        bad = _expect_columns(columns, ["n", "diff_unrestricted", "diff_restricted"])
        if bad:
            return bad
        n_parts = int(flags.get("--parts", 20))
        top = math.ceil(C1 * n_parts * n_parts) - 1
        if [int(r[0]) for r in rows] != list(range(2, top + 1)):
            return f"figure {fid}: n grid is not the validity region 2..{top}"
        want = self.counts.at_most(fid == 6, n_parts, top)
        for r in rows:
            n = int(r[0])
            exact = float(want[n])
            if fid == 5:
                free = rho(1.0, "bose", float(n))
                capped = free * erdos_lehner(float(n), n_parts)
            else:
                free = rho(1.0, "fermi", float(n))
                capped = restricted_fermi(float(n), n_parts, self.counts)
            scale = max(free, exact)
            if not close(float(r[1]), free - exact, scale):
                return f"figure {fid}: diff_unrestricted at n={n} is {r[1]}"
            if not close(float(r[2]), capped - exact, scale):
                return f"figure {fid}: diff_restricted at n={n} is {r[2]}"
        return None

    def _cli_asym(self, positional, flags, meta, columns, rows):
        bad = _expect_columns(columns, ["E", "density"])
        if bad:
            return bad
        lo, hi, step = float(flags["--min"]), float(flags["--max"]), float(flags["--step"])
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        grid = [lo + k * step for k in range(count)]
        if [float(r[0]) for r in rows] != grid:
            return "asym: E column differs from the requested grid"
        s, stats = float(flags["--s"]), flags["--statistics"]
        for r in rows:
            want = rho(s, stats, float(r[0]))
            if not close(float(r[1]), want):
                return f"asym: density at E={r[0]} is {r[1]}, oracle {want!r}"
        return None

    def _cli_saddle(self, positional, flags, meta, columns, rows):
        bad = _expect_columns(
            columns, ["E", "beta0", "entropy", "curvature", "density", "residual"])
        if bad:
            return bad
        energies = [float(tok) for tok in flags["--energies"].split(",")]
        if [float(r[0]) for r in rows] != energies:
            return "saddle: E column differs from --energies"
        s, stats = float(flags["--s"]), flags["--statistics"]
        for r in rows:
            E, beta0, entropy, curvature, density, residual = map(float, r)
            if not (beta0 > 0 and residual <= REL * E):
                return f"saddle: residual {residual} above 1e-9 E at E={E}"
            lnz, d1, d2 = level_sums(s, stats, beta0)
            s0 = beta0 * E + lnz
            if not close(entropy, s0):
                return f"saddle: entropy at E={E} is {entropy}, oracle {s0!r}"
            if not close(curvature, d2):
                return f"saddle: curvature at E={E} is {curvature}, oracle {d2!r}"
            if not close(density, math.exp(s0) / math.sqrt(2.0 * math.pi * d2)):
                return f"saddle: density at E={E} is {density}"
            if not close(residual, abs(E + d1), E):
                return f"saddle: residual at E={E} is {residual}, oracle {abs(E + d1)!r}"
        return None

    def _cli_fluct(self, positional, flags, meta, columns, rows):
        bad = _expect_columns(columns, ["n", "residual", "ratio"])
        if bad:
            return bad
        s, distinct = int(flags.get("--s", 2)), "--distinct" in flags
        lo, hi = int(flags.get("--min", 1)), int(flags["--max"])
        window = int(flags.get("--window", 50))
        if [int(r[0]) for r in rows] != list(range(lo, hi + 1)):
            return "fluct: n column is not --min..--max"
        table = self.counts.unrestricted(s, distinct, hi)
        stats = "fermi" if distinct else "bose"
        smooth = np.array([rho(float(s), stats, float(n)) for n in range(lo, hi + 1)])
        res = np.array([float(table[n]) for n in range(lo, hi + 1)]) - smooth
        for r, want, scale in zip(rows, res, smooth):
            if not close(float(r[1]), float(want), float(scale)):
                return f"fluct: residual at n={r[0]} is {r[1]}, oracle {float(want)!r}"
        windows = np.lib.stride_tricks.sliding_window_view
        ratio = np.abs(windows(res, window)).max(axis=1) / windows(smooth, window).mean(axis=1)
        offset = window // 2
        for idx, r in enumerate(rows):
            j = idx - offset
            if 0 <= j < ratio.size:
                if not close(self._num(r[2]), float(ratio[j]), 1.0):
                    return f"fluct: ratio at n={r[0]} is {r[2]}, oracle {float(ratio[j])!r}"
            elif r[2] != "":
                return f"fluct: ratio at n={r[0]} lies outside the windows"
        if not (close(float(meta["first_ratio"]), float(ratio[0]), 1.0)
                and close(float(meta["last_ratio"]), float(ratio[-1]), 1.0)
                and meta["decreasing"] == str(bool(ratio[-1] < ratio[0]))):
            return "fluct: summary ratios disagree with the oracle"
        if "--spectrum" in flags:
            return self._check_peaks(meta, res / smooth)
        return None

    @staticmethod
    def _check_peaks(meta, x):
        x = x - x.mean()
        power = np.abs(np.fft.rfft(x * np.hanning(x.size))) ** 2
        freqs = np.fft.rfftfreq(x.size)
        floor = max(5.0 * float(np.median(power[1:])), 1e-12 * float(power.max()))
        inner = np.arange(1, power.size - 1)
        is_peak = ((power[inner] > power[inner - 1]) & (power[inner] >= power[inner + 1])
                   & (power[inner] >= floor))
        want = sorted(((float(freqs[i]), float(power[i])) for i in inner[is_peak]),
                      key=lambda fp: (-fp[1], fp[0]))[:5]
        got = []
        rank = 1
        while f"peak{rank}" in meta:
            freq, pw = meta[f"peak{rank}"].split(":")
            got.append((float(freq), float(pw)))
            rank += 1
        if len(got) != len(want):
            return f"fluct: {len(got)} spectral peaks, oracle {len(want)}"
        for (gf, gp), (wf, wp) in zip(got, want):
            if not (close(gf, wf) and close(gp, wp)):
                return f"fluct: peak {gf}:{gp} differs from oracle {wf}:{wp}"
        return None

    def _cli_audit(self, positional, flags, meta, columns, rows):
        bad = _expect_columns(columns, ["identity", "status", "first_mismatch"])
        if bad:
            return bad
        names = [r[0] for r in rows]
        if names != AUDIT_IDENTITIES:
            return f"audit: identities {names} != {AUDIT_IDENTITIES}"
        for r in rows:
            if r[1:] != ["ok", ""]:
                return f"audit: identity {r[0]} reports {r[1]} at {r[2]}"
        return None

    # -- library -----------------------------------------------------------

    def check_lib(self, target: str, args, coeffs) -> str | None:
        if target == "restricted_table":
            s, distinct, n_parts, n = args
            want = self._table(s, distinct, n_parts, n)
        elif target == "distinct_restricted_gf":
            n_parts, d = args
            want = self.counts.at_most(True, n_parts, d)
        else:
            s, d = args
            want = self.counts.unrestricted(s, target == "fermi_gf", d)[: d + 1]
        got = list(coeffs)
        if got != want:
            first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                         min(len(got), len(want)))
            return f"{target}{tuple(args)}: first wrong coefficient at index {first}"
        return None


AUDIT_IDENTITIES = [
    "gf_vs_dp_bose_s1", "gf_vs_dp_bose_s2", "gf_vs_dp_fermi_s1", "gf_vs_dp_fermi_s2",
    "staircase_decomposition_N4", "staircase_decomposition_N10",
    "staircase_decomposition_N30", "staircase_series",
    "conjugation_N2", "conjugation_N7", "conjugation_N20", "conjugation_N50",
    "euler_odd_equals_distinct", "euler_factorization_s1", "euler_factorization_s2",
]
