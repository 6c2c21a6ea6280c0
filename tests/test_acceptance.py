"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Criterion 6 checks that the numeric saddle reproduces the closed forms: it
equals the Gaussian at the stationary point of the closed-form (Meinardus)
expansion of ln Z to 1e-6, and differs from the leading-order
rho_unrestricted by the predicted first-order term c1*E**(-1/(1+s)), up to
0.1*E**(-2/(1+s)).  A fixed 2% bound at E = 100 asked a leading term for
what it cannot give (bose s=2 meets it only from E ~ 3400).

Criterion 8 fails with its measured numbers (see README).  Below
n = (N+1)(N+2)/2 it asserts d_N(n) = d(n) and equal curves, and judges the
win fraction only above, where the restriction changes the count.  There
the subtraction series over-subtracts and goes negative (from n = 582 for
N = 20, from n = 1229 for N = 30): its first inner term, the Hardy-Ramanujan
curve times the Erdos-Lehner factor at m <= 0.62*C1*i**2, overestimates the
exact p_{<=i}(m) by up to 15x (N = 20) and 82x (N = 30).  Everything else
passes.
"""

import math
import time

import pytest

import partition_dos as pd
from partition_dos import cli
from partition_dos.asymptotic import C1


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion:2d}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_worked_examples():
    t0 = time.monotonic()
    checks = {
        "p(5)": (pd.count(pd.SpectrumSpec(1), 5), 7),
        "d(5)": (pd.count(pd.SpectrumSpec(1, True), 5), 3),
        "p_4(5)": (pd.count(pd.SpectrumSpec(1, False, 4), 5), 6),
        "d_4(5)": (pd.count(pd.SpectrumSpec(1, True, 4), 5), 3),
        "p2(5)": (pd.count(pd.SpectrumSpec(2), 5), 2),
    }
    bad = {k: v for k, v in checks.items() if v[0] != v[1]}
    report(1, not bad, f"worked examples exact ({time.monotonic()-t0:.2f}s) {bad or ''}")


def test_criterion_02_oracle_equivalence():
    t0 = time.monotonic()
    cells = 0
    for s in (1, 2, 3):
        for distinct in (False, True):
            for parts in list(range(1, 11)) + [None]:
                spec = pd.SpectrumSpec(s, distinct, parts)
                for n in range(0, 41):
                    got = len(pd.enumerate_partitions(spec, n, 10**6))
                    if got != pd.count(spec, n):
                        report(2, False, f"mismatch at {spec} n={n}")
                    cells += 1
    report(2, True, f"{cells} spec/n cells equal enumeration ({time.monotonic()-t0:.1f}s)")


def test_criterion_03_identity_suite():
    t0 = time.monotonic()
    # Staircase decomposition, exact for n <= 200 and every N <= 30.
    for n_parts in range(1, 31):
        ident = tuple(pd.distinct_restricted_table(n_parts, 200))
        direct = pd.build_table(pd.SpectrumSpec(1, True, n_parts), 200).counts
        if ident != direct:
            report(3, False, f"staircase decomposition broke at N={n_parts}")
    # Staircase series identity at degree 200.
    i_eff = 1
    while i_eff * (i_eff + 1) // 2 <= 200:
        i_eff += 1
    rep = pd.verify_identity(pd.fermi_gf(1, 200), pd.distinct_restricted_gf(i_eff, 200))
    if not rep.equal:
        report(3, False, f"series identity mismatch at {rep.first_mismatch}")
    # Generating functions equal the DP tables to n = 300.
    for s, distinct in ((1, False), (2, False), (1, True), (2, True)):
        table = pd.build_table(pd.SpectrumSpec(s, distinct), 300).counts
        gf = pd.fermi_gf(s, 300) if distinct else pd.bose_gf(s, 300)
        if gf.coeffs != table:
            report(3, False, f"gf != dp for s={s} distinct={distinct}")
    # Odd parts = distinct parts to n = 500.
    if tuple(pd.odd_parts_table(500)) != pd.build_table(pd.SpectrumSpec(1, True), 500).counts:
        report(3, False, "odd-parts identity broke")
    report(3, True, f"all exact identities hold ({time.monotonic()-t0:.1f}s)")


def test_criterion_04_smooth_accuracy_bose():
    t0 = time.monotonic()
    table = pd.build_table(pd.SpectrumSpec(1), 1000)
    plain = pd.make_model(1, pd.BOSE)
    shifted = pd.make_model(1, pd.BOSE, rademacher_shift=True)
    errs = []
    for n in range(100, 1001, 100):
        err = abs(pd.rho_unrestricted(plain, n) - table[n]) / table[n]
        err_shift = abs(pd.rho_unrestricted(shifted, n) - table[n]) / table[n]
        if err_shift > err:
            report(4, False, f"shift made n={n} worse")
        errs.append(err)
    ok = errs[-1] < 0.05 and all(b < a for a, b in zip(errs, errs[1:]))
    report(
        4,
        ok,
        f"err(1000)={errs[-1]:.3%}, decreasing over 100..1000, "
        f"shift never worse ({time.monotonic()-t0:.1f}s)",
    )


def test_criterion_05_smooth_accuracy_distinct():
    t0 = time.monotonic()
    table = pd.build_table(pd.SpectrumSpec(1, True), 1000)
    model = pd.make_model(1, pd.FERMI)
    errs = []
    for n in range(100, 1001, 100):
        errs.append(abs(pd.rho_unrestricted(model, n) - table[n]) / table[n])
    ok = errs[-1] < 0.05 and all(b < a for a, b in zip(errs, errs[1:]))
    report(5, ok, f"err(1000)={errs[-1]:.3%}, decreasing ({time.monotonic()-t0:.1f}s)")


def _meinardus_saddle(model: pd.AsymptoticModel, E: float) -> float:
    """Gaussian density exp(S)/sqrt(2 pi S'') at the stationary point of
    S(beta) = beta E + ln Z(beta), with ln Z replaced by its closed-form
    (Meinardus) expansion:

        bose:  C(s) beta**(-1/s) + ln(beta)/2 - (s/2) ln(2 pi)   [- beta/24 at s=1]
        fermi: D(s) beta**(-1/s) - ln(2)/2                       [+ beta/24 at s=1]

    At s = 2 the next terms vanish because zeta(-2k) = 0.  The root of
    E + (ln Z)'(beta) = 0 is found by Newton's method from the leading-order
    stationary point (C/(s E))**(s/(1+s)).
    """
    s = model.s
    bose = model.statistics == pd.BOSE
    a = model.C if bose else model.D
    linear = ((-1.0 if bose else 1.0) / 24.0) if s == 1 else 0.0
    half_log = 0.5 if bose else 0.0
    const = -0.5 * s * math.log(2.0 * math.pi) if bose else -0.5 * math.log(2.0)

    def lnz(b):
        return a * b ** (-1.0 / s) + half_log * math.log(b) + linear * b + const

    def dlnz(b):
        return -a / s * b ** (-1.0 / s - 1.0) + half_log / b + linear

    def d2lnz(b):
        return a / s * (1.0 / s + 1.0) * b ** (-1.0 / s - 2.0) - half_log / b**2

    beta = (a / (s * E)) ** (s / (1.0 + s))
    for _ in range(50):
        step = (E + dlnz(beta)) / d2lnz(beta)
        beta -= step
        if abs(step) <= 1e-15 * beta:
            break
    else:
        raise AssertionError(f"closed-form saddle did not converge: {model}, E={E}")
    return math.exp(beta * E + lnz(beta)) / math.sqrt(2.0 * math.pi * d2lnz(beta))


def _first_order_gap(model: pd.AsymptoticModel) -> float:
    """c1 in (saddle - closed)/closed = c1 E**(-1/(1+s)) + O(E**(-2/(1+s))).

    rho_unrestricted is the leading large-E term of the same saddle.  For bose
    statistics the ln(beta)/2 term moves the stationary point and S'',
    giving -(1/4 + s/(8(s+1)))/kappa_s; at s = 1 the -beta/24 term adds
    -kappa_1/24 and, for fermi, +beta/24 adds +lambda_1/24.
    """
    s = model.s
    if model.statistics == pd.BOSE:
        return -(0.25 + s / (8.0 * (s + 1.0))) / model.kappa - (
            model.kappa / 24.0 if s == 1 else 0.0
        )
    return model.lam / 24.0 if s == 1 else 0.0


def test_criterion_06_saddle_vs_closed_form():
    # The numeric saddle must reproduce the closed forms: exactly the saddle
    # of the closed-form ln Z (to its 1e-9 stationarity tolerance), and
    # rho_unrestricted up to its predicted first-order term.  The remainder
    # after that term is 0.076, 0.014, -0.031 and 0 times E**(-2/(1+s))
    # for bose s=1, bose s=2, fermi s=1 and fermi s=2.
    t0 = time.monotonic()
    failures = []
    min_curv = math.inf
    worst_saddle = worst_gap = 0.0
    for stats in (pd.BOSE, pd.FERMI):
        for s in (1, 2):
            spec = pd.ThermoSpec(s, stats)
            model = pd.make_model(s, stats)
            c1 = _first_order_gap(model)
            for e in (100.0, 500.0, 1000.0, 2000.0):
                res = pd.find_saddle(spec, e)
                assert res.curvature > 0
                min_curv = min(min_curv, res.curvature)
                ref = _meinardus_saddle(model, e)
                d_saddle = abs(res.density - ref) / ref
                worst_saddle = max(worst_saddle, d_saddle)
                closed = pd.rho_unrestricted(model, e)
                rel = (res.density - closed) / closed
                first = c1 * e ** (-1.0 / (1 + s))
                # Remainder after the first-order term, in units of its bound.
                gap = abs(rel - first) / (0.1 * e ** (-2.0 / (1 + s)))
                worst_gap = max(worst_gap, gap)
                if d_saddle > 1e-6 or gap > 1.0:
                    failures.append(
                        f"{stats}/s={s}/E={e:.0f}: saddle {d_saddle:.1e}, "
                        f"gap {rel:+.3%} vs c1 term {first:+.3%}"
                    )
    detail = (
        f"16 cells, min S''={min_curv:.3g} > 0; numeric vs closed-form saddle "
        f"worst {worst_saddle:.1e} (bound 1e-6); rho_unrestricted gap minus c1 term "
        f"worst {worst_gap:.2f} of 0.1*E^(-2/(1+s)) ({time.monotonic()-t0:.1f}s)"
    )
    if failures:
        detail += f"; {len(failures)}/16 cells out: {', '.join(failures)}"
    report(6, not failures, detail)


def test_criterion_07_restricted_bose_improvement():
    t0 = time.monotonic()
    fractions = []
    for n_parts in (20, 30):
        lo, hi = pd.validity_region(n_parts)
        grid = range(int(math.floor(lo)) + 1, int(math.ceil(hi)))
        exact = pd.conjugate_restricted_table(n_parts, grid.stop - 1)
        wins = 0
        for n in grid:
            p_n = float(exact[n])
            du = abs(pd.bose_density_s1(float(n)) - p_n)
            dr = abs(pd.rho_restricted_bose(float(n), n_parts) - p_n)
            wins += dr < du
        fractions.append(wins / len(grid))
    ok = all(f >= 0.9 for f in fractions)
    report(
        7,
        ok,
        f"win fractions N=20: {fractions[0]:.1%}, N=30: {fractions[1]:.1%} "
        f"({time.monotonic()-t0:.1f}s)",
    )


def test_criterion_08_restricted_distinct_improvement():
    # Below n = (N+1)(N+2)/2 no distinct partition has more than N parts, so
    # d_N = d and the subtraction series is empty: the two curves must be
    # equal there, and the win fraction is judged on the engaged band above.
    t0 = time.monotonic()
    fractions = []
    facts = []
    for n_parts in (20, 30):
        lo, hi = pd.validity_region(n_parts)
        grid = range(int(math.floor(lo)) + 1, int(math.ceil(hi)))
        engaged = (n_parts + 1) * (n_parts + 2) // 2
        exact = pd.distinct_restricted_table(n_parts, grid.stop - 1)
        full = pd.build_table(pd.SpectrumSpec(1, True), grid.stop - 1)
        for n in range(grid.start, engaged):
            if exact[n] != full[n]:
                report(8, False, f"d_{n_parts}({n}) != d({n}) below {engaged}")
            if pd.rho_restricted_fermi(float(n), n_parts) != pd.fermi_density_s1(float(n)):
                report(8, False, f"N={n_parts}: curves differ at n={n} below {engaged}")
        band = range(engaged, grid.stop)
        wins = 0
        negative = []
        for n in band:
            d_n = float(exact[n])
            if exact[n] >= full[n]:
                report(8, False, f"d_{n_parts}({n}) >= d({n}) in the engaged band")
            du = abs(pd.fermi_density_s1(float(n)) - d_n)
            corrected = pd.rho_restricted_fermi(float(n), n_parts)
            dr = abs(corrected - d_n)
            wins += dr < du
            if corrected < 0:
                negative.append(n)
        fractions.append(wins / len(band))
        # The first subtracted term, HR(m) * Erdos-Lehner(m, i) at i = N+1 and
        # m = n - i(i+1)/2, against the exact p_{<=i}(m) it stands for.
        i = n_parts + 1
        m_top = band.stop - 1 - i * (i + 1) // 2
        p_le_i = pd.conjugate_restricted_table(i, m_top)
        over, m_worst = max(
            (pd.bose_density_s1(float(m)) * pd.erdos_lehner_factor(float(m), i) / p_le_i[m], m)
            for m in range(math.ceil(2 * C1), m_top + 1)
        )
        facts.append(
            f"N={n_parts}: {wins}/{len(band)} = {fractions[-1]:.1%} of n >= {engaged}, "
            f"{len(negative)} negative values from n={negative[0] if negative else '-'}, "
            f"inner term i={i} overestimates p_<=i(m) up to {over:.1f}x "
            f"(n={m_worst + i * (i + 1) // 2}, m={m_worst} = {m_worst / (C1 * i * i):.2f} C1 i^2)"
        )
    ok = all(f >= 0.9 for f in fractions)
    detail = "; ".join(facts)
    if not ok:
        detail += (
            " - the subtraction series over-subtracts: its inner terms sit inside "
            "their own validity window, but HR * Erdos-Lehner there is far above "
            "the exact restricted count"
        )
    report(8, ok, f"d_N = d and curves equal below (N+1)(N+2)/2; {detail} "
                  f"({time.monotonic()-t0:.1f}s)")


def test_criterion_09_fluctuation_decay_and_beats():
    t0 = time.monotonic()
    table = pd.build_table(pd.SpectrumSpec(2, True), 1000)
    model = pd.make_model(2, pd.FERMI)
    rep = pd.analyze(table, model, window=50)
    first, last = rep.summary["first_ratio"], rep.summary["last_ratio"]
    peaks = pd.beat_spectrum(rep.residual, rep.smooth)
    ok = 0.1 <= last <= 0.4 and last < first and len(peaks) >= 2
    report(
        9,
        ok,
        f"ratio {first:.2f} -> {last:.2f}, {len(peaks)} spectral peaks >= 5x median "
        f"({time.monotonic()-t0:.1f}s)",
    )


def test_criterion_10_figure_datasets(tmp_path):
    t0 = time.monotonic()
    expected_rows = {}
    produced_rows = {}
    jobs = [(1, None), (2, None), (3, None), (4, None),
            (5, 20), (5, 30), (6, 20), (6, 30)]
    for fid, n_parts in jobs:
        argv = ["figure", str(fid), "--output", str(tmp_path / f"f{fid}_{n_parts}.csv")]
        if n_parts is not None:
            argv += ["--parts", str(n_parts)]
        code = cli.main(argv)
        if code != 0:
            report(10, False, f"figure {fid} (parts={n_parts}) exited {code}")
        lines = (tmp_path / f"f{fid}_{n_parts}.csv").read_text().strip().splitlines()
        produced_rows[(fid, n_parts)] = len(lines) - 2
        if n_parts is None:
            expected_rows[(fid, n_parts)] = 1000
        else:
            expected_rows[(fid, n_parts)] = len(
                range(2, int(math.ceil(C1 * n_parts**2)))
            )
    elapsed = time.monotonic() - t0
    ok = produced_rows == expected_rows and elapsed < 300
    report(10, ok, f"all six figure datasets regenerated in {elapsed:.1f}s")
