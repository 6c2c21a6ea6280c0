import math
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import partition_dos as pd
import partition_dos.saddle as saddle_mod
from partition_dos.errors import ConvergenceError, DomainError


def test_thermo_spec_validation():
    with pytest.raises(DomainError):
        pd.ThermoSpec(0, pd.BOSE)
    with pytest.raises(DomainError):
        pd.ThermoSpec(1, "maxwell")
    with pytest.raises(DomainError):
        pd.ThermoSpec(1, pd.FERMI, max_parts=10)
    with pytest.raises(DomainError):
        pd.ThermoSpec(2, pd.BOSE, max_parts=10)
    pd.ThermoSpec(1, pd.BOSE, max_parts=10)  # allowed


def test_log_z_large_beta_limit():
    got = pd.log_z(pd.ThermoSpec(1, pd.BOSE), 10.0)
    first_term = -math.log1p(-math.exp(-10.0))
    assert got == pytest.approx(first_term, abs=5e-9)


def test_log_z_against_sum_to_integral_forms():
    # Small beta: the sum collapses onto its sum-to-integral expansion.
    m1 = pd.make_model(1, pd.BOSE)
    got = pd.log_z(pd.ThermoSpec(1, pd.BOSE), 0.1)
    expansion = m1.C / 0.1 + 0.5 * math.log(0.1) - 0.5 * math.log(2 * math.pi)
    assert got == pytest.approx(expansion, rel=0.01)

    m2 = pd.make_model(2, pd.FERMI)
    got = pd.log_z(pd.ThermoSpec(2, pd.FERMI), 0.1)
    expansion = m2.D / math.sqrt(0.1) - 0.5 * math.log(2.0)
    assert got == pytest.approx(expansion, rel=0.01)


def test_log_z_finite_vs_manual_sum():
    beta = 0.3
    got = pd.log_z(pd.ThermoSpec(1, pd.BOSE, max_parts=12), beta)
    manual = -sum(math.log1p(-math.exp(-beta * m)) for m in range(1, 13))
    assert got == pytest.approx(manual, rel=1e-12)


def test_finite_cap_correction_ratio_approaches_one():
    # ln Z_N - ln Z_inf ~ -exp(-beta N) (1/beta - 1/2) for small beta, beta N >> 1.
    beta = 0.05
    unbounded = pd.log_z(pd.ThermoSpec(1, pd.BOSE), beta)
    prev_gap = math.inf
    for n_parts in (100, 200, 300, 400):
        diff = pd.log_z(pd.ThermoSpec(1, pd.BOSE, n_parts), beta) - unbounded
        approx = -math.exp(-beta * n_parts) * (1 / beta - 0.5)
        ratio = diff / approx
        assert abs(ratio - 1) < prev_gap
        prev_gap = abs(ratio - 1)
    assert prev_gap < 1e-3


def test_log_z_domain_and_convergence():
    with pytest.raises(DomainError):
        pd.log_z(pd.ThermoSpec(1, pd.BOSE), 0.0)
    with pytest.raises(DomainError):
        pd.log_z(pd.ThermoSpec(1, pd.BOSE), -1.0)


def test_term_cap_raises(monkeypatch):
    monkeypatch.setattr(saddle_mod, "_MAX_TERMS", 1000)
    with pytest.raises(ConvergenceError):
        pd.log_z(pd.ThermoSpec(1, pd.BOSE), 1e-3)


def _loop_sums(spec, beta):
    """Oracle for saddle._sum_terms: the scalar level loop it replaced.

    Adds one level at a time until beta * m**s passes the cutoff (or the
    max_parts cap), raising ConvergenceError once _MAX_TERMS levels are in.
    Returns (ln Z, d ln Z/d beta, d2 ln Z/d beta2, levels summed).
    """
    bose = spec.statistics == pd.BOSE
    lnz = dlnz = d2lnz = 0.0
    m = 1
    while spec.max_parts is None or m <= spec.max_parts:
        level = float(m) ** spec.s
        t = beta * level
        if t > saddle_mod._TERM_CUTOFF:
            break
        if bose:
            em = math.expm1(t)
            lnz -= math.log(-math.expm1(-t))
            dlnz -= level / em
            d2lnz += level * level * (1.0 + 1.0 / em) / em
        else:
            ex = math.exp(-t)
            lnz += math.log1p(ex)
            dlnz -= level * ex / (1.0 + ex)
            d2lnz += level * level * ex / (1.0 + ex) ** 2
        m += 1
        if m > saddle_mod._MAX_TERMS:
            raise ConvergenceError("too many terms")
    return lnz, dlnz, d2lnz, m - 1


def _assert_sums_match(spec, beta):
    got = saddle_mod._sum_terms(spec, beta)
    want = _loop_sums(spec, beta)
    assert got[3] == want[3], (spec, beta)
    for g, w in zip(got[:3], want[:3]):
        assert abs(g - w) <= 1e-12 * abs(w), (spec, beta, g, w)


@pytest.mark.parametrize("s", [0.5, 1, 2, 3])
@pytest.mark.parametrize("stats", [pd.BOSE, pd.FERMI])
def test_level_sums_match_loop_oracle(s, stats):
    spec = pd.ThermoSpec(s, stats)
    for beta in (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 36.9, 37.0, 40.0, 1e3):
        if (37.0 / beta) ** (1.0 / s) > 2 * saddle_mod._MAX_TERMS:
            # s = 0.5 below beta ~0.012: the loop would run 5e6 levels to fail.
            with pytest.raises(ConvergenceError):
                saddle_mod._sum_terms(spec, beta)
            continue
        _assert_sums_match(spec, beta)
    assert saddle_mod._sum_terms(spec, 40.0) == (0.0, 0.0, 0.0, 0)


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(0.3, 4.0),
    stats=st.sampled_from([pd.BOSE, pd.FERMI]),
    beta=st.floats(1e-3, 40.0),
)
def test_level_sums_match_loop_oracle_property(s, stats, beta):
    # Any exponent: the level set must end exactly where the loop's test does.
    assume((37.0 / beta) ** (1.0 / s) < 2e5)
    _assert_sums_match(pd.ThermoSpec(s, stats), beta)


@pytest.mark.parametrize("n_parts", [1, 12, 30])
def test_capped_level_sums_match_loop_oracle(n_parts):
    spec = pd.ThermoSpec(1, pd.BOSE, n_parts)
    for beta in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 2.0, 5.0, 36.9, 37.0, 40.0):
        _assert_sums_match(spec, beta)


@pytest.mark.parametrize("s", [1, 2])
def test_term_cap_boundary(monkeypatch, s):
    k = 200
    monkeypatch.setattr(saddle_mod, "_MAX_TERMS", k)
    spec = pd.ThermoSpec(s, pd.BOSE)
    below = 37.0 / (k - 0.5) ** s  # levels 1 .. k-1 inside the cutoff
    at = 37.0 / (k + 0.5) ** s  # levels 1 .. k
    assert saddle_mod._sum_terms(spec, below)[3] == k - 1
    _assert_sums_match(spec, below)
    for route in (saddle_mod._sum_terms, _loop_sums):
        with pytest.raises(ConvergenceError):
            route(spec, at)
    # The max_parts cap counts the same way: k - 1 levels pass, k raise.
    assert saddle_mod._sum_terms(pd.ThermoSpec(1, pd.BOSE, k - 1), 1e-6)[3] == k - 1
    for route in (saddle_mod._sum_terms, _loop_sums):
        with pytest.raises(ConvergenceError):
            route(pd.ThermoSpec(1, pd.BOSE, k), 1e-6)


@pytest.mark.parametrize("beta", [1e-17, 5e-324])
def test_level_sum_below_float_resolution_is_typed(beta):
    # exp(-beta) rounds to 1 here, but -expm1(-t) keeps every bose term, so
    # ln Z is a finite float with no numpy warning and no ConvergenceError:
    # ln Z = -sum ln(1 - e^(-beta m)) -> -sum ln(beta m) as beta -> 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = pd.log_z(pd.ThermoSpec(1, pd.BOSE, 10), beta)
    assert isinstance(value, float) and math.isfinite(value)
    assert value == pytest.approx(-sum(math.log(beta * m) for m in range(1, 11)), rel=1e-12)


@pytest.mark.parametrize("s", [1e-4, 1e-3, 1e-300])
def test_tiny_exponent_fails_before_summing(monkeypatch, s):
    # (37 / beta)**(1/s) overflows a float here; the level count must not.
    spec = pd.ThermoSpec(s, pd.BOSE)
    with pytest.raises(ConvergenceError, match="needs more than 5000000 terms"):
        pd.find_saddle(spec, 100.0)
    monkeypatch.setattr(saddle_mod, "np", None)  # any level sum would fail
    with pytest.raises(ConvergenceError, match="needs more than 5000000 terms"):
        saddle_mod._sum_terms(spec, 31.25)


def test_huge_exponent_keeps_one_level():
    # 2.0**2000 overflows a float; only the level m = 1 lies inside the
    # cutoff, and one bose level puts the saddle at beta0 = log(1 + 1/E).
    res = pd.find_saddle(pd.ThermoSpec(2000, pd.BOSE), 100.0)
    assert res.level_terms == 1
    assert res.beta0 == pytest.approx(math.log1p(1 / 100.0), rel=1e-9)


def test_saddle_diagnostics():
    res = pd.find_saddle(pd.ThermoSpec(1, pd.BOSE), 100.0)
    assert 1 <= res.iterations <= 100
    assert res.level_terms == saddle_mod._sum_terms(pd.ThermoSpec(1, pd.BOSE), res.beta0)[3]
    assert res.level_terms == math.floor(37.0 / res.beta0)
    capped = pd.find_saddle(pd.ThermoSpec(1, pd.BOSE, 20), 30.0)
    assert capped.level_terms == 20


def _decades(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.tuples(
            st.builds(pd.ThermoSpec, st.floats(0.5, 6.0), st.sampled_from([pd.BOSE, pd.FERMI])),
            _decades(1e-3, 4e3),
        ),
        st.tuples(
            st.builds(pd.ThermoSpec, st.just(1), st.just(pd.BOSE), st.integers(1, 40)),
            _decades(1e-3, 1e6),
        ),
    )
)
def test_one_loop_converges(case):
    # Newton steps in ln beta, from beta = 37 down, reach the tolerance in
    # a handful of level sums.  No density here overflows: s = 0.5 does
    # only above E ~ 4.7e3.
    spec, e = case
    res = pd.find_saddle(spec, e)
    assert res.residual <= saddle_mod._TOL_SCALE * e
    assert res.iterations <= 20
    assert res.curvature > 0


def test_plateau_step_is_not_exponentiated():
    # Two fermi levels, 1 and 2**30: below the second one's onset k is
    # tiny, and the unguarded Newton step e^shift overflowed a float.
    res = pd.find_saddle(pd.ThermoSpec(30, pd.FERMI), 1000.0)
    assert res.residual <= saddle_mod._TOL_SCALE * 1000.0
    assert res.level_terms == 2


def test_curvature_beyond_float_range_is_typed():
    # At E = 1e171 the saddle's S'' ~ E**2 is past 1.8e308.  The overflowing
    # sums raise no numpy warning (pytest turns warnings into errors).
    with pytest.raises(ConvergenceError, match="exceeds the float range"):
        pd.find_saddle(pd.ThermoSpec(60, pd.FERMI), 1e171)


def test_overflow_in_intermediate_iterates_is_silent():
    # Levels m**60 above ~1.3e154 square past the float range on the way to
    # beta0 ~ 4e-153; the solve still ends finite, without a warning.
    res = pd.find_saddle(pd.ThermoSpec(60, pd.FERMI), 1e153)
    assert math.isfinite(res.curvature) and math.isfinite(res.density)


def test_capped_bose_saddle_below_float_resolution():
    # beta0 ~ 1e-14 and 1e-17, where exp(-beta) rounds to 1.  The density
    # at E = 1e15 is the 50-digit mpmath value of the same Gaussian formula.
    spec = pd.ThermoSpec(1, pd.BOSE, 10)
    assert pd.find_saddle(spec, 1e15).density == pytest.approx(7.657585454152229e122, rel=1e-12)
    # N levels with beta m << 1: <E> = N/beta - N(N+1)/4, so beta0 = N/(E + 27.5).
    assert pd.find_saddle(spec, 1e18).beta0 == pytest.approx(10 / (1e18 + 27.5), rel=1e-12)


def test_saddle_location_near_closed_form():
    res = pd.find_saddle(pd.ThermoSpec(1, pd.BOSE), 100.0)
    kappa1 = math.pi / math.sqrt(6)
    assert res.beta0 == pytest.approx(kappa1 / 10.0, rel=0.02)
    assert res.residual <= 1e-9 * 100.0
    assert res.curvature > 0


def test_saddle_density_examples():
    res = pd.find_saddle(pd.ThermoSpec(1, pd.BOSE), 1000.0)
    assert res.density == pytest.approx(pd.bose_density_s1(1000.0), rel=0.01)
    res = pd.find_saddle(pd.ThermoSpec(2, pd.FERMI), 500.0)
    assert res.density == pytest.approx(
        pd.rho_unrestricted(pd.make_model(2, pd.FERMI), 500.0), rel=0.02
    )


def test_saddle_density_envelopes():
    # Measured agreement between the full-entropy numeric density and the
    # closed forms: tight for fermi (no log-beta term in its expansion),
    # loosening where the closed form drops the log-beta contributions.
    cases = [
        (pd.FERMI, 1, 0.005),
        (pd.FERMI, 2, 0.005),
        (pd.BOSE, 1, 0.03),
        (pd.BOSE, 2, 0.07),
    ]
    for stats, s, tol in cases:
        spec = pd.ThermoSpec(s, stats)
        model = pd.make_model(s, stats)
        prev = math.inf
        for e in (100.0, 500.0, 1000.0, 2000.0):
            res = pd.find_saddle(spec, e)
            assert res.curvature > 0
            rel = abs(res.density - pd.rho_unrestricted(model, e)) / pd.rho_unrestricted(
                model, e
            )
            assert rel < tol, (stats, s, e, rel)
            # Gap closes as E grows, once above float noise (fermi s=2 sits
            # at machine precision throughout: its expansion has no
            # polynomial correction terms at all).
            assert rel < max(prev, 1e-12)
            prev = rel
    # Tighter bose s=1 bound away from the low end.
    spec = pd.ThermoSpec(1, pd.BOSE)
    model = pd.make_model(1, pd.BOSE)
    for e in (500.0, 1000.0, 2000.0):
        rel = abs(pd.find_saddle(spec, e).density - pd.rho_unrestricted(model, e))
        assert rel / pd.rho_unrestricted(model, e) < 0.02


def test_numeric_density_closer_to_exact_than_closed_form():
    table = pd.build_table(pd.SpectrumSpec(2), 1000)
    spec = pd.ThermoSpec(2, pd.BOSE)
    model = pd.make_model(2, pd.BOSE)
    for e in (100, 500, 1000):
        exact = table[e]
        numeric_gap = abs(pd.find_saddle(spec, float(e)).density - exact)
        closed_gap = abs(pd.rho_unrestricted(model, float(e)) - exact)
        assert numeric_gap < closed_gap


def test_beta0_decreases_with_energy():
    spec = pd.ThermoSpec(1, pd.FERMI)
    betas = [pd.find_saddle(spec, e).beta0 for e in (50.0, 100.0, 200.0, 400.0, 800.0)]
    assert all(b2 < b1 for b1, b2 in zip(betas, betas[1:]))


@pytest.mark.parametrize(
    "n_parts,energies", [(20, (30.0, 40.0, 60.0)), (30, (40.0, 60.0, 100.0, 140.0))]
)
def test_finite_cap_saddle_matches_restricted_formula(n_parts, energies):
    # Strongly interior to the restricted formula's validity window.
    spec = pd.ThermoSpec(1, pd.BOSE, n_parts)
    for e in energies:
        numeric = pd.find_saddle(spec, e).density
        closed = pd.rho_restricted_bose(e, n_parts)
        assert numeric == pytest.approx(closed, rel=0.05)


def test_find_saddle_domain():
    with pytest.raises(DomainError):
        pd.find_saddle(pd.ThermoSpec(1, pd.BOSE), 0.0)


def test_single_particle_dos():
    split = pd.single_particle_dos_s2(0.25, 0)
    assert split.total == split.smooth == 1.0
    assert split.oscillatory == 0.0
    # Halfway between levels: cos(3 pi q) alternates, partial sums flip.
    for q_max, expected in ((1, -2 / 3), (2, 0.0), (3, -2 / 3), (50, 0.0)):
        got = pd.single_particle_dos_s2(2.25, q_max).oscillatory
        assert got == pytest.approx(expected, abs=1e-9)
    # On a level the partial sums grow with q_max.
    totals = [pd.single_particle_dos_s2(4.0, q).total for q in (0, 5, 25, 100)]
    assert all(b > a for a, b in zip(totals, totals[1:]))
    with pytest.raises(DomainError):
        pd.single_particle_dos_s2(0.0, 5)


def test_poisson_entropy_smooth_regime():
    pe = pd.entropy_poisson_s2(100.0, 0.1, 20, 1)
    assert abs(pe.oscillatory) < 1e-40
    assert pe.total == pytest.approx(pe.smooth, rel=1e-12)
    d2 = pd.make_model(2, pd.FERMI).D
    assert pe.smooth == pytest.approx(
        0.1 * 100.0 + d2 / math.sqrt(0.1) - 0.5 * math.log(2), rel=1e-12
    )


def test_poisson_entropy_oscillatory_sum():
    beta, q_max, l_max = 2.0, 20, 20
    pe = pd.entropy_poisson_s2(10.0, beta, q_max, l_max)
    brute = 0.0
    for q in range(1, q_max + 1):
        for l in range(1, l_max + 1):
            brute += (
                (-1) ** (l + 1)
                * l**-1.5
                * math.exp(-math.pi**2 * q * q / (beta * l))
            )
    brute *= math.sqrt(math.pi / beta)
    assert pe.oscillatory == pytest.approx(brute, rel=1e-12)
    leading = math.sqrt(math.pi / 2) * math.exp(-math.pi**2 / 2)
    assert leading == pytest.approx(9.0e-3, abs=5e-4)
    assert abs(pe.oscillatory) > leading  # later l terms dominate the leading one
    assert pe.tail_bound >= 0


def test_poisson_entropy_no_oscillation_requested():
    pe = pd.entropy_poisson_s2(10.0, 2.0, 0, 20)
    assert pe.oscillatory == 0.0
    assert pe.total == pe.smooth


@pytest.mark.parametrize(
    "bad",
    [
        lambda: pd.entropy_poisson_s2(0.0, 1.0, 5, 5),
        lambda: pd.entropy_poisson_s2(10.0, 0.0, 5, 5),
        lambda: pd.entropy_poisson_s2(10.0, 1.0, -1, 5),
        lambda: pd.entropy_poisson_s2(10.0, 1.0, 5, 0),
    ],
)
def test_poisson_entropy_domains(bad):
    with pytest.raises(DomainError):
        bad()
