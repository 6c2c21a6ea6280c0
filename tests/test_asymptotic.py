import math

import pytest
from scipy import special

import partition_dos as pd
from partition_dos import asymptotic
from partition_dos.asymptotic import C1
from partition_dos.errors import DomainError
from partition_dos.limits import positive


def eta_direct(x: float, terms: int = 200_000) -> tuple[float, float]:
    """Plain alternating sum plus a rigorous tail bound (next-term magnitude)."""
    total = 0.0
    sign = 1.0
    for k in range(1, terms + 1):
        total += sign / k**x
        sign = -sign
    return total, 1.0 / (terms + 1) ** x


@pytest.mark.parametrize("x,expected", [(1.0, math.log(2)), (2.0, math.pi**2 / 12)])
def test_eta_known_values(x, expected):
    assert pd.eta(x) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("x", [1.1, 1.5, 2.5])
def test_eta_against_direct_summation(x):
    direct, bound = eta_direct(x)
    assert abs(pd.eta(x) - direct) <= bound + 1e-12


def test_zeta_known_values():
    assert pd.zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-13)
    assert pd.zeta(4.0) == pytest.approx(math.pi**4 / 90, rel=1e-13)
    assert pd.zeta(1.5) == pytest.approx(2.612375348685488, rel=1e-12)


@pytest.mark.parametrize("x", [1.01, 1.1, 1.25, 1.5, 2.0, 3.0, 4.0])
def test_zeta_against_scipy(x):
    assert pd.zeta(x) == pytest.approx(float(special.zeta(x)), rel=1e-10)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: pd.eta(0.0),
        lambda: pd.eta(-1.0),
        lambda: pd.zeta(1.0),
        lambda: pd.zeta(0.5),
    ],
)
def test_special_function_domains(bad):
    with pytest.raises(DomainError):
        bad()


def test_model_s1_closed_forms():
    m = pd.make_model(1, pd.BOSE)
    assert m.C == pytest.approx(math.pi**2 / 6, abs=1e-12)
    assert m.D == pytest.approx(math.pi**2 / 12, abs=1e-12)
    assert m.kappa == pytest.approx(math.pi / math.sqrt(6), abs=1e-12)
    assert m.lam == pytest.approx(math.pi / math.sqrt(12), abs=1e-12)


def test_model_s2_constants():
    m = pd.make_model(2, pd.BOSE)
    c_ref = math.gamma(1.5) * float(special.zeta(1.5))
    assert m.C == pytest.approx(c_ref, rel=1e-12)
    assert m.C == pytest.approx(2.3152, abs=2e-4)
    assert m.kappa == pytest.approx((c_ref / 2) ** (2 / 3), rel=1e-12)
    assert m.kappa == pytest.approx(1.1025, abs=2e-4)
    mf = pd.make_model(2, pd.FERMI)
    d_ref = math.gamma(1.5) * (1 - 2**-0.5) * float(special.zeta(1.5))
    assert mf.D == pytest.approx(d_ref, rel=1e-12)
    assert mf.D == pytest.approx(0.6781, abs=2e-4)
    assert mf.lam == pytest.approx((d_ref / 2) ** (2 / 3), rel=1e-12)
    assert mf.lam == pytest.approx(0.4862, abs=2e-4)


@pytest.mark.parametrize("s", [0.5, 1.0, 1.7, 2.0, 3.0])
def test_model_constant_orderings(s):
    m = pd.make_model(s, pd.BOSE)
    assert m.C > m.D > 0
    assert m.kappa > m.lam > 0


def test_model_validation():
    with pytest.raises(DomainError):
        pd.make_model(0, pd.BOSE)
    with pytest.raises(DomainError):
        pd.make_model(1, "anyons")
    with pytest.raises(DomainError):
        pd.make_model(1, pd.FERMI, rademacher_shift=True)
    with pytest.raises(DomainError):
        pd.make_model(2, pd.BOSE, rademacher_shift=True)


def test_model_constant_overflow_is_domain_error():
    # Gamma(1 + 1/s) overflows below s ~ 0.00586, kappa below s ~ 0.005895.
    for s in (0.005, 0.005862):
        with pytest.raises(DomainError, match="too small"):
            pd.make_model(s, pd.BOSE)
    m = pd.make_model(0.0059, pd.BOSE)
    assert m.C == m.D == pytest.approx(5.325203114670031e305, rel=1e-12)
    assert m.kappa == m.lam == pytest.approx(64.01478670734691, rel=1e-12)


def test_density_examples():
    rho_b = pd.rho_unrestricted(pd.make_model(1, pd.BOSE), 10.0)
    assert rho_b == pytest.approx(
        math.exp(math.pi * math.sqrt(20 / 3)) / (4 * math.sqrt(3) * 10), rel=1e-12
    )
    assert rho_b == pytest.approx(48.1, abs=0.5)
    rho_f = pd.rho_unrestricted(pd.make_model(1, pd.FERMI), 10.0)
    assert rho_f == pytest.approx(
        math.exp(math.pi * math.sqrt(10 / 3)) / (4 * 3**0.25 * 10**0.75), rel=1e-12
    )
    assert rho_f == pytest.approx(10.5, abs=0.5)


@pytest.mark.parametrize("E", [10.0, 100.0, 1000.0])
def test_general_formula_specializes(E):
    assert pd.rho_unrestricted(pd.make_model(1, pd.BOSE), E) == pytest.approx(
        pd.bose_density_s1(E), rel=1e-12
    )
    assert pd.rho_unrestricted(pd.make_model(2, pd.BOSE), E) == pytest.approx(
        asymptotic.bose_density_s2(E), rel=1e-12
    )
    assert pd.rho_unrestricted(pd.make_model(1, pd.FERMI), E) == pytest.approx(
        pd.fermi_density_s1(E), rel=1e-12
    )


def test_shift_is_an_energy_substitution():
    model = pd.make_model(1, pd.BOSE, rademacher_shift=True)
    shifted = pd.rho_unrestricted(model, 50.0)
    assert shifted == pytest.approx(pd.bose_density_s1(50.0 - 1 / 24), rel=1e-12)
    with pytest.raises(DomainError):
        pd.rho_unrestricted(model, 1 / 48)


def _rho_point(model, E):
    """The smooth density at one E, written out per point as
    rho_unrestricted was before rho_unrestricted_grid: the oracle that the
    grid, and so rho_unrestricted, must match bit for bit."""
    positive("E", E)
    s = model.s
    if model.statistics == pd.BOSE:
        if model.rademacher_shift:
            if E <= 1.0 / 24.0:
                raise DomainError(f"E={E!r} does not exceed 1/24, as the shift needs")
            E = E - 1.0 / 24.0
        k = model.kappa
        return (
            k
            * math.sqrt(s / (s + 1.0))
            * E ** (-(3.0 * s + 1.0) / (2.0 * (s + 1.0)))
            * math.exp(k * (s + 1.0) * E ** (1.0 / (1.0 + s))
                       - (s + 1.0) * asymptotic._LOG_SQRT_2PI)
        )
    lam = model.lam
    return (
        math.sqrt(s * lam / (math.pi * (1.0 + s)))
        / 2.0
        * E ** (-(2.0 * s + 1.0) / (2.0 * (s + 1.0)))
        * math.exp((1.0 + s) * lam * E ** (1.0 / (1.0 + s)))
    )


GRID_MODELS = [
    pd.make_model(s, stats) for s in (0.5, 1, 2, 3, 8, 800) for stats in (pd.BOSE, pd.FERMI)
] + [pd.make_model(1, pd.BOSE, rademacher_shift=True)]


@pytest.mark.parametrize("model", GRID_MODELS,
                         ids=lambda m: f"{m.s}-{m.statistics}-{m.rademacher_shift}")
def test_density_grid_is_the_per_point_formula(model):
    # Below 4000 no density here overflows; s = 0.5 bose does from ~4.7e3.
    grid = [0.05, 0.5, 1.0, 2.5, 10.0, 77.7, 300.0, 1000.0, 3999.5]
    grid += [float(n) for n in range(1, 2201, 7)] + [3, 50]  # ints too
    expected = [_rho_point(model, E) for E in grid]
    assert list(asymptotic.rho_unrestricted_grid(model, grid)) == expected
    assert [pd.rho_unrestricted(model, E) for E in grid] == expected


def _run(values):
    """The values an iterator yields before it raises, and what it raises."""
    out = []
    try:
        for value in values:
            out.append(value)
    except (DomainError, OverflowError) as exc:
        return out, type(exc), str(exc)
    return out, None, None


@pytest.mark.parametrize(
    "model,grid",
    [
        *[(m, [2.0, 700.0, bad]) for m in GRID_MODELS[:4] for bad in (0.0, -1.0, math.nan)],
        (GRID_MODELS[-1], [1.0, 1 / 48, -1.0]),  # the shift's own floor
        (pd.make_model(0.5, pd.BOSE), [100.0, 1e6, -1.0]),  # overflow comes first
        (pd.make_model(0.5, pd.FERMI), [100.0, 1e6, -1.0]),
        (pd.make_model(1, pd.BOSE), [10.0, "1", 1e6]),
    ],
)
def test_density_grid_raises_at_the_first_bad_energy(model, grid):
    loop = _run(_rho_point(model, E) for E in grid)
    assert loop[1] is not None
    assert _run(asymptotic.rho_unrestricted_grid(model, grid)) == loop


def test_fermi_below_bose_pointwise():
    mb = pd.make_model(1, pd.BOSE)
    mf = pd.make_model(1, pd.FERMI)
    for E in (1.0, 5.0, 20.0, 100.0, 700.0, 2000.0):
        assert pd.rho_unrestricted(mf, E) < pd.rho_unrestricted(mb, E)


def test_accuracy_improves_with_n_and_shift():
    table = pd.build_table(pd.SpectrumSpec(1), 400)
    model = pd.make_model(1, pd.BOSE)
    shifted = pd.make_model(1, pd.BOSE, rademacher_shift=True)
    prev = math.inf
    for n in (50, 100, 200, 400):
        err = abs(pd.rho_unrestricted(model, n) - table[n]) / table[n]
        err_shift = abs(pd.rho_unrestricted(shifted, n) - table[n]) / table[n]
        assert err < prev
        assert err_shift <= err
        prev = err
    for n in (5, 10, 20):
        err = abs(pd.rho_unrestricted(model, n) - table[n]) / table[n]
        err_shift = abs(pd.rho_unrestricted(shifted, n) - table[n]) / table[n]
        assert err_shift <= err


def test_erdos_lehner_factor():
    # Direct re-evaluation of the printed expression.
    e, n_parts = 100.0, 20
    inner = math.exp(-math.pi * n_parts / math.sqrt(6 * e))
    expected = math.exp(-(math.sqrt(6 * e) / math.pi - 0.5) * inner)
    assert pd.erdos_lehner_factor(e, n_parts) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.5705, abs=5e-4)
    without_half = math.exp(-(math.sqrt(6 * e) / math.pi) * inner)
    assert pd.erdos_lehner_factor(e, n_parts, keep_half_term=False) == pytest.approx(
        without_half, rel=1e-12
    )
    # Cap removed: factor approaches 1.
    assert pd.erdos_lehner_factor(100.0, 10_000) == pytest.approx(1.0, abs=1e-12)


def test_restricted_bose_value_and_flag():
    assert pd.rho_restricted_bose(100.0, 20) == pytest.approx(
        pd.bose_density_s1(100.0) * pd.erdos_lehner_factor(100.0, 20), rel=1e-12
    )
    lo, hi = pd.validity_region(20)
    assert lo < 100.0 < hi
    assert not lo < 1.0 < hi
    assert not lo < 7e4 < hi
    assert lo == pytest.approx(C1, rel=1e-12)
    assert hi == pytest.approx(C1 * 400, rel=1e-12)


def test_restricted_fermi_empty_sum():
    # No staircase offset fits below E: restricted curve equals unrestricted.
    assert pd.rho_restricted_fermi(300.0, 30) == pd.fermi_density_s1(300.0)
    assert pd.rho_restricted_fermi(100.0, 15) == pd.fermi_density_s1(100.0)


def _fermi_with_table_floor(E, n_parts, keep_half_term):
    """rho_restricted_fermi with each sub-floor term read from the exact
    at-most-i-parts table, as the closed form replaced it."""
    total = pd.fermi_density_s1(E)
    i = n_parts + 1
    while (shifted := E - i * (i + 1) / 2.0) >= 0:
        if shifted < 2.0 * C1:
            m = int(shifted)
            total -= pd.conjugate_restricted_table(i, m)[m]
        else:
            total -= pd.bose_density_s1(shifted) * pd.erdos_lehner_factor(
                shifted, i, keep_half_term)
        i += 1
    return total


@pytest.mark.parametrize("n_parts", [1, 2, 20, 30])
def test_restricted_fermi_floor_terms_are_the_exact_counts(n_parts):
    # Every integer E with a term at shifted energy m = 0..3, for i <= 80.
    grid = sorted({i * (i + 1) // 2 + m for i in range(n_parts + 1, 81) for m in range(4)})
    for E in grid:
        for keep in (True, False):
            want = _fermi_with_table_floor(float(E), n_parts, keep)
            assert pd.rho_restricted_fermi(float(E), n_parts, keep) == want, E
            assert pd.rho_restricted_fermi(E, n_parts, keep) == want, E


def test_restricted_fermi_against_exact():
    d30 = pd.distinct_restricted_table(30, 300)[300]
    value = pd.rho_restricted_fermi(300.0, 30)
    assert 0 < value <= pd.fermi_density_s1(300.0)
    assert value == pytest.approx(d30, rel=0.02)


def test_restricted_fermi_subtraction_engages():
    # Once offsets fit, the restricted value drops strictly below unrestricted.
    assert pd.rho_restricted_fermi(400.0, 20) < pd.fermi_density_s1(400.0)


@pytest.mark.parametrize("n_parts", [20, 30])
def test_restricted_fermi_improves_on_engaged_midband(n_parts):
    # Where the subtraction series is active but well inside the validity
    # window, the corrected curve beats the unrestricted one at every point.
    lo = (n_parts + 1) * (n_parts + 2) // 2
    hi = int(0.65 * C1 * n_parts**2)
    exact = pd.distinct_restricted_table(n_parts, hi)
    for n in range(lo, hi + 1):
        d_n = float(exact[n])
        du = abs(pd.fermi_density_s1(float(n)) - d_n)
        dr = abs(pd.rho_restricted_fermi(float(n), n_parts) - d_n)
        assert dr < du, n


@pytest.mark.parametrize(
    "bad",
    [
        lambda: pd.rho_unrestricted(pd.make_model(1, pd.BOSE), 0.0),
        lambda: pd.rho_unrestricted(pd.make_model(1, pd.FERMI), -3.0),
        lambda: pd.rho_restricted_bose(0.0, 20),
        lambda: pd.rho_restricted_bose(10.0, 0),
        lambda: pd.rho_restricted_fermi(-1.0, 20),
        lambda: pd.rho_restricted_fermi(10.0, 0),
        lambda: pd.erdos_lehner_factor(0.0, 5),
        lambda: pd.validity_region(0),
    ],
)
def test_density_domain_errors(bad):
    with pytest.raises(DomainError):
        bad()
