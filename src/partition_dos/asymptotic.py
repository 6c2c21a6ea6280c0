"""Closed-form smooth asymptotics for partition counts.

The number of partitions of a large integer E into parts m**s grows like
exp(const * E**(1/(1+s))) with algebraic prefactors.  The constants come
from two special-function combinations:

    C(s) = Gamma(1 + 1/s) * zeta(1 + 1/s)      (multiset counts)
    D(s) = Gamma(1 + 1/s) * eta(1 + 1/s)       (distinct counts)

together with kappa_s = (C/s)**(s/(1+s)) and lambda_s = (D/s)**(s/(1+s)).
This module provides the real-line special functions, the general smooth
densities for both statistics, the classical s = 1 and s = 2 printed forms,
the exponentially small at-most-N-parts correction (Erdos-Lehner), and its
distinct-partition analogue built from a staircase-shifted subtraction
series.  The general density and the two at-most-N curves each have one
implementation, a generator over a grid of energies (rho_unrestricted_grid,
rho_restricted_bose_grid, rho_restricted_fermi_grid) that takes what the
points share once; the one-energy functions are its one-point calls, so a
grid yields the same bits as a loop of them and raises where that loop
would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError
from .limits import integer, one_of, positive

BOSE = "bose"
FERMI = "fermi"

#: C(1) = pi**2/6; also the lower edge of the restricted-formula validity region.
C1 = math.pi**2 / 6

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Term count for the accelerated alternating series; the acceleration gains
# a factor (3 + sqrt(8)) per term, so 40 terms are far below double rounding.
_ACCEL_TERMS = 40


def eta(x: float) -> float:
    """Dirichlet eta (alternating zeta) for x > 0.

    Evaluates sum of (-1)**(k-1) / k**x with the Cohen-Rodriguez
    Villegas-Zagier Chebyshev acceleration, which converges like
    (3 + sqrt(8))**-n independent of x.
    """
    positive("x", x)
    n = _ACCEL_TERMS
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    total = 0.0
    for k in range(n):
        c = b - c
        total += c / (k + 1) ** x
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1))
    return total / d


def zeta(x: float) -> float:
    """Riemann zeta for x > 1, derived from eta via zeta = eta/(1 - 2**(1-x))."""
    if not 1 < x < math.inf:
        raise DomainError(f"x={x!r} is not a finite number > 1")
    return eta(x) / (1.0 - 2.0 ** (1.0 - x))


@dataclass(frozen=True)
class AsymptoticModel:
    """Constants of the smooth density for one (s, statistics) pair.

    rademacher_shift replaces E by E - 1/24 in the s = 1 multiset formula,
    turning it into the leading term of the convergent series for p(n).
    """

    s: float
    statistics: str
    rademacher_shift: bool
    C: float
    D: float
    kappa: float
    lam: float


def make_model(s: float, statistics: str, rademacher_shift: bool = False) -> AsymptoticModel:
    positive("s", s)
    one_of("statistics", statistics, (BOSE, FERMI))
    if rademacher_shift and not (statistics == BOSE and s == 1):
        raise DomainError(f"rademacher_shift={rademacher_shift!r} needs s=1 {BOSE!r} statistics")
    s = float(s)
    arg = 1.0 + 1.0 / s
    if arg == 1.0:
        raise DomainError(f"s={s!r} is too large: 1 + 1/s rounds to 1 in floats")
    too_small = f"s={s!r} is too small: the model constants overflow a float"
    try:
        g = math.gamma(arg)
    except OverflowError as exc:
        raise DomainError(too_small) from exc
    c = g * zeta(arg)
    d = g * eta(arg)
    kappa = (c / s) ** (s / (1.0 + s))
    lam = (d / s) ** (s / (1.0 + s))
    if not all(map(math.isfinite, (c, d, kappa, lam))):
        raise DomainError(too_small)
    return AsymptoticModel(
        s=s,
        statistics=statistics,
        rademacher_shift=rademacher_shift,
        C=c,
        D=d,
        kappa=kappa,
        lam=lam,
    )


def rho_unrestricted(model: AsymptoticModel, E: float) -> float:
    """Smooth density of the unbounded count at energy E (general s).

    Multiset statistics:

        kappa_s / (2 pi)**((s+1)/2) * sqrt(s/(s+1))
            * E**(-(3s+1)/(2(s+1))) * exp(kappa_s (s+1) E**(1/(1+s)))

    Distinct statistics:

        sqrt(s lambda_s) * exp((1+s) lambda_s E**(1/(1+s)))
            / (2 sqrt(pi (1+s) E**((2s+1)/(s+1))))

    The one-point call of :func:`rho_unrestricted_grid`.
    """
    return next(rho_unrestricted_grid(model, (E,)))


def rho_unrestricted_grid(model: AsymptoticModel, energies) -> Iterator[float]:
    """Yield rho_unrestricted(model, E) for each E of `energies`, in turn.

    The constants of the formula are taken once per grid, and each point
    runs the same float operations in the same order as a lone call, so the
    values are the same bits.  Each E is checked just before its value is
    computed, so the first bad E raises where a loop of rho_unrestricted
    calls would: DomainError for an E that is not a finite number > 0 (or
    not above 1/24 with the shift), or OverflowError from a density past
    the float range.
    """
    s = model.s
    exp, inf = math.exp, math.inf
    if model.statistics == BOSE:
        k = model.kappa
        # (2 pi)**((s+1)/2) divides inside the exp: alone it overflows a
        # float from s ~ 770 on, where the density is still finite.
        scale = k * math.sqrt(s / (s + 1.0))
        power = -(3.0 * s + 1.0) / (2.0 * (s + 1.0))
        rate = k * (s + 1.0)
        log_norm = (s + 1.0) * _LOG_SQRT_2PI
    else:
        lam = model.lam
        # E's power is taken negative, so a tiny E cannot underflow a divisor.
        scale = math.sqrt(s * lam / (math.pi * (1.0 + s))) / 2.0
        power = -(2.0 * s + 1.0) / (2.0 * (s + 1.0))
        rate = (1.0 + s) * lam
        log_norm = 0.0
    root = 1.0 / (1.0 + s)
    shift = model.rademacher_shift
    for E in energies:
        if E.__class__ is not float or not 0.0 < E < inf:
            positive("E", E)
        if shift:
            if E <= 1.0 / 24.0:
                raise DomainError(f"E={E!r} does not exceed 1/24, as the shift needs")
            E = E - 1.0 / 24.0
        yield scale * E**power * exp(rate * E**root - log_norm)


def bose_density_s1(E: float) -> float:
    """exp(pi sqrt(2E/3)) / (4 sqrt(3) E): the classical smooth p(n) curve.

    The classical printed form, with two roles.  It is the tests' oracle
    for rho_unrestricted(make_model(1, BOSE), E), the curve figure 1
    draws.  It is also figure 5's smooth curve: cli.cmd_figure subtracts
    the exact count from it for the diff_unrestricted column, and
    rho_restricted_bose_grid (so rho_restricted_bose) builds on it.  It
    stays a separate form because its values differ from
    rho_unrestricted's in the last bits at almost every n, and figure 5
    prints them, and because rho_restricted_bose_grid calls it one point
    at a time, where a lone rho_unrestricted call is the slower: 0.8
    against 0.18 us at E = 300 (Python 3.11, one core of a 2-core x86_64
    host).
    """
    if E.__class__ is not float or not 0.0 < E < math.inf:
        positive("E", E)
    return math.exp(math.pi * math.sqrt(2.0 * E / 3.0)) / (4.0 * math.sqrt(3.0) * E)


def bose_density_s2(E: float) -> float:
    """sqrt(2/3) kappa_2 / (2 pi)**1.5 * exp(3 kappa_2 E**(1/3)) / E**(7/6).

    The classical printed form, kept as the tests' oracle for
    rho_unrestricted(make_model(2, BOSE), E).  The package does not export
    it; the tests, and perfbench's layer tracer, read it from this module.
    """
    positive("E", E)
    kappa2 = (math.gamma(1.5) * zeta(1.5) / 2.0) ** (2.0 / 3.0)
    return (
        math.sqrt(2.0 / 3.0)
        * kappa2
        / (2.0 * math.pi) ** 1.5
        * math.exp(3.0 * kappa2 * E ** (1.0 / 3.0))
        / E ** (7.0 / 6.0)
    )


def fermi_density_s1(E: float) -> float:
    """exp(pi sqrt(E/3)) / (4 * 3**(1/4) * E**(3/4)): smooth distinct count.

    The classical printed form, with two roles.  It is the tests' oracle
    for rho_unrestricted(make_model(1, FERMI), E), the curve figure 3
    draws.  It is also figure 6's smooth curve: cli.cmd_figure subtracts
    the exact count from it for the diff_unrestricted column, and
    rho_restricted_fermi_grid (so rho_restricted_fermi) starts from it.  It
    stays a separate form because tests/test_asymptotic.py and acceptance
    criterion 8 pin rho_restricted_fermi to exactly this value below
    (N+1)(N+2)/2, and because a lone rho_unrestricted call is the slower,
    as for bose_density_s1.
    """
    if E.__class__ is not float or not 0.0 < E < math.inf:
        positive("E", E)
    return math.exp(math.pi * math.sqrt(E / 3.0)) / (4.0 * 3.0**0.25 * E**0.75)


def validity_region(n_parts: int) -> tuple[float, float]:
    """(C(1), C(1) N**2): the window of figures 5 and 6 and of in_validity,
    where the Erdos-Lehner factor is meant to apply (rho_restricted_bose
    says where it is accurate); (C(1), inf) for N past the float range.
    """
    integer("n_parts", n_parts, 1)
    return (C1, C1 * n_parts * n_parts if n_parts < 1e308 else math.inf)


def erdos_lehner_factor(E: float, n_parts: int, keep_half_term: bool = True) -> float:
    """Exponentially small suppression from capping the number of parts at N:

        exp[-(sqrt(6E)/pi - 1/2) * exp(-pi N / sqrt(6E))]

    keep_half_term=False drops the -1/2, which is negligible at large E, and
    N >= 1e308 gives 1.0.  rho_restricted_bose_grid runs the same float
    operations with -pi N taken once per grid, and rho_restricted_fermi_grid
    with the parts that do not depend on N taken once per energy.
    """
    positive("E", E)
    if integer("n_parts", n_parts, 1) >= 1e308:
        return 1.0
    root = math.sqrt(6.0 * E)
    amplitude = root / math.pi - (0.5 if keep_half_term else 0.0)
    return math.exp(-amplitude * math.exp(-math.pi * n_parts / root))


def rho_restricted_bose(E: float, n_parts: int, keep_half_term: bool = True) -> float:
    """Smooth at-most-N-parts density for s = 1 (unrestricted curve times
    the Erdos-Lehner factor), returned at any E > 0.

    Only the bottom of validity_region(N) is accurate.  Against the exact
    p_<=N(n) it is within 10% for n = 20..80 (N = 20), 22..167 (N = 30) and
    24..278 (N = 40), up to 0.11-0.12 C(1) N**2; within 2x up to n = 189,
    358 and 566; and 339x, 5,980x and 1.05e5x the count at the window's top.

    The one-point call of :func:`rho_restricted_bose_grid`.
    """
    return next(rho_restricted_bose_grid((E,), n_parts, keep_half_term))


def rho_restricted_bose_grid(energies, n_parts: int,
                             keep_half_term: bool = True) -> Iterator[float]:
    """Yield bose_density_s1(E) * erdos_lehner_factor(E, n_parts,
    keep_half_term) for each E of `energies`, in turn.

    Each point runs the same float operations in the same order as those
    two calls, so the values are the same bits; -pi N is taken once per
    grid.  n_parts is checked once, after the first E's density, so a grid
    raises where a loop of rho_restricted_bose calls would: DomainError for
    an E that is not a finite number > 0, OverflowError from a density past
    the float range (both before a bad n_parts), then DomainError for a bad
    n_parts.  An empty grid raises nothing.
    """
    sqrt, exp, pi = math.sqrt, math.exp, math.pi
    half = 0.5 if keep_half_term else 0.0
    slope = None  # -pi N, set at the first E
    for E in energies:
        density = bose_density_s1(E)
        if slope is None:
            # A cap from 1e308 on binds nothing.  Its slope -inf makes the
            # factor exp(-0.0) = 1.0, which erdos_lehner_factor returns.
            slope = -pi * n_parts if integer("n_parts", n_parts, 1) < 1e308 else -math.inf
        root = sqrt(6.0 * E)
        yield density * exp(-(root / pi - half) * exp(slope / root))


def rho_restricted_fermi(E: float, n_parts: int, keep_half_term: bool = True) -> float:
    """Smooth at-most-N-parts distinct density for s = 1.

    Subtracts from the unrestricted distinct curve one staircase-shifted
    restricted term per excess part count i > N:

        rho_NF(E) = rho_F(E) - sum_{i>N} rho_i(E - i(i+1)/2)

    with each rho_i the at-most-i-parts smooth density evaluated with i (not
    N) in its inner exponent.  Terms whose shifted energy falls below twice
    C(1) are outside the inner formula's validity floor; for integer E they
    are replaced by the exact restricted count p_<=i(m), m <= 3, in closed
    form, otherwise dropped.

    High in the validity window the series over-subtracts and the result can
    go negative: for integer E it is below zero from E = 582 on for N = 20
    and from E = 1229 on for N = 30.  The inner terms there sit at
    shifted energies m <= 0.62 C(1) i**2, inside their own validity window,
    yet bose_density_s1(m) * erdos_lehner_factor(m, i) exceeds the exact
    at-most-i-parts count by 12x (N = 20, E = 631, i = 21) and 69x
    (N = 30, E = 1456, i = 31).

    The one-point call of :func:`rho_restricted_fermi_grid`.
    """
    return next(rho_restricted_fermi_grid((E,), n_parts, keep_half_term))


def rho_restricted_fermi_grid(energies, n_parts: int,
                              keep_half_term: bool = True) -> Iterator[float]:
    """Yield rho_restricted_fermi(E, n_parts, keep_half_term) for each E of
    `energies`, in turn.

    Each point runs the same float operations in the same order as a lone
    call, so the values are the same bits; what a grid shares is taken once:
    i(i+1)/2 and -pi i per i, and for an integer E the parts of an inner
    term that do not depend on i, bose_density_s1(m), sqrt(6m) and
    -(sqrt(6m)/pi - 1/2), once per shifted energy m, which recurs at almost
    every point of an integer grid.  That memo holds at most one entry per
    integer up to the largest E; other points keep nothing.  Each E is
    checked just before its value is computed, and n_parts with the first
    E, so a grid raises where a loop of rho_restricted_fermi calls would:
    DomainError for an E that is not a finite number > 0 (named before a
    bad n_parts), or OverflowError from a density past the float range.  An
    empty grid raises nothing.
    """
    sqrt, exp, pi, inf = math.sqrt, math.exp, math.pi, math.inf
    half = 0.5 if keep_half_term else 0.0
    floor = 2.0 * C1
    steps: list[tuple[int, float, float]] = []  # (i, i(i+1)/2, -pi i) for i > N
    inner: dict[float, tuple[float, float, float]] = {}  # integer m -> i-free parts
    for E in energies:
        if E.__class__ is not float or not 0.0 < E < inf:
            positive("E", E)
        if not steps:
            # The last i in steps.  A cap past 2**53 binds nothing: steps grow
            # once fermi_density_s1(E) is finite, so E < 2e5 < (N+1)(N+2)/2.
            top = min(integer("n_parts", n_parts, 1), 2**53)
        total = fermi_density_s1(E)
        # Cover every i with E - i(i+1)/2 >= 0, and the first i past them.
        while not steps or E - steps[-1][1] >= 0:
            top += 1
            steps.append((top, top * (top + 1) / 2.0, -pi * top))
        integral = float(E).is_integer()
        for i, tri, slope in steps:
            shifted = E - tri
            if shifted < 0:
                break
            if shifted < floor:
                if integral:
                    # p_<=i(m) for the integer m = shifted <= 3 (2 C(1) < 3.3):
                    # p(m) = 1, 1, 2, 3, less 1 + 1 + 1 when i = 2 and m = 3.
                    total -= max(1, min(i, int(shifted)))
                continue
            # shifted >= 2 C(1) is a float: bose_density_s1 takes its fast path.
            parts = inner.get(shifted) if integral else None
            if parts is None:
                root = sqrt(6.0 * shifted)
                parts = (bose_density_s1(shifted), root, -(root / pi - half))
                if integral:
                    inner[shifted] = parts
            bose, root, amplitude = parts
            total -= bose * exp(amplitude * exp(slope / root))
        yield total
