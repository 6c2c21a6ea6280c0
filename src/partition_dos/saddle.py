"""Numeric route to the smooth densities: sum the canonical log partition
function directly, locate the stationary point of S(beta) = beta*E + ln Z,
and apply the Gaussian (second-order) approximation

    rho(E) = exp(S(beta0)) / sqrt(2 pi S''(beta0)).

No closed-form expansion enters: derivatives are exact term-wise sums,
and one loop of bracketed Newton steps in ln beta finds the saddle.
Each level sum is one numpy pass over the levels inside the cutoff, in
chunks of at most 2**13 levels; the scalar loop it replaced stays in the
tests as its oracle.  The module also carries the exact resummation of the
s = 2 single-particle level density into smooth plus oscillating parts, and
the corresponding oscillatory entropy double sum.  That sum is a measured
negative result: it does not produce the distinct-square beats.  At the
E = 1000 fermi s = 2 saddle, beta0 = 0.00486, its oscillating part is 0.0,
and at beta = 0.05 it is -3.6e-5, while d^2(n) swings 4.1% rms about the
smooth curve on n = 2000..4000.  ROADMAP item 2, a quadrature of the
generating function over Farey arcs, carries the candidate explanation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotic import BOSE, FERMI, eta, zeta
from .errors import ConvergenceError, DomainError
from .limits import integer, one_of, positive

# exp(-37) < 1e-16: once beta * m**s passes this, further terms are dust.
_TERM_CUTOFF = 37.0
# find_saddle stops once |S'(beta)| <= _TOL_SCALE * E.
_TOL_SCALE = 1e-12
_MAX_TERMS = 5_000_000
# Levels per numpy pass of the level sum.  Keeps each temporary at 64 KiB:
# passes of 2**16 levels ran slower and added ~3 MB to peak memory.
_CHUNK = 1 << 13


@dataclass(frozen=True)
class ThermoSpec:
    """Statistics and spectrum exponent for one thermodynamic sum.

    A finite max_parts is accepted only for (bose, s=1), where the finite
    product over the first N levels is exactly the at-most-N-parts
    generating function.
    """

    s: float
    statistics: str
    max_parts: int | None = None

    def __post_init__(self) -> None:
        positive("s", self.s)
        one_of("statistics", self.statistics, (BOSE, FERMI))
        if self.max_parts is not None:
            integer("max_parts", self.max_parts, 1)
            if not (self.statistics == BOSE and self.s == 1):
                raise DomainError(
                    f"max_parts={self.max_parts!r} is exact only for {BOSE!r} statistics at s=1"
                )


@dataclass(frozen=True)
class SaddleResult:
    """Stationary point and the Gaussian-approximation density built from it.

    Solver diagnostics: iterations counts the level sums of the solve, and
    level_terms the levels summed in the final one.
    """

    beta0: float
    entropy: float
    curvature: float
    density: float
    residual: float
    iterations: int
    level_terms: int


def _level_count(spec: ThermoSpec, beta: float) -> int:
    """Number of levels m = 1, 2, ... with beta * m**s <= _TERM_CUTOFF.

    Capped at max_parts.  Raises ConvergenceError when _MAX_TERMS or more
    levels would be summed.  The bound (cutoff / beta)**(1/s) is estimated
    in logs, so it cannot overflow for tiny s or beta, and then settled by
    the same scalar test `beta * float(m)**s <= _TERM_CUTOFF` on the levels
    next to it.
    """
    limit = _MAX_TERMS if spec.max_parts is None else min(spec.max_parts, _MAX_TERMS)
    log_bound = (math.log(_TERM_CUTOFF) - math.log(beta)) / spec.s
    m = min(int(math.exp(min(log_bound, math.log(limit) + 1.0))), limit)

    def inside(k: int) -> bool:
        try:
            return beta * float(k) ** spec.s <= _TERM_CUTOFF
        except OverflowError:  # k**s beyond the float range: far outside
            return False

    while m > 0 and not inside(m):
        m -= 1
    while m < limit and inside(m + 1):
        m += 1
    if m >= _MAX_TERMS:
        raise ConvergenceError(
            f"level sum at beta={beta} needs more than {_MAX_TERMS} terms"
        )
    return m


def _sum_terms(spec: ThermoSpec, beta: float) -> tuple[float, float, float, int]:
    """(ln Z, d ln Z/d beta, d2 ln Z/d beta2, levels summed) at beta.

    The levels are those with beta * m**s <= _TERM_CUTOFF, where the terms
    are still above 1e-16 (and m <= max_parts); they are summed with numpy
    in chunks of at most _CHUNK levels.  Raises ConvergenceError if that
    would take _MAX_TERMS levels or more, which only happens for tiny beta.
    Each bose ln Z term is -ln(1 - e^-t) = -ln(-expm1(-t)), accurate to
    ~1e-16 absolute for every t > 0, down to t = 5e-324.  Derivative sums
    past the float range come out as inf, without a numpy warning; the
    caller decides what an infinite sum means.
    """
    positive("beta", beta)
    if beta > _TERM_CUTOFF:
        return 0.0, 0.0, 0.0, 0
    bose = spec.statistics == BOSE
    n_levels = _level_count(spec, beta)
    lnz = dlnz = d2lnz = 0.0
    with np.errstate(over="ignore", divide="ignore"):
        for start in range(1, n_levels + 1, _CHUNK):
            level = np.arange(start, min(start + _CHUNK, n_levels + 1), dtype=float) ** spec.s
            t = beta * level
            if bose:
                em = np.expm1(t)  # e^t - 1, accurate for small t
                lnz -= float(np.log(-np.expm1(-t)).sum())
                dlnz -= float((level / em).sum())
                d2lnz += float((level * level * (1.0 + 1.0 / em) / em).sum())
            else:
                ex = np.exp(-t)
                lnz += float(np.log1p(ex).sum())
                dlnz -= float((level * ex / (1.0 + ex)).sum())
                d2lnz += float((level * level * ex / (1.0 + ex) ** 2).sum())
    return lnz, dlnz, d2lnz, n_levels


def log_z(spec: ThermoSpec, beta: float) -> float:
    """ln Z(beta): -sum ln(1 - e^(-beta m^s)) for bose, +sum ln(1 + ...) for fermi."""
    return _sum_terms(spec, beta)[0]


def entropy(spec: ThermoSpec, E: float, beta: float) -> float:
    """S(beta) = beta E + ln Z(beta)."""
    return beta * E + log_z(spec, beta)


def find_saddle(spec: ThermoSpec, E: float) -> SaddleResult:
    """Solve S'(beta0) = 0 and assemble the Gaussian density estimate.

    S' = E - <E> with <E> = -d ln Z/d beta, and S'' > 0, so the root is
    unique.  One loop keeps a bracket [lo, hi], starting at [0, 37], and
    takes Newton steps on ln <E> = ln E in ln beta, whose slope is
    -k = -beta S''/<E>; ln <E> is linear in ln beta, with k = 1 + 1/s, for
    a continuous power-law spectrum, so a solve takes 5-8 level sums.  At
    beta = 37 the sum has exactly one level and S' = E - 8.5e-17 > 0 for
    every E above e^-37; x never exceeds 37, so <E> > 0 and S'' > 0 at
    every step.  For E below e^-37, lo = hi = 37 and the loop stalls.

    A step outside the bracket is replaced by its geometric midpoint, or
    by halving beta while no lower end is known; until then a step also
    needs k >= 1.  That always holds for bose, where each level has
    k_m = t e^t / (e^t - 1) >= 1.  For fermi, k < 1 means the occupied
    levels saturate and <E> sits on a plateau until the next level m**s
    comes in; a Newton step from there jumped to beta = 3e-274 at s = 10,
    E = 1000.  A step past hi is never exponentiated, as e^shift could
    overflow for such a small k.
    """
    positive("E", E)
    tol = _TOL_SCALE * E

    lo, hi = 0.0, _TERM_CUTOFF
    x = hi
    for iterations in range(1, 101):
        lnz, dlnz, d2lnz, level_terms = _sum_terms(spec, x)
        slope = E + dlnz
        if abs(slope) <= tol:
            break
        if slope > 0:
            hi = x
        else:
            lo = x
        k = x * d2lnz / -dlnz  # -d ln<E> / d ln beta
        shift = (math.log(-dlnz) - math.log(E)) / k  # the Newton step in ln beta
        step = x * math.exp(shift) if shift < math.log(hi / x) else hi
        trusted = lo < step < hi and (lo > 0 or k >= 1.0)
        x = step if trusted else (math.sqrt(lo) * math.sqrt(hi) if lo else 0.5 * hi)
    else:
        raise ConvergenceError(
            f"saddle refinement stalled at |S'|={abs(slope):.3e} (tol {tol:.3e})"
        )

    if not math.isfinite(d2lnz):
        raise ConvergenceError(f"S'' at beta={x} exceeds the float range")
    s0 = x * E + lnz
    density = math.exp(s0) / math.sqrt(2.0 * math.pi * d2lnz)
    return SaddleResult(
        beta0=x,
        entropy=s0,
        curvature=d2lnz,
        density=density,
        residual=abs(slope),
        iterations=iterations,
        level_terms=level_terms,
    )


@dataclass(frozen=True)
class DosSplit:
    """Single-particle level density split into smooth and oscillating parts."""

    total: float
    smooth: float
    oscillatory: float


def single_particle_dos_s2(eps: float, q_max: int) -> DosSplit:
    """Level density of the quadratic spectrum m**2 at energy eps > 0.

    Poisson resummation of the level sum gives, away from eps = 0,

        g(eps) = 1/(2 sqrt(eps)) + (1/sqrt(eps)) sum_q cos(2 pi q sqrt(eps)),

    returned as a partial sum over q <= q_max.  At eps exactly on a level
    the cosines all equal one and the partial sums grow with q_max,
    rebuilding the delta spike.
    """
    positive("eps", eps)
    integer("q_max", q_max, 0)
    root = math.sqrt(eps)
    smooth = 0.5 / root
    osc = 0.0
    for q in range(1, q_max + 1):
        osc += math.cos(2.0 * math.pi * q * root)
    osc /= root
    return DosSplit(smooth + osc, smooth, osc)


@dataclass(frozen=True)
class PoissonEntropy:
    """Entropy at (E, beta) for distinct s = 2 counting, smooth/oscillatory split."""

    total: float
    smooth: float
    oscillatory: float
    tail_bound: float


def entropy_poisson_s2(E: float, beta: float, q_max: int, l_max: int) -> PoissonEntropy:
    """Entropy of the distinct-square problem including the oscillating piece.

    Smooth part: beta E + D(2)/sqrt(beta) - ln(2)/2.  The oscillating part is

        sqrt(pi/beta) * sum_{q>=1} sum_{l>=1} (-1)^(l+1) l^(-3/2)
                                   * exp(-pi^2 q^2 / (beta l)),

    summed to (q_max, l_max); q rows stop early once their largest term
    falls below 1e-18 of the smooth entropy.  tail_bound estimates the
    first omitted q row.
    """
    positive("E", E)
    positive("beta", beta)
    integer("q_max", q_max, 0)
    integer("l_max", l_max, 1)

    d2 = math.gamma(1.5) * eta(1.5)
    smooth = beta * E + d2 / math.sqrt(beta) - 0.5 * math.log(2.0)
    prefactor = math.sqrt(math.pi / beta)
    threshold = 1e-18 * abs(smooth)

    osc = 0.0
    q_stop = q_max
    for q in range(1, q_max + 1):
        largest = prefactor * l_max**-1.5 * math.exp(-math.pi**2 * q * q / (beta * l_max))
        if largest < threshold:
            q_stop = q - 1
            break
        row = 0.0
        sign = 1.0
        for l in range(1, l_max + 1):
            row += sign * l**-1.5 * math.exp(-math.pi**2 * q * q / (beta * l))
            sign = -sign
        osc += prefactor * row
    # zeta(3/2) covers the l sum of the first omitted q row.
    q_next = q_stop + 1
    tail = prefactor * math.exp(-math.pi**2 * q_next * q_next / (beta * l_max)) * zeta(1.5)
    return PoissonEntropy(smooth + osc, smooth, osc, tail)
