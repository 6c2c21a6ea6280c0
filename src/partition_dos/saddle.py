"""Numeric route to the smooth densities: sum the canonical log partition
function directly, locate the stationary point of S(beta) = beta*E + ln Z,
and apply the Gaussian (second-order) approximation

    rho(E) = exp(S(beta0)) / sqrt(2 pi S''(beta0)).

No closed-form expansion enters: derivatives are exact term-wise sums.
The module also carries the exact resummation of the s = 2 single-particle
level density into smooth plus oscillating parts, and the corresponding
oscillatory entropy whose double sum drives the distinct-square beats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .asymptotic import BOSE, FERMI, eta, zeta
from .errors import BracketingError, ConvergenceError, DomainError

# exp(-37) < 1e-16: once beta * m**s passes this, further terms are dust.
_TERM_CUTOFF = 37.0
_MAX_TERMS = 5_000_000

_BRACKET_LO = 1e-6
_BRACKET_HI = 1e3


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
        if not self.s > 0:
            raise DomainError(f"s must be positive, got {self.s!r}")
        if self.statistics not in (BOSE, FERMI):
            raise DomainError(
                f"statistics must be {BOSE!r} or {FERMI!r}, got {self.statistics!r}"
            )
        if self.max_parts is not None:
            if not isinstance(self.max_parts, int) or self.max_parts < 1:
                raise DomainError(
                    f"max_parts must be a positive integer or None, got {self.max_parts!r}"
                )
            if not (self.statistics == BOSE and self.s == 1):
                raise DomainError("finite max_parts is exact only for bose statistics at s=1")


@dataclass(frozen=True)
class SaddleResult:
    """Stationary point and the Gaussian-approximation density built from it."""

    beta0: float
    entropy: float
    curvature: float
    density: float
    residual: float


def _sum_terms(spec: ThermoSpec, beta: float) -> tuple[float, float, float]:
    """(ln Z, d ln Z/d beta, d2 ln Z/d beta2) by direct summation over levels.

    Terms are added until they drop below 1e-16 in magnitude (or the level
    cap for finite max_parts).  Raises ConvergenceError if that would take
    more than a few million terms, which only happens for tiny beta.
    """
    if beta <= 0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    bose = spec.statistics == BOSE
    s = spec.s
    m_cap = spec.max_parts
    lnz = dlnz = d2lnz = 0.0
    m = 1
    while m_cap is None or m <= m_cap:
        level = float(m) ** s
        t = beta * level
        if t > _TERM_CUTOFF:
            break
        if bose:
            em = math.expm1(t)  # e^t - 1, accurate for small t
            lnz -= math.log1p(-math.exp(-t))
            dlnz -= level / em
            d2lnz += level * level * (1.0 + 1.0 / em) / em
        else:
            ex = math.exp(-t)
            lnz += math.log1p(ex)
            dlnz -= level * ex / (1.0 + ex)
            d2lnz += level * level * ex / (1.0 + ex) ** 2
        m += 1
        if m > _MAX_TERMS:
            raise ConvergenceError(
                f"level sum at beta={beta} needs more than {_MAX_TERMS} terms"
            )
    return lnz, dlnz, d2lnz


def log_z(spec: ThermoSpec, beta: float) -> float:
    """ln Z(beta): -sum ln(1 - e^(-beta m^s)) for bose, +sum ln(1 + ...) for fermi."""
    return _sum_terms(spec, beta)[0]


def entropy(spec: ThermoSpec, E: float, beta: float) -> float:
    """S(beta) = beta E + ln Z(beta)."""
    return beta * E + log_z(spec, beta)


def find_saddle(spec: ThermoSpec, E: float, tol_scale: float = 1e-9) -> SaddleResult:
    """Solve S'(beta0) = 0 and assemble the Gaussian density estimate.

    S' is monotone increasing (S'' > 0 for every level sum), so a descending
    geometric sweep over beta in [1e-6, 1e3] brackets the unique root, which
    safeguarded Newton steps then polish to |S'| <= tol_scale * E.
    """
    if E <= 0:
        raise DomainError(f"E must be positive, got {E!r}")
    tol = tol_scale * E

    hi = None
    lo = None
    beta = _BRACKET_HI
    while beta >= _BRACKET_LO * (1.0 - 1e-12):
        slope = E + _sum_terms(spec, beta)[1]
        if slope > 0:
            hi = beta
        else:
            lo = beta
            break
        beta *= 0.5
    if lo is None or hi is None:
        raise BracketingError(
            f"entropy derivative has no sign change on [{_BRACKET_LO}, {_BRACKET_HI}] at E={E}"
        )

    x = math.sqrt(lo * hi)
    lnz = dlnz = d2lnz = 0.0
    slope = math.inf
    for _ in range(100):
        lnz, dlnz, d2lnz = _sum_terms(spec, x)
        slope = E + dlnz
        if abs(slope) <= tol:
            break
        if slope > 0:
            hi = x
        else:
            lo = x
        step = x - slope / d2lnz
        x = step if lo < step < hi else math.sqrt(lo * hi)
    else:
        raise ConvergenceError(
            f"saddle refinement stalled at |S'|={abs(slope):.3e} (tol {tol:.3e})"
        )

    s0 = x * E + lnz
    density = math.exp(s0) / math.sqrt(2.0 * math.pi * d2lnz)
    return SaddleResult(
        beta0=x, entropy=s0, curvature=d2lnz, density=density, residual=abs(slope)
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
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    if q_max < 0:
        raise DomainError(f"q_max must be nonnegative, got {q_max!r}")
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
    if E <= 0:
        raise DomainError(f"E must be positive, got {E!r}")
    if beta <= 0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    if q_max < 0:
        raise DomainError(f"q_max must be nonnegative, got {q_max!r}")
    if l_max < 1:
        raise DomainError(f"l_max must be a positive integer, got {l_max!r}")

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
