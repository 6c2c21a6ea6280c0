"""Truncated formal power series over exact integers.

The counting generating functions are finite products of sparse factors,

    product over m of 1/(1 - x^(m**s))     -> multiset counts p^s(n)
    product over m of (1 + x^(m**s))       -> distinct counts d^s(n)

truncated at a degree: a factor is included only while its part value fits
under the truncation, and every omitted factor contributes 1 there.
Coefficients are signed (intermediate factors like 1 - x^k need the sign)
even though all final counts are nonnegative.

One builder, _product, forms every product over the part values m**s,
and identities() builds each product once for the whole suite.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from . import counting
from .errors import DegreeMismatchError, DomainError, ResourceLimitError
from .limits import MAX_DEGREE_ENV, max_series_degree


class IntSeries:
    """Polynomial truncation of a formal power series; exact int coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs, degree: int | None = None):
        try:
            coeffs = list(map(operator.index, coeffs))
        except TypeError as exc:
            raise DomainError(f"coefficients must be integers: {exc}") from exc
        if degree is not None:
            if degree < 0:
                raise DomainError(f"degree must be nonnegative, got {degree!r}")
            coeffs = coeffs[: degree + 1] + [0] * (degree + 1 - len(coeffs))
        elif not coeffs:
            coeffs = [0]
        self._coeffs = tuple(coeffs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.degree:
            raise DomainError(f"coefficient index {n} outside 0..{self.degree}")
        return self._coeffs[n]

    def shifted(self, k: int) -> "IntSeries":
        """Multiply by x**k, keeping the truncation degree."""
        if k < 0:
            raise DomainError(f"shift must be nonnegative, got {k!r}")
        d = self.degree
        if k > d:
            return IntSeries([0], d)
        return IntSeries([0] * k + list(self._coeffs[: d + 1 - k]), d)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntSeries) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "IntSeries") -> "IntSeries":
        d = min(self.degree, other.degree)
        return IntSeries([self._coeffs[i] + other._coeffs[i] for i in range(d + 1)])

    def __mul__(self, other: "IntSeries") -> "IntSeries":
        d = min(self.degree, other.degree)
        a, b = self._coeffs, other._coeffs
        # Iterate the sparser operand on the outside; the factors built here
        # (geometric tails, 1 +/- x^k) are mostly zeros.
        na = sum(1 for c in a[: d + 1] if c)
        nb = sum(1 for c in b[: d + 1] if c)
        if nb < na:
            a, b = b, a
        out = [0] * (d + 1)
        for i in range(d + 1):
            ai = a[i]
            if not ai:
                continue
            for j in range(d - i + 1):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return IntSeries(out)

    def __repr__(self) -> str:
        shown = list(self._coeffs[:8])
        tail = "..." if self.degree > 7 else ""
        return f"IntSeries({shown}{tail}, degree={self.degree})"


def _check_degree(degree: int) -> None:
    if not isinstance(degree, int) or degree < 0:
        raise DomainError(f"degree must be a nonnegative integer, got {degree!r}")
    cap = max_series_degree()
    if degree > cap:
        raise ResourceLimitError(
            f"degree={degree} exceeds the series cap {cap} (override with {MAX_DEGREE_ENV})"
        )


def _factor_start(k: int, degree: int) -> list[int]:
    """Check a factor's arguments; return the coefficients of 1 to degree."""
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    _check_degree(degree)
    return [1] + [0] * degree


def geometric_factor(k: int, degree: int) -> IntSeries:
    """1/(1 - x^k) truncated: 1 + x^k + x^2k + ..."""
    coeffs = _factor_start(k, degree)
    for j in range(k, degree + 1, k):
        coeffs[j] = 1
    return IntSeries(coeffs)


def one_plus_power(k: int, degree: int) -> IntSeries:
    """1 + x^k truncated."""
    coeffs = _factor_start(k, degree)
    if k <= degree:
        coeffs[k] = 1
    return IntSeries(coeffs)


def one_minus_power(k: int, degree: int) -> IntSeries:
    """1 - x^k truncated."""
    coeffs = _factor_start(k, degree)
    if k <= degree:
        coeffs[k] = -1
    return IntSeries(coeffs)


def _product(factor, s: int, degree: int, m_max: int | None = None) -> IntSeries:
    """Product of factor(m**s, degree) over m = 1, 2, ... while m**s <= degree
    (and m <= m_max when set): the one loop behind every product here."""
    if not isinstance(s, int) or s < 1:
        raise DomainError(f"s must be a positive integer, got {s!r}")
    _check_degree(degree)
    out = IntSeries([1], degree)
    m = 1
    while m**s <= degree and (m_max is None or m <= m_max):
        out = out * factor(m**s, degree)
        m += 1
    return out


def bose_gf(s: int, degree: int, m_max: int | None = None) -> IntSeries:
    """Product of 1/(1 - x^(m**s)); coefficient of x^n counts multisets.

    With m_max set, the product stops at m = m_max; for s = 1 that equals
    the at-most-m_max-parts count by conjugation, which makes bose_gf(1, d,
    m_max=N) the generating-function oracle for
    counting.conjugate_restricted_table(N, d) in the tests.
    """
    if m_max is not None and (not isinstance(m_max, int) or m_max < 1):
        raise DomainError(f"m_max must be a positive integer or None, got {m_max!r}")
    return _product(geometric_factor, s, degree, m_max)


def fermi_gf(s: int, degree: int) -> IntSeries:
    """Product of (1 + x^(m**s)); coefficient of x^n counts distinct partitions."""
    return _product(one_plus_power, s, degree)


def distinct_restricted_gf(n_parts: int, degree: int) -> IntSeries:
    """Generating function for at-most-n_parts distinct partitions (s = 1).

    Sum over i of x^(i(i+1)/2) * product_{v<=i} 1/(1 - x^v), staircase form;
    the i = 0 term contributes the constant 1 so that the coefficient of x^0
    matches the empty-partition convention.  This is the series form of
    counting.distinct_restricted_table; with every staircase offset included
    it is the oracle for the full product fermi_gf(1, degree) in the audit
    identity staircase_series.
    """
    if not isinstance(n_parts, int) or n_parts < 1:
        raise DomainError(f"n_parts must be a positive integer, got {n_parts!r}")
    _check_degree(degree)
    out = prod = IntSeries([1], degree)
    for i in range(1, n_parts + 1):
        tri = i * (i + 1) // 2
        if tri > degree:
            break
        prod = prod * geometric_factor(i, degree)
        out = out + prod.shifted(tri)
    return out


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of a coefficient-by-coefficient comparison."""

    equal: bool
    first_mismatch: int | None
    degree: int

    def __str__(self) -> str:
        if self.equal:
            return f"equal up to degree {self.degree}"
        return f"mismatch at index {self.first_mismatch}"


def first_mismatch(lhs, rhs) -> int | None:
    """Index of the first coefficient where two sequences differ, or None."""
    return next((n for n, (a, b) in enumerate(zip(lhs, rhs)) if a != b), None)


def verify_identity(lhs: IntSeries, rhs: IntSeries) -> IdentityReport:
    """Compare two series sharing a truncation degree."""
    if lhs.degree != rhs.degree:
        raise DegreeMismatchError(
            f"degrees differ: {lhs.degree} vs {rhs.degree}"
        )
    n = first_mismatch(lhs.coeffs, rhs.coeffs)
    return IdentityReport(n is None, n, lhs.degree)


def identities(degree: int):
    """Yield (name, lhs, rhs): the exact identity suite up to x^degree.

    lhs and rhs are coefficient sequences of length degree + 1 that agree
    term by term when the identity holds.  Each pairs a fast route with an
    independent one: generating functions against the build_table counts
    (pentagonal recurrences for s = 1, the knapsack for s = 2), the
    staircase decomposition and Young-diagram conjugation against the
    exactly-k recurrences, and Euler's distinct = odd parts in table and
    product form.  Each product is built once and read by every identity
    that needs it.  The names and their order are the output contract of
    the `audit` command.
    """

    def table(s: int, distinct: bool, n_parts: int | None = None) -> tuple[int, ...]:
        spec = counting.SpectrumSpec(s, distinct, n_parts)
        return counting.build_table(spec, degree).counts

    unbounded, products = {}, {}
    for s, distinct in ((1, False), (2, False), (1, True), (2, True)):
        dp = unbounded[s, distinct] = table(s, distinct)
        gf = products[s, distinct] = fermi_gf(s, degree) if distinct else bose_gf(s, degree)
        yield f"gf_vs_dp_{'fermi' if distinct else 'bose'}_s{s}", gf.coeffs, dp

    for n_parts in (4, 10, 30):
        yield (f"staircase_decomposition_N{n_parts}",
               counting.distinct_restricted_table(n_parts, degree),
               table(1, True, n_parts))

    # The full distinct product equals the staircase sum once every
    # staircase offset i(i+1)/2 <= degree is included; the sum stops at the
    # last such offset by itself.
    yield ("staircase_series", products[1, True].coeffs,
           distinct_restricted_gf(degree + 1, degree).coeffs)

    for n_parts in (2, 7, 20, 50):
        yield (f"conjugation_N{n_parts}",
               counting.conjugate_restricted_table(n_parts, degree),
               table(1, False, n_parts))

    yield "euler_odd_equals_distinct", counting.odd_parts_table(degree), unbounded[1, True]

    # prod (1 + x^v) = prod 1/(1 - x^v) * prod (1 - x^(2v)) over the part values v.
    for s in (1, 2):
        rhs = products[s, False] * _product(
            lambda v, d: one_minus_power(2 * v, d), s, degree)
        yield f"euler_factorization_s{s}", products[s, True].coeffs, rhs.coeffs
