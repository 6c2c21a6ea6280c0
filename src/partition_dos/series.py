"""Truncated formal power series over exact integers.

The counting generating functions are finite products of sparse factors,

    product over m of 1/(1 - x^(m**s))     -> multiset counts p^s(n)
    product over m of (1 + x^(m**s))       -> distinct counts d^s(n)

truncated at a degree: a factor is included only while its part value fits
under the truncation, and every omitted factor contributes 1 there.
Coefficients are signed (intermediate factors like 1 - x^k need the sign)
even though all final counts are nonnegative.

One builder, _product, forms every product over the part values m**s that
counting.SpectrumSpec lists, and identities() builds each product once.
The product uses the exact tables' shifted-row add, counting._add_row: one
row add per nonzero coefficient of its sparser operand.  A product never
reads its partial result, only its two operands, so it stays a convolution
and an independent oracle for the in-place _add_parts sweep.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import compress, repeat

from . import counting
from .counting import _add_row
from .errors import DomainError
from .limits import integer, series_degree


class IntSeries:
    """Polynomial truncation of a formal power series; exact int coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs, degree: int | None = None):
        try:
            coeffs = list(map(operator.index, coeffs))
        except TypeError as exc:
            raise DomainError(f"coefficients must be integers: {exc}") from exc
        if degree is not None:
            integer("degree", degree, 0)
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
        return self._coeffs[integer("n", n, 0, self.degree)]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntSeries) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __mul__(self, other: "IntSeries") -> "IntSeries":
        """The product truncated at the smaller degree.

        A convolution: each nonzero a_i of the sparser operand adds the other
        operand, times a_i and shifted by i, into the result with one
        counting._add_row.  The first such row seeds the result instead of
        being added into zeros, itertools.compress finds the nonzero a_i
        and map scales a row, so the zeros of a are skipped in C.  Every row
        comes from the two operands, never from the partial result, so the
        products stay independent of the in-place _add_parts recurrence they
        are checked against in gf_vs_dp_bose_s2: the convolution oracle for
        the knapsack sweep.
        """
        if not isinstance(other, IntSeries):
            return NotImplemented
        d = min(self.degree, other.degree)
        a, b = self._coeffs[: d + 1], other._coeffs[: d + 1]
        # Iterate the sparser operand on the outside; the factors built here
        # (geometric tails, 1 +/- x^k) are mostly zeros and their nonzero
        # coefficients are +/-1, so most rows need no scaling.
        if a.count(0) < b.count(0):
            a, b = b, a
        nonzero = compress(range(d + 1), a)
        i = next(nonzero, None)
        if i is None:
            return _unchecked((0,) * (d + 1))
        out = [0] * i
        out += _row(a[i], b[: d + 1 - i])
        for i in nonzero:
            _add_row(out, _row(a[i], b), i)
        return _unchecked(out)

    def __repr__(self) -> str:
        shown = list(self._coeffs[:8])
        tail = "..." if self.degree > 7 else ""
        return f"IntSeries({shown}{tail}, degree={self.degree})"


def _unchecked(coeffs) -> IntSeries:
    """An IntSeries of coefficients already known to be ints: the
    constructor without its per-coefficient check, for results built here."""
    out = object.__new__(IntSeries)
    out._coeffs = tuple(coeffs)
    return out


def _row(ai: int, b):
    """The row a_i * b of a product: b itself when a_i == 1, else a lazy map
    that scales it in C, read only as far as the row add needs."""
    return b if ai == 1 else map(operator.mul, repeat(ai), b)


def _factor_start(k: int, degree: int) -> list[int]:
    """Check a factor's arguments; return the coefficients of 1 to degree."""
    integer("k", k, 1)
    return [1] + [0] * series_degree(degree)


def geometric_factor(k: int, degree: int) -> IntSeries:
    """1/(1 - x^k) truncated: 1 + x^k + x^2k + ..."""
    coeffs = _factor_start(k, degree)
    for j in range(k, degree + 1, k):
        coeffs[j] = 1
    return _unchecked(coeffs)


def one_plus_power(k: int, degree: int) -> IntSeries:
    """1 + x^k truncated."""
    coeffs = _factor_start(k, degree)
    if k <= degree:
        coeffs[k] = 1
    return _unchecked(coeffs)


def one_minus_power(k: int, degree: int) -> IntSeries:
    """1 - x^k truncated."""
    coeffs = _factor_start(k, degree)
    if k <= degree:
        coeffs[k] = -1
    return _unchecked(coeffs)


def _product(factor, s: int, degree: int, top: int | None = None) -> IntSeries:
    """Product of factor(v, degree) over the part values v <= top (degree
    unless given) of counting.SpectrumSpec(s): the one product loop."""
    spec = counting.SpectrumSpec(s)
    out = IntSeries([1], series_degree(degree))
    for v in spec.part_values(degree if top is None else top):
        out = out * factor(v, degree)
    return out


def bose_gf(s: int, degree: int) -> IntSeries:
    """Product of 1/(1 - x^(m**s)); coefficient of x^n counts multisets.

    Each factor is one geometric_factor.  Split into the two-term factors
    1 + x^(v 2^j), as distinct_restricted_gf splits it, the s = 1 product
    took 1.6 -> 1.9 ms at degree 100 and 6.2 -> 6.3 ms at 200, and
    50 -> 44 ms at 560 (Python 3.11, one core of a 2-core x86_64 host):
    slower below degree ~250 and faster above it, so neither form wins at
    every degree and no second path chosen by degree was added.
    """
    return _product(geometric_factor, s, degree)


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

    Each 1/(1 - x^i) is taken as the two-term factors 1 + x^(i 2^j) with
    i 2^j <= degree, since 1/(1 - y) = product over j of (1 + y^(2^j)).  A
    product by one of them is two row adds where geometric_factor(i) costs
    degree / i, and every step is still IntSeries.__mul__ of two operands,
    so the series stays a convolution.  That took (n_parts, degree) =
    (561, 560) from 21 to 9.6 ms, and (30, 400) from 10 to 5.2 ms (same
    host as above).  bose_gf keeps its geometric factors; its docstring
    says why.
    """
    integer("n_parts", n_parts, 1)
    prod = IntSeries([1], series_degree(degree))
    out = [1] + [0] * degree
    for i in range(1, n_parts + 1):
        tri = i * (i + 1) // 2
        if tri > degree:
            break
        k = i
        while k <= degree:
            prod = prod * one_plus_power(k, degree)
            k *= 2
        _add_row(out, prod.coeffs, tri)
    return _unchecked(out)


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
    """Index of the first coefficient where two sequences differ, or None.

    When one sequence is a strict prefix of the other, the first index past
    the shorter one differs: a truncated side never reads as equal.
    """
    n = next((n for n, (a, b) in enumerate(zip(lhs, rhs)) if a != b), None)
    if n is None and len(lhs) != len(rhs):
        return min(len(lhs), len(rhs))
    return n


def verify_identity(lhs: IntSeries, rhs: IntSeries) -> IdentityReport:
    """Compare two series sharing a truncation degree."""
    if lhs.degree != rhs.degree:
        raise DomainError(f"degrees differ: {lhs.degree} vs {rhs.degree}")
    n = first_mismatch(lhs.coeffs, rhs.coeffs)
    return IdentityReport(n is None, n, lhs.degree)


def identities(degree: int):
    """Yield (name, lhs, rhs): the exact identity suite up to x^degree.

    lhs and rhs are coefficient sequences of length degree + 1 that agree
    term by term when the identity holds.  Each pairs a fast route with an
    independent one.  Generating functions meet the build_table counts
    (pentagonal recurrences for s = 1, the knapsack for s = 2).  The
    staircase decomposition and Young-diagram conjugation, the routes
    build_table takes for a binding s = 1 part cap, meet the exactly-k
    recurrence counting._at_most_parts, which is kept only for this.
    Euler's distinct = odd parts is checked in table and product form.
    Each product is built once and read by every identity that needs it.
    The names and their order are the output contract of the `audit`
    command.  The degree is checked against its cap before the first
    table is built.
    """
    series_degree(degree)

    unbounded, products = {}, {}
    for s, distinct in ((1, False), (2, False), (1, True), (2, True)):
        spec = counting.SpectrumSpec(s, distinct)
        dp = unbounded[s, distinct] = counting.build_table(spec, degree).counts
        gf = products[s, distinct] = fermi_gf(s, degree) if distinct else bose_gf(s, degree)
        yield f"gf_vs_dp_{'fermi' if distinct else 'bose'}_s{s}", gf.coeffs, dp

    for n_parts in (4, 10, 30):
        yield (f"staircase_decomposition_N{n_parts}",
               counting.distinct_restricted_table(n_parts, degree),
               counting._at_most_parts(n_parts, True, degree))

    # The full distinct product equals the staircase sum once every
    # staircase offset i(i+1)/2 <= degree is included; the sum stops at the
    # last such offset by itself.
    yield ("staircase_series", products[1, True].coeffs,
           distinct_restricted_gf(degree + 1, degree).coeffs)

    for n_parts in (2, 7, 20, 50):
        yield (f"conjugation_N{n_parts}",
               counting.conjugate_restricted_table(n_parts, degree),
               counting._at_most_parts(n_parts, False, degree))

    yield "euler_odd_equals_distinct", counting.odd_parts_table(degree), unbounded[1, True]

    # prod (1 + x^v) = prod 1/(1 - x^v) * prod (1 - x^(2v)) over the part
    # values v; 1 - x^(2v) is 1 to x^degree once 2v > degree.
    for s in (1, 2):
        rhs = products[s, False] * _product(
            lambda v, d: one_minus_power(2 * v, d), s, degree, degree // 2)
        yield f"euler_factorization_s{s}", products[s, True].coeffs, rhs.coeffs
