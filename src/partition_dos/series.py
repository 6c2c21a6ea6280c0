"""Truncated formal power series over exact integers.

The counting generating functions are finite products of sparse factors,

    product over m of 1/(1 - x^(m**s))     -> multiset counts p^s(n)
    product over m of (1 + x^(m**s))       -> distinct counts d^s(n)

truncated at a degree: a factor is included only while its part value fits
under the truncation, and every omitted factor contributes 1 there.
IntSeries coefficients are signed, as the dense factor 1 - x^k needs,
even though all the counts built here are nonnegative.

Every product here is a chain of two-term factors 1 + x^k.  fermi_gf
takes one factor 1 + x^v per part value v; bose_gf and the staircase
products of distinct_restricted_gf take each 1/(1 - x^v) as the factors
1 + x^(v 2^j) with v 2^j <= degree, since 1/(1 - y) is the product over j
of 1 + y^(2^j).  The running product is one Python int (Kronecker
substitution) whose lanes run high to low: coefficient j lives in lane
degree - j, _lane_width bits wide, and the product starts as
1 << degree * width.  Multiplying by 1 + x^k is then packed +=
packed >> k * width, one shift and one add in C: the lanes pushed past
x^degree fall off the bottom, so there is no mask and the int never grows.
A staircase term adds the running product, shifted, into a packed sum the
same way.  _shift_adds is the one kernel, _chain runs it over the part
values m**s that counting.SpectrumSpec lists, _unpack reads the lanes once
at the end, and identities() builds each product once.  The right side of
euler_factorization_s* applies the factors 1 - x^(2v) to a finished bose
chain as packed -= packed >> 2v * width; every partial product there is
still a nonnegative count, so the lanes stay unsigned (see _euler_rhs).

This kernel, its width and its unpacking are this module's own: they call
nothing of counting's packed product _packed_distinct, its width
_lane_bits or the row steps _add_parts and _add_row, so gf_vs_dp_fermi_s2
still pairs two codes with two width proofs, and each product step reads
only its operand, never a table.

IntSeries.__mul__ is the general convolution, kept as a public operation
and as the oracle the packed products are tested against, with the dense
factors geometric_factor, one_plus_power and one_minus_power.  It adds
each row with counting._add_row.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
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

        The general convolution: nothing in the package calls it, and the
        tests use it, with the dense factors, as the oracle for the packed
        chains of _chain and _euler_rhs.
        Each nonzero a_i of the sparser operand adds the other operand,
        times a_i and shifted by i, into the result with one
        counting._add_row.  The first such row seeds the result instead of
        being added into zeros, itertools.compress finds the nonzero a_i
        and map scales a row, so the zeros of a are skipped in C.  Every row
        comes from the two operands, never from the partial result.
        """
        if not isinstance(other, IntSeries):
            return NotImplemented
        d = min(self.degree, other.degree)
        a, b = self._coeffs[: d + 1], other._coeffs[: d + 1]
        # Iterate the sparser operand on the outside.  The dense factors
        # (geometric tails, 1 +/- x^k) are mostly zeros and their nonzero
        # coefficients +/-1, so most rows need no scaling.
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


def _doublings(v: int, degree: int):
    """v, 2v, 4v, ... up to degree: 1/(1 - x^v) is the product over j of
    the two-term factors 1 + x^(v 2^j), and those past the degree are 1."""
    while v <= degree:
        yield v
        v *= 2


def _lane_width(degree: int) -> int:
    """Bits per lane that hold every coefficient of every packed product
    and partial sum here to x^degree: a multiple of 64.

    A proof, not a guess.  For any beta > 0 and n <= degree,
    p(n) <= e^(beta n) prod over v of 1/(1 - e^(-beta v)), and the log of
    that product is sum over k of 1/(k (e^(beta k) - 1)) < pi^2/(6 beta).
    At beta = pi/sqrt(6 degree) this gives p(n) < exp(pi sqrt(2 degree/3)),
    which is 2^sqrt(K degree) with K = 2 pi^2/(3 ln(2)^2) = 13.695...  Since
    (isqrt(m) + 1)^2 > m >= 13.7 degree - 1 for m = floor(13.7 degree),
    isqrt(m) + 1 bits hold p(n), with no float in the bound.
    Every coefficient of every partial product is a nonnegative count of
    at most that p(n): a product of factors 1 + x^k over part values m^s
    counts some of the partitions of n, so it is at most p^s(n) <= p(n);
    the staircase partial sums count distinct partitions, at most
    d(n) <= p(n); and the partial products of _euler_rhs count partitions
    whose parts are distinct below some part value, at most p(n) too.
    """
    bits = math.isqrt(137 * degree // 10) + 1
    return -(-bits // 64) * 64


def _shift_adds(packed: int, width: int, exponents) -> int:
    """packed times 1 + x^k for each k in exponents, every k >= 1.

    packed holds coefficient j in lane degree - j, width bits per lane, so
    x^k times it is packed >> k * width: lanes move down, and those past
    x^degree fall off the bottom, with no mask.  Each step reads only its
    operand, the product before that factor.
    """
    for k in exponents:
        packed += packed >> k * width
    return packed


def _unpack(packed: int, degree: int, width: int) -> IntSeries:
    """The IntSeries of a packed product to x^degree: its lanes, read once
    through machine words, in reverse order."""
    lane_bytes = width // 8
    words = array("Q", packed.to_bytes(lane_bytes * (degree + 1), "little"))
    if sys.byteorder == "big":
        words.byteswap()
    step = width // 64  # words per lane, least significant first
    lanes = words[step - 1 :: step].tolist()
    for i in range(step - 2, -1, -1):
        lanes = [hi << 64 | lo for hi, lo in zip(lanes, words[i::step])]
    lanes.reverse()
    return _unchecked(lanes)


def _chain(s: int, degree: int, exponents) -> tuple[int, int]:
    """Product of the factors 1 + x^k over k in exponents(v, degree), for
    each part value v <= degree of counting.SpectrumSpec(s): the one
    product loop, packed with lanes high to low.  Returns the packed
    product and its lane width.  s is checked first, then degree, then the
    part values are listed."""
    spec = counting.SpectrumSpec(s)
    width = _lane_width(series_degree(degree))
    packed = 1 << degree * width
    for v in spec.part_values(degree):
        packed = _shift_adds(packed, width, exponents(v, degree))
    return packed, width


def bose_gf(s: int, degree: int) -> IntSeries:
    """Product of 1/(1 - x^(m**s)); coefficient of x^n counts multisets.

    Each 1/(1 - x^v) is taken as the two-term factors 1 + x^(v 2^j) with
    v 2^j <= degree, since 1/(1 - y) is the product over j of 1 + y^(2^j).
    A step is one shift and one add, so the product costs about degree^2
    lane adds, where multiplying by the geometric rows
    1 + x^v + x^2v + ... cost about degree^2 ln(degree) / 2.
    """
    packed, width = _chain(s, degree, _doublings)
    return _unpack(packed, degree, width)


def fermi_gf(s: int, degree: int) -> IntSeries:
    """Product of (1 + x^(m**s)); coefficient of x^n counts distinct partitions."""
    packed, width = _chain(s, degree, lambda v, d: (v,))
    return _unpack(packed, degree, width)


def _euler_rhs(s: int, degree: int) -> IntSeries:
    """prod 1/(1 - x^v) times prod (1 - x^(2v)) over the part values
    v = m**s, the right side of euler_factorization_s*.

    The bose chain is built afresh, so that bose_gf's result stays an
    unpacked series read by gf_vs_dp_bose_s*, then each factor 1 - x^(2v)
    with 2v <= degree is packed -= packed >> 2v * width; the factors past
    the degree are 1 to x^degree.  After the factors of any set of values,
    the product is prod over that set of (1 + x^v) times prod over the
    rest of 1/(1 - x^v), so every lane stays a nonnegative count of at most
    p(n) and no subtraction borrows across a lane.
    """
    packed, width = _chain(s, degree, _doublings)
    for v in counting.SpectrumSpec(s).part_values(degree // 2):
        packed -= packed >> 2 * v * width
    return _unpack(packed, degree, width)


def distinct_restricted_gf(n_parts: int, degree: int) -> IntSeries:
    """Generating function for at-most-n_parts distinct partitions (s = 1).

    Sum over i of x^(i(i+1)/2) * product_{v<=i} 1/(1 - x^v), staircase form;
    the i = 0 term contributes the constant 1 so that the coefficient of x^0
    matches the empty-partition convention.  This is the series form of
    counting.distinct_restricted_table; with every staircase offset included
    it is the oracle for the full product fermi_gf(1, degree) in the audit
    identity staircase_series.

    The running product takes each 1/(1 - x^i) as the two-term factors
    1 + x^(i 2^j) with i 2^j <= degree, as bose_gf does, and each staircase
    term is one shift of it added into the packed sum.  n_parts is checked
    before degree.
    """
    integer("n_parts", n_parts, 1)
    width = _lane_width(series_degree(degree))
    prod = out = 1 << degree * width
    for i in range(1, n_parts + 1):
        tri = i * (i + 1) // 2
        if tri > degree:
            break
        prod = _shift_adds(prod, width, _doublings(i, degree))
        out += prod >> tri * width
    return _unpack(out, degree, width)


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
    # values v.
    for s in (1, 2):
        yield f"euler_factorization_s{s}", products[s, True].coeffs, _euler_rhs(s, degree).coeffs
