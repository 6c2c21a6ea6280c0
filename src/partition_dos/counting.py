"""Exact counting of integer partitions with power-law part values.

Parts are drawn from {1**s, 2**s, 3**s, ...}.  A :class:`SpectrumSpec` picks
the counting problem: plain multisets give p^s(n), distinct parts give
d^s(n), and an optional cap on the number of parts gives the restricted
variants p_N^s(n) / d_N^s(n) ("at most N parts").  All counts are exact
Python integers; nothing here ever rounds.

:func:`build_table` is the one place that picks how a count is computed:
s = 1 by the pentagonal recurrence, or by the conjugate sweep or the
staircase when a part cap binds, and every s >= 2 spec by a knapsack sweep,
which also serves as the tests' oracle for the s = 1 routes.  The exactly-k
recurrence :func:`_at_most_parts` is kept only as the audit's reference for
the two capped s = 1 tables, and :func:`odd_parts_table` as its reference
for d(n).  Only SpectrumSpec.part_values lists the part values.  Every
knapsack and recurrence table is built from two row steps: the sweep
_add_parts, row[j] += row[j - v], and the shifted add _add_row,
dst[j] += src[j - shift].  Beside them, the only table arithmetic is the
pentagonal recurrence and the packed product _packed_distinct, whose lane
width _lane_bits proves with a saddle beta taken from Gamma(1 + 1/s) alone,
so this module needs nothing from the float asymptotics.  The row steps
run no Python bytecode per table element: they are slices of
itertools.accumulate and map(add), in C.  The pentagonal recurrence takes
one Python step per n, whose sums gather their terms in C with
operator.itemgetter.  The packed product holds count j in lane n_max - j,
so it takes one right shift and one add per part value, with no mask, and
one Python step per lane to join a lane wider than 64 bits.  The series
products in series are packed the same way, but by their own kernel and
width proof, since they are the check on these tables.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add, itemgetter
from typing import Iterable

from .errors import ResourceLimitError
from .limits import integer, table_size

@dataclass(frozen=True)
class SpectrumSpec:
    """Which family of partitions is being counted.

    s: exponent of the part values (parts are m**s for m = 1, 2, 3, ...).
    distinct: if True, each part value may be used at most once.
    max_parts: cap on the number of parts, or None for unbounded.
    """

    s: int = 1
    distinct: bool = False
    max_parts: int | None = None

    def __post_init__(self) -> None:
        integer("s", self.s, 1)
        if self.max_parts is not None:
            integer("max_parts", self.max_parts, 1)

    def part_values(self, limit: int) -> list[int]:
        """All allowed part values m**s <= limit, in increasing order."""
        if self.s >= limit.bit_length():  # 2**s > limit: only 1**s can fit
            return [1] if limit >= 1 else []
        values = []
        m = 1
        while m**self.s <= limit:
            values.append(m**self.s)
            m += 1
        return values


@dataclass(frozen=True)
class PartitionTable:
    """Exact counts for one spec, indexed by n = 0 .. n_max.

    counts[0] == 1 by the empty-partition convention, which is what makes
    the table agree with the constant term of the generating functions.
    """

    spec: SpectrumSpec
    counts: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, n: int) -> int:
        return self.counts[n]


def build_table(spec: SpectrumSpec, n_max: int) -> PartitionTable:
    """Count partitions for every n in 0..n_max.

    s = 1 specs use the classical routes (Andrews, *The Theory of
    Partitions*, ch. 1-2 and 14).  Euler's pentagonal recurrence gives p(n),
    and its variant d(n), whenever no part cap binds: none is set, or it
    reaches :func:`_most_parts`.  A binding cap on multisets takes the
    conjugate sweep :func:`conjugate_restricted_table`, and one on distinct
    parts the staircase :func:`distinct_restricted_table`.  Every s >= 2
    spec goes through :func:`_knapsack`.
    """
    table_size("n_max", n_max)
    cap = spec.max_parts
    if spec.s != 1:
        counts = _knapsack(spec, n_max)
    elif cap is None or cap >= _most_parts(range(1, n_max + 1), spec.distinct, n_max):
        counts = _pentagonal(n_max, spec.distinct)
    elif spec.distinct:
        counts = distinct_restricted_table(cap, n_max)
    else:
        counts = conjugate_restricted_table(cap, n_max)
    return PartitionTable(spec, tuple(counts))


def _add_parts(row: list[int], values) -> list[int]:
    """Admit each part value v in `values` into `row`, in turn and in place;
    return `row`.  row[j] += row[j - v] for every j >= v, sweeping j upward,
    so the entries read already include v and v may repeat: the one sweep.

    The sweep runs in C, in one of two equal forms.  Along each residue class
    r, r + v, r + 2v, ... of j mod v it is a running sum, one accumulate per
    class; that takes v slices of len(row) / v, so it is used while
    v * v < len(row).  Past that, it is one map(add) per block of v entries,
    each block adding the block before it, which the previous step has
    already finished: len(row) / v slices, each at most v long.
    """
    size = len(row)
    for v in values:
        if v * v < size:
            for r in range(v):
                row[r::v] = accumulate(row[r::v])
        else:
            for j in range(v, size, v):
                row[j : j + v] = map(add, row[j : j + v], row[j - v : j])
    return row


def _add_row(dst: list[int], src: Iterable[int], shift: int = 0) -> list[int]:
    """dst[j] += src[j - shift] for every j >= shift, in place and in C, as
    one slice assignment; return `dst`.  src yields at least len(dst) - shift
    values and is read no further."""
    dst[shift:] = map(add, dst[shift:], src)
    return dst


def _lane_bits(s: int, values: list[int], n_max: int) -> int:
    """Bits that hold every coefficient of x**0 .. x**n_max of every partial
    product of the (1 + x**v) over `values`.

    A proof, not a guess: each factor has non-negative coefficients and
    constant term 1, so for any beta > 0 each such coefficient c_j obeys
    c_j e**(-beta j) <= prod (1 + e**(-beta v)), and hence
    c_j <= e**(beta n_max) * prod over v of (1 + e**(-beta v)).  beta is
    (Gamma(1 + 1/s) / (s n_max))**(s / (1 + s)): the closed-form fermi
    saddle of energy n_max, near which the bound is least, with the factor
    eta(1 + 1/s) of D(s) replaced by its upper bound 1.  That costs a bit
    or two of width and keeps the float asymptotics out of this module.
    The log of the bound is summed once with math.fsum, and 2 bits cover
    its rounding.
    s is clamped before any float is formed, since 1.0 / s overflows for a
    huge int; the clamp only moves beta, and any beta bounds the counts.
    """
    s = min(s, 64)
    beta = (math.gamma(1.0 + 1.0 / s) / (s * max(n_max, 1))) ** (s / (1 + s))
    log_bound = math.fsum(
        [beta * n_max] + [math.log1p(math.exp(-beta * v)) for v in values]
    )
    return math.ceil(log_bound / math.log(2)) + 2


def _packed_distinct(s: int, values: list[int], n_max: int) -> list[int]:
    """Counts of n = 0..n_max as sums of distinct members of `values`, the
    part values m**s, through one packed integer (Kronecker substitution).

    Count j lives in lane n_max - j, bits [(n_max - j)*width,
    (n_max - j + 1)*width) of `packed`, with width the bound of
    :func:`_lane_bits` rounded up to whole 64-bit words, so no lane ever
    carries into the next.  Multiplying by (1 + x**v) is then one right
    shift by v lanes and one add, both in C: the lanes past x**n_max fall
    off the bottom, so the integer never grows and needs no mask.  The
    lanes are unpacked once at the end through a machine-word array, in
    reverse order.
    """
    width = -(-_lane_bits(s, values, n_max) // 64) * 64
    packed = 1 << n_max * width
    for v in values:
        packed += packed >> v * width
    words = array("Q", packed.to_bytes(width // 8 * (n_max + 1), "little"))
    if sys.byteorder == "big":
        words.byteswap()
    step = width // 64  # words per lane, least significant first
    lanes = words[step - 1 :: step].tolist()
    for i in range(step - 2, -1, -1):
        lanes = [hi << 64 | lo for hi, lo in zip(lanes, words[i::step])]
    lanes.reverse()
    return lanes


def _most_parts(values, distinct: bool, n_max: int) -> int:
    """The most parts any n <= n_max can have, given the increasing part
    values: n_max ones, or for distinct parts the largest k with
    v_1 + ... + v_k <= n_max (20 squares, or 76 integers, at n_max = 3000).
    A part cap from there on binds nothing."""
    return bisect_right([*accumulate(values)], n_max) if distinct else n_max


def _knapsack(spec: SpectrumSpec, n_max: int) -> list[int]:
    """Counts for n = 0..n_max by a knapsack sweep over the part values.

    The route for every s >= 2 spec, and the oracle the tests hold the s = 1
    routes of :func:`build_table` to.  A cap binds nothing, and the
    spec counts as unbounded, once it reaches :func:`_most_parts`.  Unbounded
    distinct parts are one :func:`_packed_distinct` product; unbounded
    multisets are one :func:`_add_parts` sweep, because the packed form of
    1/(1 - x**v) needs log2(n_max/v) doubling steps per value and was slower
    at every size measured: p**2(3000) took 26 ms packed against 13 ms
    swept, p**2(15150) 649 against 154 ms, and p**3(20000) 299 against 49 ms.

    A part cap adds a second dimension,
    dp[k][j] = partitions of j into exactly k parts, and each value v moves
    counts from k - 1 parts to k parts, one :func:`_add_row` of dp[k - 1]
    shifted by v into dp[k].  Taking k downward reads a dp[k - 1] that v has
    not touched yet, so v is used at most once; taking k upward reads a
    dp[k - 1] that already holds v, so v may repeat.  _add_row sums the rows.
    """
    values = spec.part_values(n_max)
    if spec.max_parts is None or spec.max_parts >= _most_parts(values, spec.distinct, n_max):
        if spec.distinct:
            return _packed_distinct(spec.s, values, n_max)
        return _add_parts([1] + [0] * n_max, values)
    n_parts = spec.max_parts
    dp = [[1] + [0] * n_max] + [[0] * (n_max + 1) for _ in range(n_parts)]
    ks = range(n_parts, 0, -1) if spec.distinct else range(1, n_parts + 1)
    for v in values:
        for k in ks:
            _add_row(dp[k], dp[k - 1], v)
    return reduce(_add_row, dp)


def _pentagonal_offsets(limit: int) -> tuple[list[int], list[int]]:
    """Generalized pentagonal numbers k(3k-1)/2 <= limit, k = 1, -1, 2, -2, ...

    Returned in increasing order and split by the sign (-1)^(k+1) they carry
    in Euler's pentagonal number theorem: (odd k, even k).
    """
    odd: list[int] = []
    even: list[int] = []
    k = 1
    while k * (3 * k - 1) // 2 <= limit:
        bucket = odd if k % 2 else even
        pair = (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
        bucket.extend(g for g in pair if g <= limit)
        k += 1
    return odd, even


def _lags(offsets: list[int]):
    """A getter of row[-g] for each g in `offsets`.  itemgetter takes them
    in C, but with fewer than two indices it returns no tuple, so the first
    few n, before a sign has two offsets, take a list."""
    if len(offsets) > 1:
        return itemgetter(*[-g for g in offsets])
    return lambda row: [row[-g] for g in offsets]


def _pentagonal(n_max: int, distinct: bool = False) -> list[int]:
    """p(n), or d(n) if distinct, for n = 0..n_max by Euler's pentagonal
    recurrence, O(n^1.5) adds.

    prod (1 - x^m) = sum over k in Z of (-1)^k x^(k(3k-1)/2), so
    p(n) = sum over k != 0 of (-1)^(k+1) p(n - k(3k-1)/2).  Since
    prod (1 + x^m) * prod (1 - x^m) = prod (1 - x^(2m)), d(n) obeys the same
    recurrence plus a source term: (-1)^j when n = j(3j-1) for some j in Z.

    The sums run in C.  While `row` ends at p(n - 1), p(n - g) is row[-g],
    so the terms of each sign are one itemgetter of fixed negative indices.
    The offsets g <= n change only where n reaches a pentagonal number, and
    only there are the two getters rebuilt.
    """
    odd, even = _pentagonal_offsets(n_max)
    source: dict[int, int] = {}
    if distinct:
        half_odd, half_even = _pentagonal_offsets(n_max // 2)
        source = {2 * g: -1 for g in half_odd} | {2 * g: 1 for g in half_even}
    row = [1]
    edges = sorted(odd + even) + [n_max + 1]
    for lo, hi in zip(edges, edges[1:]):
        plus = _lags(odd[: bisect_right(odd, lo)])
        minus = _lags(even[: bisect_right(even, lo)])
        for n in range(lo, hi):
            row.append(sum(plus(row)) - sum(minus(row)) + source.get(n, 0))
    return row


def _at_most_parts(n_parts: int, distinct: bool, n_max: int) -> list[int]:
    """Partitions of n = 0..n_max into at most n_parts parts, s = 1.

    Kept only as the reference the audit identities conjugation_N* and
    staircase_decomposition_N* hold :func:`conjugate_restricted_table` and
    :func:`distinct_restricted_table` to; :func:`build_table` never calls it.
    Summed over the exactly-k rows, k = 0..n_parts, in O(n_parts * n_max) adds.
    Split by whether the smallest part is 1.  For multisets, dropping that
    part or taking one from each part gives
    P(j, k) = P(j - 1, k - 1) + P(j - k, k); for distinct parts, taking one
    from each part (the 1 vanishes) gives Q(j, k) = Q(j - k, k - 1) + Q(j - k, k).
    The two differ only in how far back, 1 or k, the k - 1 row is shifted
    before one :func:`_add_parts` sweep by k adds the second term.  Rows
    past :func:`_most_parts` are all zero and are not built.
    """
    prev = [1] + [0] * n_max  # exactly 0 parts
    total = prev[:]
    most = _most_parts(range(1, n_max + 1), distinct, n_max)
    for k in range(1, min(n_parts, most) + 1):
        back = k if distinct else 1
        prev = _add_parts([0] * back + prev[: n_max + 1 - back], (k,))
        _add_row(total, prev)
    return total


def count(spec: SpectrumSpec, n: int) -> int:
    """Exact number of partitions of n described by `spec`.  Pure."""
    integer("n", n, 0)
    return build_table(spec, n).counts[n]


def enumerate_partitions(spec: SpectrumSpec, n: int, cap: int) -> list[list[int]]:
    """Every qualifying partition of n, once each, as a descending list of
    parts: brute force by construction, the independent oracle for small n.

    Raises ResourceLimitError as soon as more than `cap` partitions
    exist, so callers cannot accidentally materialize a huge list.
    """
    integer("cap", cap, 1)
    integer("n", n, 0)
    values_desc = spec.part_values(n)[::-1]
    step = 1 if spec.distinct else 0
    out: list[list[int]] = []
    prefix: list[int] = []

    def rec(remaining: int, start: int, left: int | None) -> None:
        if remaining == 0:
            if len(out) == cap:
                raise ResourceLimitError(f"more than {cap} partitions of n={n} for {spec}")
            out.append(prefix[:])
            return
        for i in range(start, len(values_desc)):
            v = values_desc[i]
            if v > remaining:
                continue
            if left is not None and v * left < remaining:
                break  # even `left` copies of the largest remaining value fall short
            prefix.append(v)
            rec(remaining - v, i + step, None if left is None else left - 1)
            prefix.pop()

    rec(n, 0, spec.max_parts)
    return out


def conjugate_restricted_table(n_parts: int, n_max: int) -> list[int]:
    """Counts of partitions of n with at most `n_parts` parts, for n = 0..n_max.

    Computed in the conjugate representation: transposing a Young diagram
    swaps "at most N parts" with "every part <= N", so a single unbounded
    knapsack over the part values 1..N suffices.  s = 1, repeats allowed.

    The route build_table(SpectrumSpec(1, False, n_parts), ...) takes when
    the cap binds, and so the exact count behind figure 5; the audit
    identities conjugation_N* hold it to the exactly-k recurrence
    :func:`_at_most_parts`.  The tests hold it in turn to the finite product
    of series.geometric_factor(v, n_max) over v = 1..N.
    """
    integer("n_parts", n_parts, 1)
    table_size("n_max", n_max)
    return _add_parts([1] + [0] * n_max, range(1, min(n_parts, n_max) + 1))


def odd_parts_table(n_max: int) -> list[int]:
    """Counts of partitions of n into odd parts, for n = 0..n_max.

    By Euler's theorem these equal the distinct-part counts, so this is the
    oracle for the pentagonal route to d(n) in build_table(SpectrumSpec(1,
    True), ...), in the audit identity euler_odd_equals_distinct.
    """
    table_size("n_max", n_max)
    return _add_parts([1] + [0] * n_max, range(1, n_max + 1, 2))


def distinct_restricted_table(n_parts: int, n_max: int) -> list[int]:
    """d_N(n) for n = 0..n_max through the staircase decomposition.

    A partition into exactly i distinct parts minus the staircase
    (i, i-1, ..., 1) is a partition into at most i parts, so d_N(n) is the
    coefficient of x**n in

        sum over i = 0..N of x**(i(i+1)/2) / ((1 - x)(1 - x**2)...(1 - x**i)),

    where the i = 0 term is 1, the empty partition at n = 0.
    The sum is taken in nested form, as R_1 with

        R_i = 1 + x**i / (1 - x**i) * R_(i+1),

    from i = min(N, the last i with i(i+1)/2 <= n_max) down to 1, and R
    equal to 1 above that i.  R_i stands behind x**(1 + 2 + ... + (i-1)), so
    it is kept only to degree n_max - i(i-1)/2.  Each i then costs one
    :func:`_add_parts` sweep by i over a row that shrinks as i grows, where
    the sum taken term by term costs a sweep and a shifted :func:`_add_row`,
    both over the full row, for each i: about half the adds.  The route
    build_table(SpectrumSpec(1, True, n_parts), ...) takes when the cap
    binds, and so the exact count behind figure 6; the audit identities
    staircase_decomposition_N* hold it to the distinct exactly-k recurrence
    :func:`_at_most_parts`.
    """
    integer("n_parts", n_parts, 1)
    table_size("n_max", n_max)
    top = min(n_parts, (math.isqrt(8 * n_max + 1) - 1) // 2)
    row = [1] + [0] * (n_max - top * (top + 1) // 2)  # R_(top+1)
    for i in range(top, 0, -1):
        row = [1] + [0] * (i - 1) + _add_parts(row, (i,))
    return row
