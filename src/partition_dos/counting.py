"""Exact counting of integer partitions with power-law part values.

Parts are drawn from {1**s, 2**s, 3**s, ...}.  A :class:`SpectrumSpec` picks
the counting problem: plain multisets give p^s(n), distinct parts give
d^s(n), and an optional cap on the number of parts gives the restricted
variants p_N^s(n) / d_N^s(n) ("at most N parts").  All counts are exact
Python integers; nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError, EnumerationOverflowError, ResourceLimitError
from .limits import MAX_TABLE_ENV, max_table_size

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
        if not isinstance(self.s, int) or self.s < 1:
            raise DomainError(f"exponent s must be an integer >= 1, got {self.s!r}")
        if self.max_parts is not None:
            if not isinstance(self.max_parts, int) or self.max_parts < 1:
                raise DomainError(
                    f"max_parts must be a positive integer or None, got {self.max_parts!r}"
                )

    def part_values(self, limit: int) -> list[int]:
        """All allowed part values m**s <= limit, in increasing order."""
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

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, n: int) -> int:
        return self.counts[n]


def build_table(spec: SpectrumSpec, n_max: int) -> PartitionTable:
    """Count partitions for every n in 0..n_max with one dynamic-programming sweep.

    Unbounded specs use a knapsack sweep per part value (unbounded for
    multisets, 0/1 for distinct parts); a finite part cap adds a second DP
    dimension tracking the number of parts used.
    """
    if not isinstance(n_max, int) or n_max < 0:
        raise DomainError(f"n_max must be a nonnegative integer, got {n_max!r}")
    cap = max_table_size()
    if n_max > cap:
        raise ResourceLimitError(
            f"n_max={n_max} exceeds the table cap {cap} (override with {MAX_TABLE_ENV})"
        )
    values = spec.part_values(n_max)
    if spec.max_parts is None:
        counts = [0] * (n_max + 1)
        counts[0] = 1
        for v in values:
            _add_part(counts, v, spec.distinct)
    else:
        by_parts = _counts_by_part_number(values, spec.distinct, spec.max_parts, n_max)
        counts = [sum(layer[j] for layer in by_parts) for j in range(n_max + 1)]
    return PartitionTable(spec, tuple(counts))


def _add_part(row: list[int], v: int, distinct: bool = False) -> None:
    """Admit the part value v into the counts in `row`, in place.

    row[j] += row[j - v] for every j >= v.  Sweeping j upward reads entries
    that already include v, so v may repeat; sweeping downward reads only
    entries from before v, so v is used at most once.
    """
    js = range(len(row) - 1, v - 1, -1) if distinct else range(v, len(row))
    for j in js:
        row[j] += row[j - v]


def _counts_by_part_number(
    values: list[int], distinct: bool, n_parts: int, n_max: int
) -> list[list[int]]:
    """dp[k][j] = partitions of j into exactly k parts from `values`.

    Each value v moves counts from k - 1 parts to k parts.  Taking k downward
    reads a dp[k - 1] that v has not touched yet, so v is used at most once;
    taking k upward reads a dp[k - 1] that already holds v, so v may repeat.
    The j order does not matter because dp[k] and dp[k - 1] are different rows.
    """
    dp = [[0] * (n_max + 1) for _ in range(n_parts + 1)]
    dp[0][0] = 1
    ks = range(n_parts, 0, -1) if distinct else range(1, n_parts + 1)
    for v in values:
        for k in ks:
            cur, prev = dp[k], dp[k - 1]
            for j in range(v, n_max + 1):
                below = prev[j - v]
                if below:
                    cur[j] += below
    return dp


def count(spec: SpectrumSpec, n: int) -> int:
    """Exact number of partitions of n described by `spec`.  Pure."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n!r}")
    return build_table(spec, n).counts[n]


def iter_partitions(spec: SpectrumSpec, n: int) -> Iterator[tuple[int, ...]]:
    """Yield every qualifying partition of n as a descending tuple of parts.

    Brute force by construction; intended as an independent oracle for small n.
    """
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n!r}")
    values_desc = spec.part_values(n)[::-1]
    step = 1 if spec.distinct else 0
    prefix: list[int] = []

    def rec(remaining: int, start: int, left: int | None) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(prefix)
            return
        if left == 0:
            return
        for i in range(start, len(values_desc)):
            v = values_desc[i]
            if v > remaining:
                continue
            if left is not None and v * left < remaining:
                break  # even `left` copies of the largest remaining value fall short
            prefix.append(v)
            yield from rec(remaining - v, i + step, None if left is None else left - 1)
            prefix.pop()

    yield from rec(n, 0, spec.max_parts)


def enumerate_partitions(spec: SpectrumSpec, n: int, cap: int) -> list[list[int]]:
    """Exhaustive, duplicate-free list of partitions of n (descending parts).

    Raises EnumerationOverflowError as soon as more than `cap` partitions
    exist, so callers cannot accidentally materialize a huge list.
    """
    if not isinstance(cap, int) or cap < 1:
        raise DomainError(f"cap must be a positive integer, got {cap!r}")
    out: list[list[int]] = []
    for parts in iter_partitions(spec, n):
        if len(out) >= cap:
            raise EnumerationOverflowError(
                f"more than {cap} partitions of n={n} for {spec}"
            )
        out.append(list(parts))
    return out


def conjugate_restricted_table(n_parts: int, n_max: int) -> list[int]:
    """Counts of partitions of n with at most `n_parts` parts, for n = 0..n_max.

    Computed in the conjugate representation: transposing a Young diagram
    swaps "at most N parts" with "every part <= N", so a single unbounded
    knapsack over the part values 1..N suffices.  s = 1, repeats allowed.

    Kept as the oracle for the part-number DP of
    build_table(SpectrumSpec(1, False, n_parts), ...), which the audit
    identities conjugation_N* check it against; it is also the exact count
    behind figure 5.
    """
    if not isinstance(n_parts, int) or n_parts < 1:
        raise DomainError(f"n_parts must be a positive integer, got {n_parts!r}")
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max!r}")
    row = [0] * (n_max + 1)
    row[0] = 1
    for v in range(1, min(n_parts, n_max) + 1):
        _add_part(row, v)
    return row


def odd_parts_table(n_max: int) -> list[int]:
    """Counts of partitions of n into odd parts, for n = 0..n_max.

    By Euler's theorem these equal the distinct-part counts, so this is the
    oracle for build_table(SpectrumSpec(1, True), ...) in the audit identity
    euler_odd_equals_distinct.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max!r}")
    row = [0] * (n_max + 1)
    row[0] = 1
    for v in range(1, n_max + 1, 2):
        _add_part(row, v)
    return row


def distinct_restricted_table(n_parts: int, n_max: int) -> list[int]:
    """d_N(n) for n = 0..n_max through the staircase decomposition.

    A partition into exactly i distinct parts minus the staircase
    (i, i-1, ..., 1) is a partition into at most i parts, so

        d_N(n) = sum over i = 0..N of p_i(n - i(i+1)/2),

    where p_i is the at-most-i-parts count and the i = 0 term is the empty
    partition at n = 0.  This touches only plain restricted counts, which
    makes it the oracle for the part-number DP of
    build_table(SpectrumSpec(1, True, n_parts), ...) in the audit identities
    staircase_decomposition_N*; it is also the exact count behind figure 6.
    """
    if not isinstance(n_parts, int) or n_parts < 1:
        raise DomainError(f"n_parts must be a positive integer, got {n_parts!r}")
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max!r}")
    base = [0] * (n_max + 1)  # at most i parts; starts at i = 0
    base[0] = 1
    out = [0] * (n_max + 1)
    out[0] = 1
    for i in range(1, n_parts + 1):
        tri = i * (i + 1) // 2
        if tri > n_max:
            break
        _add_part(base, i)  # extend base from "<= i-1 parts" to "<= i parts"
        for n in range(tri, n_max + 1):
            out[n] += base[n - tri]
    return out

