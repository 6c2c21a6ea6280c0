import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partition_dos as pd
from partition_dos.errors import (
    DomainError,
    EnumerationOverflowError,
    ResourceLimitError,
)


@pytest.mark.parametrize(
    "s,distinct,parts,n,expected",
    [
        (1, False, None, 5, 7),
        (1, True, None, 5, 3),
        (1, False, 4, 5, 6),
        (1, True, 4, 5, 3),
        (2, False, None, 5, 2),
        (2, True, None, 5, 1),
        (1, False, None, 10, 42),
        (1, False, None, 100, 190569292),
    ],
)
def test_worked_examples(s, distinct, parts, n, expected):
    assert pd.count(pd.SpectrumSpec(s, distinct, parts), n) == expected


@pytest.mark.parametrize(
    "spec",
    [
        pd.SpectrumSpec(1),
        pd.SpectrumSpec(2, True),
        pd.SpectrumSpec(3, False, 2),
        pd.SpectrumSpec(1, True, 1),
    ],
)
def test_count_of_zero_is_one(spec):
    assert pd.count(spec, 0) == 1


def test_build_table_examples():
    assert pd.build_table(pd.SpectrumSpec(1), 5).counts == (1, 1, 2, 3, 5, 7)
    assert pd.build_table(pd.SpectrumSpec(2), 4).counts == (1, 1, 1, 1, 2)
    assert pd.build_table(pd.SpectrumSpec(1), 0).counts == (1,)
    assert pd.build_table(pd.SpectrumSpec(2, True, 3), 0).counts == (1,)


def test_table_matches_count_pointwise():
    spec = pd.SpectrumSpec(2, True, 5)
    table = pd.build_table(spec, 60)
    for n in (0, 1, 13, 37, 60):
        assert table[n] == pd.count(spec, n)


def test_enumerate_examples():
    assert pd.enumerate_partitions(pd.SpectrumSpec(1, True), 5, 100) == [
        [5],
        [4, 1],
        [3, 2],
    ]
    assert pd.enumerate_partitions(pd.SpectrumSpec(1, False, 4), 5, 100) == [
        [5],
        [4, 1],
        [3, 2],
        [3, 1, 1],
        [2, 2, 1],
        [2, 1, 1, 1],
    ]
    assert pd.enumerate_partitions(pd.SpectrumSpec(1), 0, 10) == [[]]


def test_enumerate_is_duplicate_free_and_sums_match():
    spec = pd.SpectrumSpec(2, False, 6)
    parts = pd.enumerate_partitions(spec, 30, 10**5)
    assert len({tuple(p) for p in parts}) == len(parts)
    assert all(sum(p) == 30 for p in parts)
    assert all(list(p) == sorted(p, reverse=True) for p in parts)


def test_enumerate_cap_overflow():
    with pytest.raises(EnumerationOverflowError):
        pd.enumerate_partitions(pd.SpectrumSpec(1), 30, 10)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: pd.SpectrumSpec(0),
        lambda: pd.SpectrumSpec(-2),
        lambda: pd.SpectrumSpec(1, False, 0),
        lambda: pd.SpectrumSpec(1, False, -3),
        lambda: pd.count(pd.SpectrumSpec(1), -1),
        lambda: pd.build_table(pd.SpectrumSpec(1), -1),
        lambda: pd.enumerate_partitions(pd.SpectrumSpec(1), 5, 0),
        lambda: pd.distinct_restricted_table(0, 5)[5],
        lambda: pd.distinct_restricted_table(3, -1)[-1],
        lambda: pd.conjugate_restricted_table(0, 10),
        lambda: pd.odd_parts_table(-1),
    ],
)
def test_domain_errors(bad):
    with pytest.raises(DomainError):
        bad()


def test_table_cap(monkeypatch):
    monkeypatch.setenv("PARTITION_DOS_MAX_N", "50")
    with pytest.raises(ResourceLimitError):
        pd.build_table(pd.SpectrumSpec(1), 51)
    assert pd.build_table(pd.SpectrumSpec(1), 50).n_max == 50


def test_plain_table_nondecreasing():
    counts = pd.build_table(pd.SpectrumSpec(1), 200).counts
    assert all(counts[n + 1] >= counts[n] for n in range(1, 199))


def test_bounded_equals_unbounded_once_cap_exceeds_n():
    for s, distinct in ((1, False), (1, True), (2, False)):
        free = pd.build_table(pd.SpectrumSpec(s, distinct), 30).counts
        capped = pd.build_table(pd.SpectrumSpec(s, distinct, 30), 30).counts
        assert free == capped


def test_monotone_in_part_cap():
    for n in (12, 25, 40):
        prev = 0
        for parts in range(1, n + 2):
            cur = pd.count(pd.SpectrumSpec(1, False, parts), n)
            assert cur >= prev
            prev = cur
        assert prev == pd.count(pd.SpectrumSpec(1), n)


def test_dominance():
    for s in (1, 2):
        for n in range(0, 35):
            for parts in (3, 8, None):
                d = pd.count(pd.SpectrumSpec(s, True, parts), n)
                p = pd.count(pd.SpectrumSpec(s, False, parts), n)
                assert d <= p <= pd.count(pd.SpectrumSpec(s), n)


def test_conjugation_both_orderings():
    # At-most-N-parts (2D DP) equals all-parts-<=N (conjugate sweep), s=1.
    for n_parts in (1, 2, 3, 5, 8, 13, 21, 34, 50):
        conj = pd.conjugate_restricted_table(n_parts, 500)
        direct = pd.build_table(pd.SpectrumSpec(1, False, n_parts), 500).counts
        assert tuple(conj) == direct


def test_euler_odd_equals_distinct():
    odd = pd.odd_parts_table(500)
    distinct = pd.build_table(pd.SpectrumSpec(1, True), 500).counts
    assert tuple(odd) == distinct


def test_staircase_identity_examples():
    assert pd.distinct_restricted_table(4, 5)[5] == 3
    assert pd.distinct_restricted_table(1, 7)[7] == 1
    assert pd.distinct_restricted_table(30, 100)[100] == pd.count(
        pd.SpectrumSpec(1, True, 30), 100
    )


def test_staircase_identity_tables():
    for n_parts in (1, 4, 10, 30):
        via_identity = pd.distinct_restricted_table(n_parts, 200)
        direct = pd.build_table(pd.SpectrumSpec(1, True, n_parts), 200).counts
        assert tuple(via_identity) == direct


@settings(max_examples=60, deadline=None)
@given(
    s=st.integers(1, 3),
    distinct=st.booleans(),
    parts=st.one_of(st.none(), st.integers(1, 10)),
    n=st.integers(0, 28),
)
def test_count_matches_enumeration_oracle(s, distinct, parts, n):
    spec = pd.SpectrumSpec(s, distinct, parts)
    assert pd.count(spec, n) == sum(1 for _ in pd.iter_partitions(spec, n))


@settings(max_examples=40, deadline=None)
@given(n_parts=st.integers(1, 12), n=st.integers(0, 60))
def test_staircase_identity_random_spots(n_parts, n):
    assert pd.distinct_restricted_table(n_parts, n)[n] == pd.count(
        pd.SpectrumSpec(1, True, n_parts), n
    )
