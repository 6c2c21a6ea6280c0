import ast
import math
import tracemalloc
from bisect import bisect_right
from graphlib import TopologicalSorter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partition_dos as pd
from partition_dos import counting
from partition_dos.asymptotic import FERMI, make_model
from partition_dos.errors import DomainError, ResourceLimitError


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
    with pytest.raises(ResourceLimitError, match=r"^more than 10 partitions of n=30 for "):
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
        lambda: pd.conjugate_restricted_table(3, 2.5),
        lambda: pd.odd_parts_table(2.5),
        lambda: pd.distinct_restricted_table(3, 2.5),
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


def _peak_bytes(call):
    """call() and the peak bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_part_values_for_large_s_skip_the_power():
    # 2**s > limit already at s = limit.bit_length(); 2**(10**8) alone is 12.5 MB.
    values, peak = _peak_bytes(lambda: pd.SpectrumSpec(10**8).part_values(5))
    assert values == [1]
    assert peak < 2**20
    assert pd.SpectrumSpec(3).part_values(0) == []
    assert [pd.SpectrumSpec(s).part_values(8) for s in (2, 3, 4)] == [[1, 4], [1, 8], [1]]


@pytest.mark.parametrize("distinct", [False, True])
def test_part_cap_above_n_max_sweeps_n_max_rows(distinct):
    # A partition of n <= 50 has at most 50 parts, so a cap of 20,000 is a cap of 50.
    capped = pd.SpectrumSpec(2, distinct, 50)
    table, peak = _peak_bytes(lambda: pd.build_table(pd.SpectrumSpec(2, distinct, 20_000), 50))
    assert table.counts == pd.build_table(capped, 50).counts
    assert peak < 2**20


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
    # At-most-N-parts (exactly-k recurrence) equals all-parts-<=N (conjugate sweep), s=1.
    for n_parts in (1, 2, 3, 5, 8, 13, 21, 34, 50):
        conj = pd.conjugate_restricted_table(n_parts, 500)
        assert conj == counting._at_most_parts(n_parts, False, 500)


def test_euler_odd_equals_distinct():
    odd = pd.odd_parts_table(500)
    distinct = pd.build_table(pd.SpectrumSpec(1, True), 500).counts
    assert tuple(odd) == distinct


def test_staircase_identity_examples():
    assert pd.distinct_restricted_table(4, 5)[5] == 3
    assert pd.distinct_restricted_table(1, 7)[7] == 1
    assert pd.distinct_restricted_table(30, 100)[100] == counting._at_most_parts(30, True, 100)[100]


def test_staircase_identity_tables():
    for n_parts in (1, 4, 10, 30):
        via_identity = pd.distinct_restricted_table(n_parts, 200)
        assert via_identity == counting._at_most_parts(n_parts, True, 200)


@settings(max_examples=60, deadline=None)
@given(
    s=st.integers(1, 3),
    distinct=st.booleans(),
    parts=st.one_of(st.none(), st.integers(1, 10)),
    n=st.integers(0, 28),
)
def test_count_matches_enumeration_oracle(s, distinct, parts, n):
    spec = pd.SpectrumSpec(s, distinct, parts)
    assert pd.count(spec, n) == len(pd.enumerate_partitions(spec, n, 10**4))


@settings(max_examples=40, deadline=None)
@given(n_parts=st.integers(1, 12), n=st.integers(0, 60))
def test_staircase_identity_random_spots(n_parts, n):
    assert pd.distinct_restricted_table(n_parts, n)[n] == counting._at_most_parts(n_parts, True, n)[n]


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 100, 601])
def test_s1_recurrences_match_knapsack(distinct, n):
    for parts in (None, 1, 2, 3, 5, 17, 30, n + 1):
        spec = pd.SpectrumSpec(1, distinct, parts)
        assert pd.build_table(spec, n).counts == tuple(counting._knapsack(spec, n))


@settings(max_examples=60, deadline=None)
@given(
    distinct=st.booleans(),
    parts=st.one_of(st.none(), st.integers(1, 40)),
    n=st.integers(0, 400),
)
def test_s1_recurrences_match_knapsack_property(distinct, parts, n):
    spec = pd.SpectrumSpec(1, distinct, parts)
    assert pd.build_table(spec, n).counts == tuple(counting._knapsack(spec, n))


def _lagged_sum(row, n, offsets):
    """Sum of row[n - g] over the increasing offsets g <= n."""
    return sum([row[n - g] for g in offsets[: bisect_right(offsets, n)]])


def _pentagonal_loop(n_max, distinct=False):
    """p(n), or d(n), for n = 0..n_max by Euler's pentagonal recurrence, one
    list comprehension over the offsets per n: counting._pentagonal before
    its itemgetter form, kept as that form's oracle."""
    odd, even = counting._pentagonal_offsets(n_max)
    source = {}
    if distinct:
        half_odd, half_even = counting._pentagonal_offsets(n_max // 2)
        source = {2 * g: -1 for g in half_odd} | {2 * g: 1 for g in half_even}
    row = [1]
    for n in range(1, n_max + 1):
        row.append(_lagged_sum(row, n, odd) - _lagged_sum(row, n, even) + source.get(n, 0))
    return row


def _sweep_loop(row, values):
    """row[j] += row[j - v] for j from v upward, one Python add per entry and
    value: counting._add_parts before its accumulate and block forms, kept
    as their oracle."""
    for v in values:
        for j in range(v, len(row)):
            row[j] += row[j - v]
    return row


# Generalized pentagonal numbers <= 3000, where the recurrence gains a term.
PENTAGONAL = sorted(sum(counting._pentagonal_offsets(3000), []))


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 100, 1000, 2200])
def test_pentagonal_matches_its_loop(distinct, n):
    assert counting._pentagonal(n, distinct) == _pentagonal_loop(n, distinct)


@settings(max_examples=60, deadline=None)
@given(
    distinct=st.booleans(),
    n=st.one_of(
        st.integers(0, 3000),
        st.builds(lambda g, d: max(g + d, 0), st.sampled_from(PENTAGONAL), st.integers(-1, 1)),
    ),
)
def test_pentagonal_matches_its_loop_property(distinct, n):
    # n on a pentagonal number, or one either side of it, is where the
    # itemgetters are rebuilt.
    assert counting._pentagonal(n, distinct) == _pentagonal_loop(n, distinct)


@pytest.mark.parametrize(
    "size,values",
    [
        (1, [1]),
        (9, [3]),  # v * v == len(row): the block form
        (10, [3]),  # v * v < len(row): the accumulate form
        (10, [10, 11, 50]),  # v >= len(row) changes nothing
        (30, [1, 1, 2, 2, 5, 5, 5]),  # repeated values
        (200, range(1, 200)),
        (0, [1, 4]),
    ],
)
def test_add_parts_matches_its_loop(size, values):
    row = [(7 * j) % 5 - 1 for j in range(size)]
    assert counting._add_parts(row[:], values) == _sweep_loop(row[:], values)


@settings(max_examples=200, deadline=None)
@given(row=st.lists(st.integers(-(2**70), 2**70), max_size=150), data=st.data())
def test_add_parts_matches_its_loop_property(row, data):
    # Values on both sides of the switch between the two forms (v * v and
    # len(row)), at or past the row's end, and repeated; big entries check
    # that nothing is cut to a machine word.
    root = max(math.isqrt(len(row)), 1)
    edges = st.sampled_from([1, root, root + 1, len(row) or 1, len(row) + 1])
    values = data.draw(st.lists(st.one_of(edges, st.integers(1, 160)), max_size=6))
    expected = _sweep_loop(row[:], values)
    assert counting._add_parts(row, values) is row
    assert row == expected


def _downward_sweep(values, n_max):
    """Counts of n = 0..n_max as sums of distinct members of `values`, by
    n_max Python adds per value.

    row[j] += row[j - v] for j from n_max down to v, so every entry read
    predates v and v is used at most once.  The oracle for the packed
    product counting._packed_distinct behind every unbounded distinct
    knapsack.
    """
    row = [1] + [0] * n_max
    for v in values:
        for j in range(n_max, v - 1, -1):
            row[j] += row[j - v]
    return row


def _assert_packed_matches_sweep(s, n):
    spec = pd.SpectrumSpec(s, True)
    values = spec.part_values(n)
    table = counting._knapsack(spec, n)
    assert table == _downward_sweep(values, n)
    bits = counting._lane_bits(s, values, n)
    assert bits >= max(table).bit_length()
    return bits


@pytest.mark.parametrize("s", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 150, 1000, 4900])
def test_packed_distinct_matches_downward_sweep(s, n):
    _assert_packed_matches_sweep(s, n)


@pytest.mark.parametrize("n,words", [(300, 1), (601, 2), (2500, 3)])
def test_packed_distinct_lanes_of_several_words(n, words):
    # d(n) needs 64-, 128- and 192-bit lanes here, so the unpacking joins 1-3 words.
    assert -(-_assert_packed_matches_sweep(1, n) // 64) == words


@settings(max_examples=40, deadline=None)
@given(s=st.integers(1, 12), n=st.integers(0, 2000))
def test_packed_distinct_matches_downward_sweep_property(s, n):
    _assert_packed_matches_sweep(s, n)


def _saddle_lane_bits(s, values, n):
    """The lane bound of counting._lane_bits taken at the full closed-form
    fermi saddle, whose D(s) keeps the factor eta(1 + 1/s) < 1."""
    beta = make_model(s, FERMI).lam / max(n, 1) ** (s / (1 + s))
    log_bound = math.fsum([beta * n] + [math.log1p(math.exp(-beta * v)) for v in values])
    return math.ceil(log_bound / math.log(2)) + 2


@pytest.mark.parametrize("s", [2, 3, 4])
def test_lane_bits_keep_the_fermi_saddle_words(s):
    # Dropping eta costs at most a bit, never a 64-bit word, on these sizes.
    for n in [*range(0, 20_001, 97), 4949, 15150]:
        values = pd.SpectrumSpec(s).part_values(n)
        bits = counting._lane_bits(s, values, n)
        reference = _saddle_lane_bits(s, values, n)
        assert bits >= reference, n
        assert -(-bits // 64) == -(-reference // 64), n


def _package_imports():
    """Each module of the package -> the package modules it imports, at
    module level or inside a function.  A name taken from the package
    itself that is no module, such as cli's __version__, counts as
    __init__."""
    package = Path(counting.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for name in modules:
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        graph[name] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    graph[name].add(node.module.split(".")[0])
                else:
                    graph[name].update(a.name if a.name in modules else "__init__"
                                       for a in node.names)
    return graph


def test_package_imports_have_no_cycle():
    graph = _package_imports()
    # The exact layer (counting, series) and the float layer (asymptotic,
    # saddle) share no import.
    assert graph["counting"] == {"errors", "limits"}
    assert graph["asymptotic"] == {"errors", "limits"}
    assert not graph["saddle"] & {"counting", "series"}
    TopologicalSorter(graph).prepare()  # raises CycleError, naming the cycle


@pytest.mark.parametrize("distinct", [False, True])
def test_void_part_cap_takes_the_unbounded_route(distinct):
    # A partition of n <= 1000 has at most 1000 parts, and at most 13 distinct
    # squares (1 + 4 + ... + 169 = 819 <= 1000 < 1015).  The capped DP would
    # hold a row of 1001 counts per part (8 MB of pointers for 1001 rows).
    free = counting._knapsack(pd.SpectrumSpec(2, distinct), 1000)
    for cap in (1000, 3000) + ((13, 14, 500) if distinct else ()):
        spec = pd.SpectrumSpec(2, distinct, cap)
        table, peak = _peak_bytes(lambda: counting._knapsack(spec, 1000))
        assert table == free
        assert peak < 2**20
    # A cap below the most parts still binds: 819 = 1 + 4 + ... + 169.
    capped = pd.SpectrumSpec(2, distinct, 12)
    table = counting._knapsack(capped, 1000)
    assert table[819] < free[819]
    assert table == _capped_loop(capped, 1000)


def test_distinct_exactly_k_rows_stop_at_the_most_parts(monkeypatch):
    # 1 + 2 + ... + 76 = 2926 <= 3000 < 3003: no n <= 3000 has 77 distinct
    # parts, so the exactly-k recurrence builds 76 rows, not 3000, and
    # build_table takes the pentagonal route, which sweeps nothing.
    sweeps = []
    sweep = counting._add_parts

    def counted(row, values):
        sweeps.append(values)
        return sweep(row, values)

    monkeypatch.setattr(counting, "_add_parts", counted)
    free = pd.build_table(pd.SpectrumSpec(1, True), 3000).counts  # pentagonal
    assert pd.build_table(pd.SpectrumSpec(1, True, 3000), 3000).counts == free
    assert sweeps == []
    assert tuple(counting._at_most_parts(3000, True, 3000)) == free
    assert len(sweeps) == 76
    # A cap below the most parts still binds, and still matches its oracle.
    capped = pd.build_table(pd.SpectrumSpec(1, True, 20), 3000).counts
    assert list(capped) == counting._at_most_parts(20, True, 3000)
    assert capped[3000] < free[3000]


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 100, 601, 3000])
def test_s1_capped_table_matches_exactly_k_recurrence(distinct, n):
    # 76 is the most distinct parts at n = 3000; n + 1 is a void cap for both kinds.
    for parts in (1, 2, 5, 20, 75, 76, 77, n + 1):
        table = pd.build_table(pd.SpectrumSpec(1, distinct, parts), n).counts
        assert list(table) == counting._at_most_parts(parts, distinct, n)


@settings(max_examples=60, deadline=None)
@given(distinct=st.booleans(), parts=st.integers(1, 120), n=st.integers(0, 800))
def test_s1_capped_table_matches_exactly_k_recurrence_property(distinct, parts, n):
    table = pd.build_table(pd.SpectrumSpec(1, distinct, parts), n).counts
    assert list(table) == counting._at_most_parts(parts, distinct, n)


@pytest.mark.parametrize(
    "distinct,parts,route",
    [
        (False, None, "_pentagonal"),
        (False, 3000, "_pentagonal"),
        (False, 10**6, "_pentagonal"),
        (False, 2999, "conjugate_restricted_table"),
        (False, 20, "conjugate_restricted_table"),
        (True, None, "_pentagonal"),
        (True, 76, "_pentagonal"),
        (True, 3000, "_pentagonal"),
        (True, 75, "distinct_restricted_table"),
        (True, 20, "distinct_restricted_table"),
    ],
)
def test_s1_table_takes_one_route(monkeypatch, distinct, parts, route):
    # A void cap (at least the most parts any n <= 3000 can have: 3000, or
    # 76 distinct) takes the pentagonal recurrence; a binding one takes the
    # conjugate sweep or the staircase.  The exactly-k recurrence is never used.
    taken = []
    for name in ("_pentagonal", "conjugate_restricted_table", "distinct_restricted_table"):
        def record(*args, _name=name, _orig=getattr(counting, name)):
            taken.append(_name)
            return _orig(*args)

        monkeypatch.setattr(counting, name, record)

    def unused(*args):
        raise AssertionError("build_table reached the exactly-k recurrence")

    monkeypatch.setattr(counting, "_at_most_parts", unused)
    pd.build_table(pd.SpectrumSpec(1, distinct, parts), 3000)
    assert taken == [route]


def _capped_loop(spec, n_max):
    """Counts of n = 0..n_max into at most spec.max_parts parts, by one
    Python add per nonzero entry.

    dp[k][j] = partitions of j into exactly k parts; each part value v adds
    dp[k - 1][j - v] into dp[k][j], with k downward for distinct parts and
    upward for multisets.  The oracle for the row-at-a-time capped DP of
    counting._knapsack, which it replaced; it never takes the unbounded route.
    """
    values = spec.part_values(n_max)
    n_parts = spec.max_parts
    dp = [[0] * (n_max + 1) for _ in range(n_parts + 1)]
    dp[0][0] = 1
    ks = range(n_parts, 0, -1) if spec.distinct else range(1, n_parts + 1)
    for v in values:
        for k in ks:
            cur, prev = dp[k], dp[k - 1]
            for j in range(v, n_max + 1):
                below = prev[j - v]
                if below:
                    cur[j] += below
    return [sum(layer[j] for layer in dp) for j in range(n_max + 1)]


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("parts", [1, 2, 5, 20])
def test_capped_knapsack_matches_loop(s, distinct, parts):
    for n in (0, 1, 2, 50, 600):
        spec = pd.SpectrumSpec(s, distinct, parts)
        assert counting._knapsack(spec, n) == _capped_loop(spec, n)


@settings(max_examples=30, deadline=None)
@given(
    s=st.integers(1, 3),
    distinct=st.booleans(),
    parts=st.integers(1, 30),
    n=st.integers(0, 400),
)
def test_capped_knapsack_matches_loop_property(s, distinct, parts, n):
    spec = pd.SpectrumSpec(s, distinct, parts)
    assert counting._knapsack(spec, n) == _capped_loop(spec, n)


@pytest.mark.parametrize(
    "spec,n,expected",
    [
        (pd.SpectrumSpec(1), 1000, 24061467864032622473692149727991),
        (pd.SpectrumSpec(1, True), 1000, 8635565795744155161506),
        (pd.SpectrumSpec(1, False, 30), 2000, 5209254866167212168496642874116802),
        (pd.SpectrumSpec(1, True, 30), 2000, 13422980722847645462954865675247),
    ],
)
def test_pinned_s1_counts(spec, n, expected):
    assert pd.count(spec, n) == expected


@pytest.mark.parametrize(
    "n,expected",
    # By the downward sweep; 34032 is the first n with d^2(n) > 2**53.
    [(15000, 220346318481), (34032, 9010834711520385)],
)
def test_pinned_distinct_square_counts(n, expected):
    assert pd.count(pd.SpectrumSpec(2, True), n) == expected
