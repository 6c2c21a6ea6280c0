import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import partition_dos as pd
from partition_dos import counting, series
from partition_dos.errors import DomainError, ResourceLimitError

small_series = st.lists(st.integers(-9, 9), min_size=1, max_size=13).map(pd.IntSeries)
# About three quarters zeros, like the factors the products are built from.
sparse_coeffs = st.lists(st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-9, 9)),
                         min_size=1, max_size=24)


def test_geometric_factor():
    assert pd.geometric_factor(1, 4).coeffs == (1, 1, 1, 1, 1)
    assert pd.geometric_factor(3, 8).coeffs == (1, 0, 0, 1, 0, 0, 1, 0, 0)
    assert pd.geometric_factor(9, 4).coeffs == (1, 0, 0, 0, 0)


def test_mul_and_add_refuse_other_operands():
    s = pd.IntSeries([1, 2, 3])
    for op in (lambda: s * 2, lambda: 2 * s, lambda: s + 1, lambda: 1 + s,
               lambda: s * [1, 2], lambda: s + (1, 2)):
        with pytest.raises(TypeError):
            op()
    assert s.__mul__(2) is NotImplemented


def test_mul_example():
    prod = pd.IntSeries([1, 1, 1]) * pd.IntSeries([1, -1, 0])
    assert prod.coeffs == (1, 0, 0)


def test_mul_ten_random_series_association_orders():
    rng = random.Random(0)
    factors = [
        pd.IntSeries([rng.randint(-5, 5) for _ in range(21)]) for _ in range(10)
    ]
    left = factors[0]
    for f in factors[1:]:
        left = left * f
    right = factors[-1]
    for f in factors[-2::-1]:
        right = f * right
    assert left == right


@settings(max_examples=150, deadline=None)
@given(a=sparse_coeffs, b=sparse_coeffs)
@example(a=[0, 0, 0, 0, 0], b=[1, 2, 0, 0, 3, 0, 0, 0, 4])
@example(a=[5, 0, 0, 0, 0, 0, 0, 0, 1, 0], b=[1, -1, 2, 0, 3, 0])
@example(a=[1, 1, 1, 1, 1, 1, 1], b=[1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0])
# Dense operands whose coefficients and products pass 2**64.
@example(a=[2**64 + 1, 3, -(2**70), 5, 2**65], b=[-(2**66), 7, 2**64, -1, 9, 2**80])
# A sparse operand with -1 and |a_i| > 1: scaled rows, shifted.
@example(a=[0, -1, 0, 0, 3, 0, 0, -4, 0, 0], b=[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
# The longer operand is also the sparser one, so the shorter one is the row.
@example(a=[1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 2], b=[1, 2, 3, 4, 5, 6, 7])
# The row is the longer operand and is cut at the shared degree.
@example(a=[0, 1, 0, -1], b=[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5])
# The first nonzero of the sparser operand, past i = 0 and not 1, seeds the result.
@example(a=[0, 0, -1, 0, 0, 0, 1, 0], b=[1, 2, 3, 4, 5, 6, 7, 8])
@example(a=[0, 3, 0, 0, 0, -1, 0, 0], b=[2, -1, 4, 7, 1, 8, 2, 8, 1])
# Its first nonzero sits at the shared degree: the seeded row has length 1.
@example(a=[0, 0, 0, 0, 0, 7], b=[1, 2, 3, 4, 5, 6])
@example(a=[0, 0, 0, 1], b=[4, 3, 2, 9, 9])
# Degree-0 operands.
@example(a=[5], b=[-3])
@example(a=[1], b=[0])
@example(a=[-2], b=[1, 2, 3])
# An all-zero sparser operand.
@example(a=[0, 0, 0], b=[1, 2, 3, 4])
@example(a=[0], b=[0])
def test_mul_matches_plain_convolution(a, b):
    d = min(len(a), len(b)) - 1
    want = tuple(sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(d + 1))
    assert (pd.IntSeries(a) * pd.IntSeries(b)).coeffs == want


@settings(max_examples=80, deadline=None)
@given(a=small_series, b=small_series)
def test_mul_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(a=small_series, b=small_series, c=small_series)
def test_mul_associative_up_to_shared_degree(a, b, c):
    d = min(a.degree, b.degree, c.degree)
    lhs = ((a * b) * c).coeffs[: d + 1]
    rhs = (a * (b * c)).coeffs[: d + 1]
    assert lhs == rhs


def test_bose_gf_examples():
    assert pd.bose_gf(1, 5).coeffs == (1, 1, 2, 3, 5, 7)
    assert pd.bose_gf(2, 5).coeffs == (1, 1, 1, 1, 2, 2)


def test_fermi_gf_examples():
    assert pd.fermi_gf(1, 5).coeffs == (1, 1, 1, 2, 2, 3)
    assert pd.fermi_gf(2, 5).coeffs == (1, 1, 0, 0, 1, 1)
    assert pd.fermi_gf(1, 0).coeffs == (1,)


def test_distinct_restricted_gf_examples():
    assert pd.distinct_restricted_gf(4, 5).coefficient(5) == 3
    assert pd.distinct_restricted_gf(1, 4).coeffs == (1, 1, 1, 1, 1)


@pytest.mark.parametrize("n_parts", [1, 2, 7, 19, 20, 30])
def test_distinct_restricted_gf_matches_staircase_table(n_parts):
    # 19 is the last N whose staircase 19*20/2 = 190 fits under degree 200.
    got = pd.distinct_restricted_gf(n_parts, 200).coeffs
    assert list(got) == pd.distinct_restricted_table(n_parts, 200)


def test_products_and_tables_share_no_row_step(monkeypatch):
    """The products and the s = 2 tables check each other in gf_vs_dp_*_s2,
    so neither may run the other's row step: the products never sweep with
    counting._add_parts, and the unbounded tables never call counting._add_row."""

    def refuse(*args):
        raise AssertionError("row step of the other route")

    tables = {d: pd.build_table(pd.SpectrumSpec(2, d), 60).counts for d in (False, True)}
    with monkeypatch.context() as patch:
        patch.setattr(counting, "_add_parts", refuse)
        with pytest.raises(AssertionError):
            pd.build_table(pd.SpectrumSpec(2), 60)  # the patch is in effect
        assert pd.bose_gf(2, 60).coeffs == tables[False]
        assert pd.fermi_gf(2, 60).coeffs == tables[True]
    with monkeypatch.context() as patch:
        patch.setattr(counting, "_add_row", refuse)
        with pytest.raises(AssertionError):
            pd.build_table(pd.SpectrumSpec(2, False, 5), 60)  # the patch is in effect
        for d in (False, True):
            assert pd.build_table(pd.SpectrumSpec(2, d), 60).counts == tables[d]


def test_product_rows_come_from_the_operands(monkeypatch):
    """Every row a product adds comes from its operands, never from the
    partial result it adds into: the convolution stays independent of the
    in-place sweep it is checked against."""
    calls = []

    def spy(dst, src, shift=0):
        assert src is not dst
        calls.append(shift)
        return counting._add_row(dst, src, shift)

    tables = {d: pd.build_table(pd.SpectrumSpec(1, d), 60).counts for d in (False, True)}
    monkeypatch.setattr(series, "_add_row", spy)
    assert pd.bose_gf(1, 60).coeffs == tables[False]
    assert pd.fermi_gf(1, 60).coeffs == tables[True]
    euler = pd.bose_gf(1, 60) * series._product(
        lambda v, d: pd.one_minus_power(2 * v, d), 1, 60, 30)
    assert euler.coeffs == tables[True]
    assert calls


def test_gf_coefficients_match_tables():
    for s, distinct in ((1, False), (2, False), (1, True), (2, True)):
        table = pd.build_table(pd.SpectrumSpec(s, distinct), 150).counts
        gf = pd.fermi_gf(s, 150) if distinct else pd.bose_gf(s, 150)
        assert gf.coeffs == table


def _finite_product(n_parts, degree):
    """prod_{v <= n_parts} 1/(1 - x^v): parts of size at most n_parts."""
    out = pd.IntSeries([1], degree)
    for v in range(1, n_parts + 1):
        out = out * pd.geometric_factor(v, degree)
    return out


def test_finite_product_matches_conjugate_count():
    assert _finite_product(1, 5).coeffs == (1, 1, 1, 1, 1, 1)
    for n_parts in (1, 3, 12):
        gf = _finite_product(n_parts, 120)
        assert list(gf.coeffs) == pd.conjugate_restricted_table(n_parts, 120)


def test_truncation_consistency():
    for builder in (
        lambda d: pd.bose_gf(2, d),
        lambda d: pd.fermi_gf(1, d),
        lambda d: pd.distinct_restricted_gf(7, d),
    ):
        big = builder(180)
        for n in (0, 17, 60, 180):
            assert builder(n).coefficient(n) == big.coefficient(n)


def test_gf_coefficients_nonnegative():
    for gf in (pd.bose_gf(2, 120), pd.fermi_gf(2, 120), pd.distinct_restricted_gf(9, 120)):
        assert all(c >= 0 for c in gf.coeffs)


def test_staircase_series_identity():
    # Full distinct product == staircase sum once all offsets <= degree are in.
    i_eff = 1
    while i_eff * (i_eff + 1) // 2 <= 200:
        i_eff += 1
    report = pd.verify_identity(
        pd.fermi_gf(1, 200), pd.distinct_restricted_gf(i_eff, 200)
    )
    assert report.equal
    assert str(report) == "equal up to degree 200"


@pytest.mark.parametrize("s", [1, 2])
def test_euler_factorization(s):
    # (1 + y) == (1 - y^2)/(1 - y) applied factor by factor.
    degree = 100
    rhs = pd.IntSeries([1], degree)
    m = 1
    while m**s <= degree:
        rhs = rhs * pd.one_minus_power(2 * m**s, degree)
        rhs = rhs * pd.geometric_factor(m**s, degree)
        m += 1
    assert pd.verify_identity(pd.fermi_gf(s, degree), rhs).equal


def test_identities_build_each_product_once(monkeypatch):
    calls = []

    def counted(name, builder):
        def wrapper(s, *args, **kwargs):
            calls.append((name, s))
            return builder(s, *args, **kwargs)
        return wrapper

    for name in ("bose_gf", "fermi_gf"):
        monkeypatch.setattr(series, name, counted(name, getattr(series, name)))
    list(series.identities(60))
    assert sorted(calls) == [("bose_gf", 1), ("bose_gf", 2), ("fermi_gf", 1), ("fermi_gf", 2)]


def test_integer_like_coefficients():
    got = pd.IntSeries([np.int64(3), True, np.uint8(2)]).coeffs
    assert got == (3, 1, 2)
    assert all(type(c) is int for c in got)


def test_built_series_hold_plain_ints():
    """Results wrapped without the constructor's check hold ints and equal
    (and hash like) the same coefficients passed through the constructor."""
    a = pd.IntSeries([np.int64(3), True, 0, np.uint8(2), -1])
    b = pd.IntSeries([1, 0, -4, 0, 2**70])
    built = [a * b, b * a, pd.IntSeries([0, 0]) * a,
             pd.geometric_factor(2, 6), series.one_plus_power(3, 6), pd.one_minus_power(3, 6),
             pd.bose_gf(2, 30), pd.fermi_gf(1, 30), pd.distinct_restricted_gf(4, 30)]
    for got in built:
        assert all(type(c) is int for c in got.coeffs)
        checked = pd.IntSeries(got.coeffs)
        assert got == checked and hash(got) == hash(checked)
        assert type(got.coeffs) is tuple


def test_first_mismatch():
    assert series.first_mismatch([1, 2, 3], [1, 2, 3]) is None
    assert series.first_mismatch([1, 2, 3], [1, 5, 3]) == 1
    # A strict prefix differs at the first index past it, on either side.
    assert series.first_mismatch([1, 2], [1, 2, 3]) == 2
    assert series.first_mismatch((1, 2, 3), [1]) == 1
    assert series.first_mismatch([], [0]) == 0
    assert series.first_mismatch([], ()) is None


def test_verify_identity_mismatch():
    report = pd.verify_identity(pd.IntSeries([1, 2]), pd.IntSeries([1, 3]))
    assert not report.equal
    assert report.first_mismatch == 1
    assert str(report) == "mismatch at index 1"


def test_verify_identity_degree_mismatch():
    with pytest.raises(DomainError, match=r"^degrees differ: 1 vs 2$"):
        pd.verify_identity(pd.IntSeries([1, 2]), pd.IntSeries([1, 2, 3]))


def test_coefficient_bounds():
    s = pd.IntSeries([1, 2])
    with pytest.raises(DomainError):
        s.coefficient(5)
    with pytest.raises(DomainError):
        s.coefficient(-1)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: pd.geometric_factor(0, 5),
        lambda: pd.bose_gf(0, 5),
        lambda: pd.fermi_gf(1, -1),
        lambda: pd.distinct_restricted_gf(0, 5),
        lambda: pd.IntSeries([1], degree=-1),
        lambda: pd.IntSeries([1.5]),
        lambda: pd.IntSeries(["7"]),
    ],
)
def test_series_domain_errors(bad):
    with pytest.raises(DomainError):
        bad()


def test_series_degree_cap(monkeypatch):
    monkeypatch.setenv("PARTITION_DOS_MAX_DEGREE", "100")
    with pytest.raises(ResourceLimitError):
        pd.bose_gf(1, 101)
    assert pd.bose_gf(1, 100).degree == 100
