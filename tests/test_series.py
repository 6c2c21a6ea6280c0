import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partition_dos as pd
from partition_dos import series
from partition_dos.errors import DegreeMismatchError, DomainError, ResourceLimitError

small_series = st.lists(st.integers(-9, 9), min_size=1, max_size=13).map(pd.IntSeries)


def test_geometric_factor():
    assert pd.geometric_factor(1, 4).coeffs == (1, 1, 1, 1, 1)
    assert pd.geometric_factor(3, 8).coeffs == (1, 0, 0, 1, 0, 0, 1, 0, 0)
    assert pd.geometric_factor(9, 4).coeffs == (1, 0, 0, 0, 0)


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


@settings(max_examples=60, deadline=None)
@given(a=small_series, b=small_series, c=small_series)
def test_mul_distributes_over_add(a, b, c):
    d = min(a.degree, b.degree, c.degree)
    lhs = (a * (b + c)).coeffs[: d + 1]
    rhs = ((a * b) + (a * c)).coeffs[: d + 1]
    assert lhs == rhs


def test_add_and_result_degree():
    total = pd.IntSeries([1, 2, 3, 4]) + pd.IntSeries([1, 1])
    assert total.coeffs == (2, 3)


def test_bose_gf_examples():
    assert pd.bose_gf(1, 5).coeffs == (1, 1, 2, 3, 5, 7)
    assert pd.bose_gf(2, 5).coeffs == (1, 1, 1, 1, 2, 2)
    assert pd.bose_gf(1, 5, m_max=1).coeffs == (1, 1, 1, 1, 1, 1)


def test_fermi_gf_examples():
    assert pd.fermi_gf(1, 5).coeffs == (1, 1, 1, 2, 2, 3)
    assert pd.fermi_gf(2, 5).coeffs == (1, 1, 0, 0, 1, 1)
    assert pd.fermi_gf(1, 0).coeffs == (1,)


def test_distinct_restricted_gf_examples():
    assert pd.distinct_restricted_gf(4, 5).coefficient(5) == 3
    assert pd.distinct_restricted_gf(1, 4).coeffs == (1, 1, 1, 1, 1)
    got = pd.distinct_restricted_gf(30, 200).coeffs
    assert list(got) == pd.distinct_restricted_table(30, 200)


def test_gf_coefficients_match_tables():
    for s, distinct in ((1, False), (2, False), (1, True), (2, True)):
        table = pd.build_table(pd.SpectrumSpec(s, distinct), 150).counts
        gf = pd.fermi_gf(s, 150) if distinct else pd.bose_gf(s, 150)
        assert gf.coeffs == table


def test_finite_product_matches_conjugate_count():
    for m_max in (1, 3, 12):
        gf = pd.bose_gf(1, 120, m_max=m_max)
        assert list(gf.coeffs) == pd.conjugate_restricted_table(m_max, 120)


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


def test_verify_identity_mismatch():
    report = pd.verify_identity(pd.IntSeries([1, 2]), pd.IntSeries([1, 3]))
    assert not report.equal
    assert report.first_mismatch == 1
    assert str(report) == "mismatch at index 1"


def test_verify_identity_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        pd.verify_identity(pd.IntSeries([1, 2]), pd.IntSeries([1, 2, 3]))


def test_shifted():
    s = pd.IntSeries([1, 2, 3, 4])
    assert s.shifted(2).coeffs == (0, 0, 1, 2)
    assert s.shifted(0) == s
    assert s.shifted(9).coeffs == (0, 0, 0, 0)  # degree preserved
    with pytest.raises(DomainError):
        s.shifted(-1)


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
