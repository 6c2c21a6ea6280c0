"""The counting generating functions as exact truncated power series.

Every count family is the coefficient list of a product of sparse factors:
multiset counts come from geometric factors 1/(1-x^v), distinct counts from
(1+x^v).  Because the arithmetic is exact, classical identities can be
checked coefficient by coefficient.

Run: python demos/02_generating_functions.py
"""

from partition_dos import (
    IntSeries,
    SpectrumSpec,
    bose_gf,
    build_table,
    distinct_restricted_gf,
    fermi_gf,
    geometric_factor,
    one_minus_power,
    verify_identity,
)

degree = 40

gf = bose_gf(1, degree)
table = build_table(SpectrumSpec(1), degree)
print("series coefficients == pentagonal-recurrence counts:",
      gf.coeffs == table.counts)
print("first coefficients:", gf.coeffs[:10])

# Euler's trick: (1 + x^k) = (1 - x^2k) / (1 - x^k), factor by factor.
rhs = IntSeries([1], degree)
m = 1
while m <= degree:
    rhs = rhs * one_minus_power(2 * m, degree) * geometric_factor(m, degree)
    m += 1
print("\ndistinct == even-free:", verify_identity(fermi_gf(1, degree), rhs))

# The staircase form of the distinct generating function: summing
# x^(i(i+1)/2) / ((1-x)(1-x^2)...(1-x^i)) over i reproduces the product
# form once every staircase that fits under the truncation is included.
i_eff = 1
while i_eff * (i_eff + 1) // 2 <= degree:
    i_eff += 1
print("staircase sum == distinct product:",
      verify_identity(fermi_gf(1, degree), distinct_restricted_gf(i_eff, degree)))

# Truncating the staircase sum at N instead gives at-most-N-parts counts.
print("\nd_3(n) coefficients:", distinct_restricted_gf(3, 12).coeffs)
print("d_3(n) recurrence:  ",
      build_table(SpectrumSpec(1, distinct=True, max_parts=3), 12).counts)
