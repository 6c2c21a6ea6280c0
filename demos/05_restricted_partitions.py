"""Finite part-count corrections: capping the number of parts at N.

Capping suppresses the unrestricted count by an exponentially small
factor exp[-(sqrt(6E)/pi - 1/2) exp(-pi N / sqrt(6E))], trustworthy for
C(1) < E < C(1) N^2.  For distinct parts the analogue subtracts one
staircase-shifted restricted term per excess part count.

Run: python demos/05_restricted_partitions.py
"""

from partition_dos import (
    bose_density_s1,
    conjugate_restricted_table,
    distinct_restricted_table,
    erdos_lehner_factor,
    fermi_density_s1,
    rho_restricted_bose,
    rho_restricted_fermi,
    validity_region,
)

n_parts = 20
lo, hi = validity_region(n_parts)
print(f"validity window for N={n_parts}: {lo:.2f} < E < {hi:.2f}")

p_n = conjugate_restricted_table(n_parts, 600)
print(f"\n{'n':>5} {'p_20(n)':>14} {'unrestricted-p':>15} {'corrected-p':>13} {'factor':>8}")
for n in (50, 100, 200, 400, 600):
    exact = p_n[n]
    du = bose_density_s1(float(n)) - exact
    dr = rho_restricted_bose(float(n), n_parts) - exact
    print(f"{n:>5} {exact:>14} {du:>15.4g} {dr:>13.4g}"
          f" {erdos_lehner_factor(float(n), n_parts):>8.4f}")

d_n = distinct_restricted_table(n_parts, 600)
print(f"\n{'n':>5} {'d_20(n)':>14} {'unrestricted-d':>15} {'corrected-d':>13}")
for n in (250, 300, 350, 400, 450):
    exact = d_n[n]
    du = fermi_density_s1(float(n)) - exact
    dr = rho_restricted_fermi(float(n), n_parts) - exact
    print(f"{n:>5} {exact:>14} {du:>15.4g} {dr:>13.4g}")

print("""
Notes: below n = 231 no partition of n can use more than 20 distinct
parts, so d_20 = d and the corrected and unrestricted curves coincide.
Above it the corrected curve is closer to d_20 at every n up to 474.  The
series then over-subtracts: from n = 475 the corrected curve is farther
from d_20 than the unrestricted one, and from n = 582 it is negative.  The
subtracted terms sit well inside their own validity window (shifted
energy m <= 0.59 C(1) i^2), but the smooth at-most-i-parts density
overestimates the exact count there, by 12x at n = 631 for the first
term (i = 21).""")
