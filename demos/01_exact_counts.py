"""Exact partition counting, from worked one-liners to big tables.

Run: python demos/01_exact_counts.py
"""

from partition_dos import (
    SpectrumSpec,
    build_table,
    count,
    distinct_restricted_table,
    enumerate_partitions,
)

# The classic small cases.  5 splits into unordered sums in seven ways:
print("p(5)  =", count(SpectrumSpec(s=1), 5))
for parts in enumerate_partitions(SpectrumSpec(s=1), 5, cap=100):
    print("        ", " + ".join(map(str, parts)) or "(empty)")

# Distinct parts only: 5, 4+1, 3+2.
print("d(5)  =", count(SpectrumSpec(s=1, distinct=True), 5))

# At most four parts: drops 1+1+1+1+1.
print("p_4(5) =", count(SpectrumSpec(s=1, max_parts=4), 5))

# Squares: 5 = 1+4 = 1+1+1+1+1.
print("p2(5) =", count(SpectrumSpec(s=2), 5))

# Counts are exact arbitrary-precision integers at any size the cap allows.
table = build_table(SpectrumSpec(s=1), 1000)
print("\np(100)  =", table[100])
print("p(1000) =", table[1000])

# Distinct-with-a-part-cap counts can be rebuilt purely from plain
# restricted counts by peeling off a staircase; both routes agree.
print("\nd_30(100) via staircase identity:", distinct_restricted_table(30, 100)[100])
print("d_30(100) via direct dynamic programming:",
      count(SpectrumSpec(s=1, distinct=True, max_parts=30), 100))
