"""The beat pattern in distinct-square counts.

d2(n), the number of ways to write n as a sum of distinct squares, swings
around its smooth asymptote in a waxing-and-waning pattern.  The windowed
amplitude of the swing relative to the smooth level decays as n grows, and
the spectrum of the normalized residual shows several interfering
components rather than one clean line.

Run: python demos/06_fluctuations.py
"""

from partition_dos import (
    FERMI,
    SpectrumSpec,
    ThermoSpec,
    analyze,
    beat_spectrum,
    build_table,
    entropy_poisson_s2,
    find_saddle,
    make_model,
)

table = build_table(SpectrumSpec(2, distinct=True), 1000)
model = make_model(2, FERMI)
report = analyze(table, model, window=50)

print("windowed amplitude of the swing, relative to the smooth curve:")
for i in range(0, len(report.ratio), 100):
    center = report.n_grid[i] + report.window // 2
    print(f"  window around n={center:4d}: ratio = {report.ratio[i]:.3f}")
print(f"  overall: {report.summary['first_ratio']:.2f} -> "
      f"{report.summary['last_ratio']:.2f} (decaying: {report.summary['decreasing']})")

peaks = beat_spectrum(report.residual, report.smooth)
print(f"\nspectral peaks of the normalized residual ({len(peaks)} above the floor):")
for freq, power in peaks[:6]:
    print(f"  frequency {freq:.4f} cycles per unit n, power {power:.3g}")
print("two or more strong, separated components: that is the beat.")

# A negative result: the Poisson-resummed oscillatory entropy is far too
# small to drive these swings.  At the saddle of E=1000 it is exactly zero,
# and it stays below 1e-4 up to beta=0.05, ten times the saddle value.
# Saddles at roots of unity (complex beta) are the candidate explanation.
beta0 = find_saddle(ThermoSpec(2, FERMI), 1000.0).beta0
print("\noscillatory entropy at E=1000 (too small to explain the beat):")
for beta in (beta0, 0.05, 0.5, 2.0):
    pe = entropy_poisson_s2(1000.0, beta, q_max=30, l_max=30)
    print(f"  beta={beta:<7.3g}: smooth={pe.smooth:10.3f} oscillatory={pe.oscillatory:+.3e}")
