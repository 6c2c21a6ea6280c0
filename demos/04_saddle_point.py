"""Re-deriving the smooth densities numerically, with no closed form.

The count generating function evaluated at x = exp(-beta) is a canonical
partition sum Z(beta); the count itself is recovered by a Laplace
inversion whose integrand exp(beta E + ln Z) is approximated around its
stationary point beta0 by a Gaussian:

    rho(E) ~= exp(S(beta0)) / sqrt(2 pi S''(beta0)).

Here ln Z and its derivatives come from direct summation over the level
values m**s, so the stationary point is found on the full entropy.  The
last two columns are the solver's diagnostics: level sums taken by its
Newton steps in ln beta, and levels in the final sum.

Run: python demos/04_saddle_point.py
"""

from partition_dos import (
    BOSE,
    FERMI,
    SpectrumSpec,
    ThermoSpec,
    build_table,
    find_saddle,
    make_model,
    rho_unrestricted,
    single_particle_dos_s2,
)

print(f"{'case':>12} {'E':>6} {'beta0':>9} {'numeric':>13} {'closed form':>13} {'gap':>8}"
      f" {'iter':>4} {'levels':>6}")
for stats in (BOSE, FERMI):
    for s in (1, 2):
        spec = ThermoSpec(s, stats)
        model = make_model(s, stats)
        for e in (100.0, 1000.0):
            res = find_saddle(spec, e)
            closed = rho_unrestricted(model, e)
            print(f"{stats + ' s=' + str(s):>12} {e:>6.0f} {res.beta0:>9.5f}"
                  f" {res.density:>13.5e} {closed:>13.5e}"
                  f" {res.density/closed - 1:>+8.2%}"
                  f" {res.iterations:>4} {res.level_terms:>6}")

# The numeric route keeps every entropy term, so where the closed form is
# least accurate (squares at moderate E) the numeric density is the better
# estimate of the true count:
table = build_table(SpectrumSpec(2), 500)
spec2, model2 = ThermoSpec(2, BOSE), make_model(2, BOSE)
exact = table[500]
print(f"\np2(500) = {exact}")
print(f"  numeric saddle : {find_saddle(spec2, 500.0).density:12.1f}"
      f"  ({find_saddle(spec2, 500.0).density/exact - 1:+.2%})")
print(f"  closed form    : {rho_unrestricted(model2, 500.0):12.1f}"
      f"  ({rho_unrestricted(model2, 500.0)/exact - 1:+.2%})")

# For the quadratic spectrum the single-particle level density itself
# splits into a smooth 1/(2 sqrt(eps)) part plus cosine corrections that
# rebuild the level spikes:
print("\nlevel density of m**2 at eps=2.25 (between levels):")
for q_max in (0, 1, 2, 3):
    split = single_particle_dos_s2(2.25, q_max)
    print(f"  q_max={q_max}: smooth={split.smooth:.4f} oscillatory={split.oscillatory:+.4f}")
