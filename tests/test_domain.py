"""The input-domain policy of partition_dos.limits, entry point by entry point.

Each public entry point rejects every argument outside its domain with a
DomainError whose message starts "name=": an energy, exponent or inverse
temperature must be a finite number > 0, not a bool (numpy's included), a
str, None or a complex (zeta's x one > 1), a part cap, window or index an
int, not a bool, at or above its lower bound (a window, n_min or series
index also at most the length it indexes), the statistics 'bose' or
'fermi', and a table size a nonnegative int.  A rule that ties one
argument to another (the -1/24 shift, a saddle part cap) or to
a floor (beat_spectrum's 64 samples) names that argument too.  A table size
over PARTITION_DOS_MAX_N, inf included, raises ResourceLimitError instead.
"""

import math

import numpy as np
import pytest

import partition_dos as pd
from partition_dos import asymptotic
from partition_dos.errors import DomainError, ResourceLimitError

NAN, INF = math.nan, math.inf
BOOL = (True, False)  # an int to Python, but never a count or an energy
# must be a finite number > 0; a str, None or a complex does not compare with
# 0, and numpy's bools compare as 0 and 1 but are no numbers.Number
REAL = (NAN, INF, -INF, 0.0, -1.0) + BOOL + ("1", None, 1j, np.True_, np.False_)
PART = (NAN, INF, 0, -1, 2.5) + BOOL  # must be an int >= 1 (>= 3 for a window)
WITHIN_10 = PART + (11,)  # as PART, and at most 10: a length-10 sequence or table
INDEX = (NAN, INF, -1, 2.5) + BOOL  # must be an int >= 0
SIZE = (NAN, -1, 2.5) + BOOL  # a table size: int >= 0; inf is over the cap
STATS = ("boson", "BOSE", "", None)  # must be pd.BOSE or pd.FERMI
ABOVE_1 = (NAN, 1.0, 0.5, -1.0)  # must be a finite number > 1

BOSE1 = pd.make_model(1, pd.BOSE)
SHIFTED = pd.make_model(1, pd.BOSE, rademacher_shift=True)
FERMI2 = pd.make_model(2, pd.FERMI)
FREE = pd.ThermoSpec(1, pd.BOSE)
D2_TO_10 = pd.build_table(pd.SpectrumSpec(2, distinct=True), 10)
DEGREE_10 = pd.IntSeries(range(11))

# (entry point and argument, argument name, bad values, call with the value)
CASES = [
    ("SpectrumSpec.s", "s", PART, lambda v: pd.SpectrumSpec(v, 2)),
    ("SpectrumSpec.max_parts", "max_parts", PART, lambda v: pd.SpectrumSpec(1, False, v)),
    ("build_table", "n_max", SIZE, lambda v: pd.build_table(pd.SpectrumSpec(1), v)),
    ("count", "n", INDEX, lambda v: pd.count(pd.SpectrumSpec(1), v)),
    ("make_model.s", "s", REAL, lambda v: pd.make_model(v, pd.FERMI)),
    ("make_model", "statistics", STATS, lambda v: pd.make_model(1, v)),
    ("make_model.shift[s=2]", "rademacher_shift", (True,), lambda v: pd.make_model(2, pd.BOSE, v)),
    ("make_model.shift[fermi]", "rademacher_shift", (True,),
     lambda v: pd.make_model(1, pd.FERMI, v)),
    ("ThermoSpec.s", "s", REAL, lambda v: pd.ThermoSpec(v, pd.BOSE)),
    ("ThermoSpec", "statistics", STATS, lambda v: pd.ThermoSpec(1, v)),
    ("ThermoSpec.max_parts[s=2]", "max_parts", (5,), lambda v: pd.ThermoSpec(2, pd.BOSE, v)),
    ("ThermoSpec.max_parts[fermi]", "max_parts", (5,), lambda v: pd.ThermoSpec(1, pd.FERMI, v)),
    ("rho_unrestricted[bose]", "E", REAL, lambda v: pd.rho_unrestricted(BOSE1, v)),
    ("rho_unrestricted[shift]", "E", REAL, lambda v: pd.rho_unrestricted(SHIFTED, v)),
    ("rho_unrestricted[fermi]", "E", REAL, lambda v: pd.rho_unrestricted(FERMI2, v)),
    ("rho_unrestricted_grid", "E", REAL,
     lambda v: list(asymptotic.rho_unrestricted_grid(BOSE1, [2.0, v]))),
    ("zeta", "x", ABOVE_1, pd.zeta),
    ("bose_density_s1", "E", REAL, pd.bose_density_s1),
    ("bose_density_s2", "E", REAL, asymptotic.bose_density_s2),
    ("fermi_density_s1", "E", REAL, pd.fermi_density_s1),
    ("erdos_lehner_factor.E", "E", REAL, lambda v: pd.erdos_lehner_factor(v, 5)),
    ("erdos_lehner_factor.N", "n_parts", PART, lambda v: pd.erdos_lehner_factor(100.0, v)),
    ("rho_restricted_bose.E", "E", REAL, lambda v: pd.rho_restricted_bose(v, 5)),
    ("rho_restricted_bose.N", "n_parts", PART, lambda v: pd.rho_restricted_bose(100.0, v)),
    ("rho_restricted_bose_grid.E", "E", REAL,
     lambda v: list(asymptotic.rho_restricted_bose_grid([400.0, v, 300.0], 5))),
    ("rho_restricted_bose_grid.N", "n_parts", PART,
     lambda v: list(asymptotic.rho_restricted_bose_grid([100.5, 400.0], v))),
    ("rho_restricted_fermi.E", "E", REAL, lambda v: pd.rho_restricted_fermi(v, 5)),
    ("rho_restricted_fermi.N", "n_parts", PART, lambda v: pd.rho_restricted_fermi(100.5, v)),
    ("rho_restricted_fermi_grid.E", "E", REAL,
     lambda v: list(asymptotic.rho_restricted_fermi_grid([400.0, v, 300.0], 5))),
    ("rho_restricted_fermi_grid.N", "n_parts", PART,
     lambda v: list(asymptotic.rho_restricted_fermi_grid([100.5, 400.0], v))),
    ("rho_restricted_fermi.E_before_N", "E", REAL, lambda v: pd.rho_restricted_fermi(v, 0)),
    ("validity_region", "n_parts", PART, pd.validity_region),
    ("find_saddle", "E", REAL, lambda v: pd.find_saddle(FREE, v)),
    ("log_z", "beta", REAL, lambda v: pd.log_z(FREE, v)),
    ("single_particle_dos_s2.eps", "eps", REAL, lambda v: pd.single_particle_dos_s2(v, 5)),
    ("single_particle_dos_s2.q_max", "q_max", INDEX,
     lambda v: pd.single_particle_dos_s2(2.0, v)),
    ("entropy_poisson_s2.E", "E", REAL, lambda v: pd.entropy_poisson_s2(v, 0.1, 3, 3)),
    ("entropy_poisson_s2.beta", "beta", REAL,
     lambda v: pd.entropy_poisson_s2(100.0, v, 3, 3)),
    ("entropy_poisson_s2.q_max", "q_max", INDEX,
     lambda v: pd.entropy_poisson_s2(100.0, 0.1, v, 3)),
    ("entropy_poisson_s2.l_max", "l_max", PART,
     lambda v: pd.entropy_poisson_s2(100.0, 0.1, 3, v)),
    ("amplitude_ratio.window", "window", WITHIN_10,
     lambda v: pd.amplitude_ratio([0.0] * 10, [1.0] * 10, v)),
    ("beat_spectrum", "len(residual)", (0, 10, 63),
     lambda v: pd.beat_spectrum([0.0] * v, np.ones(v))),
    ("residuals.n_min", "n_min", WITHIN_10, lambda v: pd.residuals(D2_TO_10, FERMI2, v)),
    ("analyze.n_min", "n_min", WITHIN_10,
     lambda v: pd.analyze(D2_TO_10, FERMI2, window=3, n_min=v)),
    ("IntSeries.coefficient", "n", INDEX + (11,), DEGREE_10.coefficient),
    ("conjugate_restricted_table.N", "n_parts", PART,
     lambda v: pd.conjugate_restricted_table(v, 10)),
    ("conjugate_restricted_table.n_max", "n_max", SIZE,
     lambda v: pd.conjugate_restricted_table(3, v)),
    ("odd_parts_table", "n_max", SIZE, pd.odd_parts_table),
    ("distinct_restricted_table.N", "n_parts", PART,
     lambda v: pd.distinct_restricted_table(v, 10)),
    ("distinct_restricted_table.n_max", "n_max", SIZE,
     lambda v: pd.distinct_restricted_table(3, v)),
]

ROWS = [
    pytest.param(name, call, value, id=f"{case}-{value!r}")
    for case, name, values, call in CASES
    for value in values
]


@pytest.mark.parametrize("name, call, value", ROWS)
def test_outside_the_domain_is_domain_error(name, call, value):
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value).startswith(f"{name}={value!r} ")


def test_numpy_float_scalars_are_numbers():
    # A numpy float scalar is a float, so positive() passes it as one.
    e = np.float64(300.0)
    assert pd.bose_density_s1(e) == pd.bose_density_s1(300.0)
    assert list(asymptotic.rho_unrestricted_grid(BOSE1, [e])) == [
        pd.rho_unrestricted(BOSE1, 300.0)]
    assert pd.make_model(np.float64(2.0), pd.FERMI) == FERMI2


TABLES = [
    lambda n: pd.conjugate_restricted_table(3, n),
    pd.odd_parts_table,
    lambda n: pd.distinct_restricted_table(3, n),
]


@pytest.mark.parametrize("table", TABLES, ids=["conjugate", "odd", "distinct"])
def test_oracle_tables_obey_the_table_cap(table, monkeypatch):
    with pytest.raises(ResourceLimitError):
        table(INF)
    monkeypatch.setenv("PARTITION_DOS_MAX_N", "50")
    assert len(table(50)) == 51
    with pytest.raises(ResourceLimitError):
        table(51)
