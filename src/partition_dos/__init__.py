"""Exact integer-partition counting, its generating functions, the smooth
density-of-states asymptotics the counts converge to, a numeric saddle-point
cross-check of those asymptotics, and tools for the fluctuations around them.

The exact side (counting, series, asymptotic) needs only Python integers and
floats, so ``import partition_dos`` does not load numpy.  The two numpy
modules, ``saddle`` and ``fluctuation``, and the names they export load on
first access (PEP 562 module ``__getattr__``); ``from partition_dos import
find_saddle`` works as before and gives the same object as
``partition_dos.saddle.find_saddle``.
"""

from importlib import import_module as _import_module

from .asymptotic import (
    BOSE,
    FERMI,
    AsymptoticModel,
    bose_density_s1,
    erdos_lehner_factor,
    eta,
    fermi_density_s1,
    make_model,
    rho_restricted_bose,
    rho_restricted_fermi,
    rho_unrestricted,
    validity_region,
    zeta,
)
from .counting import (
    PartitionTable,
    SpectrumSpec,
    build_table,
    conjugate_restricted_table,
    count,
    distinct_restricted_table,
    enumerate_partitions,
    odd_parts_table,
)
from .errors import (
    ConvergenceError,
    DomainError,
    PrecisionLossError,
    ResourceLimitError,
)
from .series import (
    IdentityReport,
    IntSeries,
    bose_gf,
    distinct_restricted_gf,
    fermi_gf,
    geometric_factor,
    identities,
    one_minus_power,
    verify_identity,
)

__version__ = "0.1.0"

# Exported name -> the numpy module it lives in.  __getattr__ imports that
# module on first access to the name or to the module itself.
_LAZY = {
    **dict.fromkeys(
        ("FluctuationReport", "amplitude_ratio", "analyze", "beat_spectrum",
         "residuals", "smooth_curve"),
        "fluctuation",
    ),
    **dict.fromkeys(
        ("DosSplit", "PoissonEntropy", "SaddleResult", "ThermoSpec", "entropy",
         "entropy_poisson_s2", "find_saddle", "log_z", "single_particle_dos_s2"),
        "saddle",
    ),
}


def __getattr__(name):
    if name in _LAZY.values():
        return _import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
