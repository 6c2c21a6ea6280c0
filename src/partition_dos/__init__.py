"""Exact integer-partition counting, its generating functions, the smooth
density-of-states asymptotics the counts converge to, a numeric saddle-point
cross-check of those asymptotics, and tools for the fluctuations around them.
"""

from .asymptotic import (
    BOSE,
    FERMI,
    AsymptoticModel,
    bose_density_s1,
    bose_density_s2,
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
    iter_partitions,
    odd_parts_table,
)
from .errors import (
    BracketingError,
    ConvergenceError,
    DegreeMismatchError,
    DomainError,
    EnumerationOverflowError,
    PrecisionLossError,
    ResourceLimitError,
    SpecMismatchError,
)
from .fluctuation import (
    FluctuationReport,
    amplitude_ratio,
    analyze,
    beat_spectrum,
    residuals,
    smooth_curve,
)
from .saddle import (
    DosSplit,
    PoissonEntropy,
    SaddleResult,
    ThermoSpec,
    entropy,
    entropy_poisson_s2,
    find_saddle,
    log_z,
    single_particle_dos_s2,
)
from .series import (
    IdentityReport,
    IntSeries,
    bose_gf,
    distinct_restricted_gf,
    fermi_gf,
    first_mismatch,
    geometric_factor,
    identities,
    one_minus_power,
    one_plus_power,
    verify_identity,
)

__version__ = "0.1.0"
