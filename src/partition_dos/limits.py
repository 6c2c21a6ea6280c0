"""Resource caps, overridable through environment variables.

Caps exist so that a mistyped command-line argument cannot ask for a
multi-gigabyte table; they are read at call time so tests and callers can
adjust them per process.  A set value that is not a nonnegative integer
raises DomainError rather than falling back to the default.
"""

import os

from .errors import DomainError

MAX_TABLE_ENV = "PARTITION_DOS_MAX_N"
MAX_DEGREE_ENV = "PARTITION_DOS_MAX_DEGREE"

DEFAULT_MAX_TABLE = 200_000
DEFAULT_MAX_DEGREE = 20_000


def _read(env_name: str, default: int) -> int:
    raw = os.environ.get(env_name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise DomainError(f"{env_name} must be a nonnegative integer, got {raw!r}")
    return value


def max_table_size() -> int:
    """Largest n_max accepted when building an exact count table."""
    return _read(MAX_TABLE_ENV, DEFAULT_MAX_TABLE)


def max_series_degree() -> int:
    """Largest truncation degree accepted by the series builders."""
    return _read(MAX_DEGREE_ENV, DEFAULT_MAX_DEGREE)
