"""The input-domain policy: each argument rule and resource cap, written once.

The public functions check their numeric arguments through these
helpers, so one kind of argument gets one rule and one message,
"name=value ...":

* an energy, inverse temperature or level energy is a finite number > 0
  (:func:`positive`);
* a part cap, count or index is a Python int at or above its lower bound
  (:func:`integer`);
* a table or grid size is a nonnegative int at most PARTITION_DOS_MAX_N,
  and a series degree one at most PARTITION_DOS_MAX_DEGREE
  (:func:`table_size`, :func:`series_degree`).

Caps exist so that a mistyped command-line argument cannot ask for a
multi-gigabyte table; they are read at call time so tests and callers can
adjust them per process.  A set value that is not a nonnegative integer
raises DomainError rather than falling back to the default.
"""

import math
import os

from .errors import DomainError, ResourceLimitError

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


def integer(name: str, value, low: int) -> int:
    """value if it is an int >= low, else DomainError."""
    if not isinstance(value, int) or value < low:
        raise DomainError(f"{name}={value!r} is not an integer >= {low}")
    return value


def positive(name: str, value) -> float:
    """value if it is a finite number > 0, else DomainError (nan and inf too)."""
    if not 0 < value < math.inf:
        raise DomainError(f"{name}={value!r} is not a finite number > 0")
    return value


def _capped(what: str, size, cap: int, env_name: str):
    # An infinite size (a float range past the float limits) is over any cap.
    if size == math.inf or integer(what, size, 0) > cap:
        raise ResourceLimitError(
            f"{what}={size} exceeds the cap {cap} (override with {env_name})"
        )
    return size


def table_size(what: str, size) -> int:
    """size if it is a nonnegative int within PARTITION_DOS_MAX_N.

    Over the cap, including inf, raises ResourceLimitError; anything else
    that is not such an int raises DomainError.
    """
    return _capped(what, size, max_table_size(), MAX_TABLE_ENV)


def series_degree(degree) -> int:
    """degree if it is a nonnegative int within PARTITION_DOS_MAX_DEGREE."""
    return _capped("degree", degree, max_series_degree(), MAX_DEGREE_ENV)
