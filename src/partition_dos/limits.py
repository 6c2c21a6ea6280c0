"""The input-domain policy: each argument rule and resource cap, written once.

The public functions check their numeric arguments through these
helpers, so one kind of argument gets one rule and one message,
"name=value ...":

* an energy, exponent, inverse temperature or level energy is a finite
  number > 0, not a bool, a str, None or a complex (:func:`positive`);
* a part cap, count or index is a Python int, not a bool, at or above its
  lower bound, and at most its upper bound where it has one
  (:func:`integer`);
* a choice such as the statistics is one of a fixed set of options
  (:func:`one_of`);
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


def integer(name: str, value, low: int, high: int | None = None) -> int:
    """value if it is an int >= low (and <= high, if given), else DomainError.

    A bool is an int to Python but never a count here, so True and False
    are rejected too."""
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or value < low
        or (high is not None and value > high)
    ):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise DomainError(f"{name}={value!r} is not an integer {bounds}")
    return value


def positive(name: str, value) -> float:
    """value if it is a finite number > 0, else DomainError (nan and inf too).

    True compares as 1, but an energy or exponent is never a bool, so True
    and False are rejected too.  So is anything that does not compare with
    numbers, such as a str, None or a complex."""
    try:
        if not isinstance(value, bool) and 0 < value < math.inf:
            return value
    except TypeError:
        pass
    raise DomainError(f"{name}={value!r} is not a finite number > 0")


def one_of(name: str, value, options: tuple):
    """value if it equals one of options, else DomainError."""
    if value not in options:
        raise DomainError(f"{name}={value!r} is not one of {options!r}")
    return value


def _capped(what: str, size, env_name: str, default: int):
    raw = os.environ.get(env_name)
    try:
        cap = default if raw is None else int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise DomainError(f"{env_name} must be a nonnegative integer, got {raw!r}")
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
    return _capped(what, size, MAX_TABLE_ENV, DEFAULT_MAX_TABLE)


def series_degree(degree) -> int:
    """degree if it is a nonnegative int within PARTITION_DOS_MAX_DEGREE."""
    return _capped("degree", degree, MAX_DEGREE_ENV, DEFAULT_MAX_DEGREE)
