"""Exception types shared across the package: one per CLI exit code class.

DomainError and PrecisionLossError are usage errors (exit 2),
ResourceLimitError is a resource cap (exit 3) and ConvergenceError a
numeric solver failure (exit 4).
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds a configured resource cap."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to converge within its budget."""


class PrecisionLossError(OverflowError):
    """An exact integer is too large to round-trip through a 64-bit float."""
