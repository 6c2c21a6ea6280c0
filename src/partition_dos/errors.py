"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds a configured resource cap."""


class EnumerationOverflowError(RuntimeError):
    """Exhaustive enumeration would produce more partitions than the caller's cap."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to converge within its budget."""


class SpecMismatchError(ValueError):
    """Two objects that must describe the same counting problem do not."""


class DegreeMismatchError(ValueError):
    """Two series that must share a truncation degree do not."""


class PrecisionLossError(OverflowError):
    """An exact integer is too large to round-trip through a 64-bit float."""
