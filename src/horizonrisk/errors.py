"""Exception hierarchy shared across the library."""


class RiskLibError(Exception):
    """Base class for all library-specific errors."""


class TimeGridError(RiskLibError):
    """A time point is not on the model's grid or violates ordering."""


class TreeStructureError(RiskLibError):
    """A scenario tree violates its structural invariants."""


class DomainError(RiskLibError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RangeError(RiskLibError, ValueError):
    """A computed value lies outside the range an inverse can handle."""


class ConfigurationError(RiskLibError):
    """A solver or experiment was configured inconsistently."""


class SolverError(RiskLibError):
    """An iterative solver failed to converge."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message if node is None else f"{message} (node {node})")
        self.node = node


class SpecificationError(RiskLibError):
    """A user-supplied specification violates a declared property."""
