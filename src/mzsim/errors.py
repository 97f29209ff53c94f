"""Exception types shared across the package."""

__all__ = [
    "MzsimError",
    "DomainError",
    "UnsupportedHypothesisError",
    "StructureError",
    "ContractError",
    "GeometryError",
    "DegenerateComparisonError",
    "ResourceLimitError",
    "ConfigError",
]


class MzsimError(Exception):
    """Base class for every error raised by this package."""


class DomainError(MzsimError, ValueError):
    """A numeric argument lies outside its physical range."""


class UnsupportedHypothesisError(MzsimError, ValueError):
    """The requested hypothesis does not apply to this experiment."""


class StructureError(MzsimError, ValueError):
    """Shapes, labels, or dimensions do not line up."""


class ContractError(MzsimError, ValueError):
    """An argument violates a documented precondition, e.g. an observable
    that couples superselection sectors where a valid one is required."""


class GeometryError(MzsimError, ValueError):
    """Screen geometry outside the validity of the far-field model."""


class DegenerateComparisonError(MzsimError, ValueError):
    """The two count models are identical; no test can separate them."""


class ResourceLimitError(MzsimError, RuntimeError):
    """A search exceeded its configured cap."""


class ConfigError(MzsimError, ValueError):
    """Malformed or invalid run configuration."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
