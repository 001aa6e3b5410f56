"""Exception types shared across the toolkit."""

__all__ = [
    "HardyError",
    "SizeError",
    "TruncationError",
    "ParameterError",
    "DomainError",
    "SingularityError",
    "RankError",
    "ConstructionError",
    "DegenerateSpaceError",
    "FactorizationError",
]


class HardyError(Exception):
    """Base class for every error raised by this package."""


class SizeError(HardyError, ValueError):
    """Grid sizes are invalid, mismatched, or too small for the request."""


class TruncationError(HardyError, ValueError):
    """Data does not fit inside the representable coefficient band."""


class ParameterError(HardyError, ValueError):
    """An argument lies outside its documented range."""


class DomainError(HardyError, ValueError):
    """Input violates a mathematical precondition, e.g. it is not analytic."""


class SingularityError(HardyError, ValueError):
    """A modulus fell below the safe logarithm floor.

    ``indices`` lists the offending grid positions (at most the first
    sixteen, to keep messages readable).
    """

    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(int(i) for i in indices)


class RankError(HardyError, ValueError):
    """A family has more members than the ambient structure allows."""


class ConstructionError(HardyError, ValueError):
    """A composite object cannot be assembled from the given parts."""


class DegenerateSpaceError(HardyError, ValueError):
    """A subspace operation produced an empty or collapsed result."""


class FactorizationError(HardyError, RuntimeError):
    """A factorization finished outside its residual tolerance.

    ``diagnostics`` carries the measured defects so callers can report
    them without re-running the computation.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})
