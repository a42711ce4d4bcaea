"""Exception hierarchy shared across the library.

Exit-code mapping used by the CLI: parameter/domain/coverage/quasianalytic
errors are usage errors (2), insufficient data and estimation failures are 3,
conditioning failures are 4.
"""


class LiefactError(Exception):
    """Base class for all library errors."""


class DomainError(LiefactError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(LiefactError, ValueError):
    """Inconsistent or invalid parameters (e.g. h' <= h)."""


class BandlimitMismatchError(ParameterError):
    """Band limits disagree: a grid too coarse for a request, or two families composed."""


class WitnessSearchError(LiefactError):
    """No witness pair (h', C) found within the sweep.

    Carries ``best_defect``, the smallest inequality defect seen.
    """

    def __init__(self, message, best_defect):
        super().__init__(message)
        self.best_defect = best_defect


class InsufficientDataError(LiefactError):
    """Too few usable coefficients for an estimation."""


class EstimationError(LiefactError):
    """A regression or fit could not be carried out on the given data."""


class ConditioningError(LiefactError):
    """A matrix to be inverted is numerically singular.

    Carries ``xi``, the offending dual index.
    """

    def __init__(self, message, xi=None):
        super().__init__(message)
        self.xi = xi


class CoverageError(LiefactError):
    """Too few partition pieces to cover the group."""


class QuasianalyticError(LiefactError):
    """A compactly supported construction was requested in a quasianalytic class."""
