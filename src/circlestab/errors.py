"""Shared exception types.

Everything raised on purpose by this package derives from CircleStabError,
so callers can catch one base class at API boundaries.  Numerical failures
carry enough state to be diagnosable (best estimate so far, offending
frequency, ...) instead of just a message string.
"""

from __future__ import annotations


class CircleStabError(Exception):
    """Base class for all package-specific errors."""


class InsufficientDataError(CircleStabError, ValueError):
    """Raised when an estimator is handed fewer samples than it needs."""


class ConvergenceError(CircleStabError):
    """An iterative estimate failed to reach its requested tolerance.

    Attributes
    ----------
    estimate : float
        Best value obtained before giving up.
    error_bound : float
        Rigorous (or heuristic, documented per call site) bound on the
        error of `estimate`.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = float(estimate)
        self.error_bound = float(error_bound)


class TuningError(ConvergenceError):
    """Rotation-number tuning failed: the Newton solve for the conjugacy
    did not converge (error_bound is its grid residual), or direct
    iteration of the tuned map missed the target (error_bound is the
    miss)."""


class SmallDivisorError(CircleStabError, ZeroDivisionError):
    """A homological-equation divisor e^{2 pi i n alpha} - 1 is exactly zero
    (n alpha is an integer) or below the caller's cutoff.

    Attributes
    ----------
    frequency : int
        The integer frequency n whose divisor failed.
    magnitude : float
        |e^{2 pi i n alpha} - 1| actually encountered.
    """

    def __init__(self, message: str, frequency: int, magnitude: float):
        super().__init__(message)
        self.frequency = int(frequency)
        self.magnitude = float(magnitude)


class ResourceLimitError(CircleStabError, MemoryError):
    """A computation would exceed an explicit size/memory budget.

    Raised *before* allocating, with the offending requested size attached.
    """

    def __init__(self, message: str, requested: int, limit: int):
        super().__init__(message)
        self.requested = int(requested)
        self.limit = int(limit)
