"""Exception types shared across the package."""

from contextlib import contextmanager


class ConfigurationError(ValueError):
    """Invalid input configuration (bad dimensions, malformed config keys, ...)."""


class QuadratureError(RuntimeError):
    """A radial integral failed to converge to the requested tolerance.

    Carries the best value reached and the achieved error estimate so callers
    can inspect how far off the computation stalled.
    """

    def __init__(self, message, value=None, estimate=None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


@contextmanager
def naming(where: str):
    """Re-raise a `QuadratureError` from the block with ``where: `` prefixed,
    keeping its value and estimate (and the original as the cause)."""
    try:
        yield
    except QuadratureError as exc:
        raise QuadratureError(f"{where}: {exc}", exc.value, exc.estimate) from exc


class NumericConsistencyError(RuntimeError):
    """A quantity violated an exact identity by more than rounding allows.

    Raised e.g. for mode normalizations that come out negative or outcome
    probabilities below the clamping floor; both signal inaccurate pairings
    rather than ordinary floating-point noise.
    """
