"""Exception types shared across the package."""


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


class NumericConsistencyError(RuntimeError):
    """A quantity violated an exact identity by more than rounding allows.

    Raised e.g. for mode normalizations that come out negative or outcome
    probabilities below the clamping floor; both signal inaccurate pairings
    rather than ordinary floating-point noise.
    """
