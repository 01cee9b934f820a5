"""Exception types shared across the package."""


class VortexWaveError(Exception):
    """Base class for all package errors."""


class GridMismatchError(VortexWaveError):
    """Two fields that must share a grid do not."""


class VortexProximityError(VortexWaveError):
    """A point off the curve (a vortex, a Cauchy-integral point) is closer
    to it than the quadratures resolve; nothing computed there is trusted."""


class NonFiniteStateError(VortexWaveError, ValueError):
    """A state holds NaN or infinite values, so nothing derived from it
    means anything."""


class PicardDivergedError(VortexWaveError):
    """The fixed-point iteration for the implicit step failed to
    converge within the allowed number of sweeps."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)


class ConfigError(VortexWaveError):
    """A scenario configuration file is malformed; ``key`` names the
    offending entry when one can be identified."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
