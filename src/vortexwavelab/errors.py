"""Exception types shared across the package."""


class VortexWaveError(Exception):
    """Base class for all package errors."""


class GridMismatchError(VortexWaveError):
    """Two fields that must share a grid do not."""


class NearBoundaryError(VortexWaveError):
    """A Cauchy-integral evaluation point is too close to the curve
    for the trapezoid quadrature to resolve."""


class VortexProximityError(VortexWaveError):
    """A point vortex came closer to the interface than the grid can
    resolve; the state is no longer trustworthy."""


class NonFiniteStateError(VortexWaveError, ValueError):
    """A state holds NaN or infinite values, so nothing derived from it
    means anything."""


class PicardDivergedError(VortexWaveError):
    """The fixed-point iteration for the implicit step failed to
    converge within the allowed number of sweeps."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class ConfigError(VortexWaveError):
    """A scenario configuration file is malformed; ``key`` names the
    offending entry when one can be identified."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
