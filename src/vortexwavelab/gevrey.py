"""Gevrey-2 norms, the shrinking analyticity radius, and the wave energy.

Four norms are provided, differing in their per-order weights:

    X : sum_{n>=0}  sigma^(2n)/(n!)^4 * ||d^n f||_L2^2
    Xd: same sum from n = 1
    Yd: sum_{n>=1} n^2 sigma^(2n)/(n!)^4 * ||d^n f||_L2^2
    Y : ||f||_L2^2 plus the Yd sum

sigma is the radius of convergence.  The radius schedule phi(t) =
L0 - delta0*t shrinks linearly; the energy of a wave state is measured
in the Yd x X pair at a radius sigma, phi(t) in the monitor.

Since ||d^n f||^2 is the sum over modes of P(k) k^(2n), with P the power
spectrum, each squared norm is one dot product: sum_k P(k) w(sigma k),
with the per-mode weight w(s) = sum_{n<=N_MAX} c_n s^(2n)/(n!)^4 and c_n
the kind's order coefficients (1, 1 from n = 1, n^2, or n^2 plus the L2
term).  The sum runs over the resolved band only, from the mean up to
the band edge: the first mode above the spectral peak at which the power
of that mode and of the next falls below BAND_FLOOR of the peak.  Modes
above it hold transform round-off, not data, and the weights (up to 1e60
at the Nyquist mode of the canonical run) would turn that noise into
percents of the norm.  One mode below the floor does not end the band:
an odd field has an imaginary spectrum, whose sign changes dip single
modes to any depth inside the data (at t = 0.72 of the canonical run, a
mode of U falls below the floor before a lobe that reaches 2e-20 of the
peak).  A field whose power never falls that low is not resolved by its
grid; its band edge is the length of the half spectrum, n/2 + 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grid import check_same_grid

N_MAX = 40          # highest derivative order in the weights
DEFAULT_L0 = 10.0   # initial radius of the library's and the CLI's default schedule
BAND_FLOOR = 1e-26  # power, relative to the peak, that ends the band


def _weight_polynomial(c):
    """Coefficients c(n)/(n!)^4 of the weight as a polynomial in s^2,
    highest order first, as np.polyval takes them."""
    return np.array([c(n) / math.factorial(n) ** 4 for n in range(N_MAX, -1, -1)])


_WEIGHTS = {"X": _weight_polynomial(lambda n: 1),
            "Xd": _weight_polynomial(lambda n: n >= 1),
            "Y": _weight_polynomial(lambda n: n * n + (n == 0)),
            "Yd": _weight_polynomial(lambda n: n * n)}


@dataclass
class GevreyParams:
    """Radius schedule phi(t) = L0 - delta0*t: L0 must be at least 4 and
    delta0 positive, both finite."""

    L0: float
    delta0: float

    def __post_init__(self):
        for name in ("L0", "delta0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if self.L0 < 4:
            raise ValueError("L0 must be >= 4, got %g" % self.L0)
        if self.delta0 <= 0:
            raise ValueError("delta0 must be positive")

    @classmethod
    def halving_at(cls, t_end, L0=DEFAULT_L0):
        """The schedule whose radius reaches L0/2, the edge of AS5, at
        t_end (delta0 = 1 for t_end = 0)."""
        return cls(L0, L0 / (2.0 * t_end) if t_end > 0 else 1.0)

    def phi(self, t):
        return self.L0 - self.delta0 * t


@dataclass
class GevreyReport:
    """Norm value and the band edge, the number of half-spectrum modes
    (from the mean) that the sum covers; n/2 + 1 marks a field that its
    grid does not resolve."""

    value: float
    band_edge: int


def power_spectrum(grid, f_hat):
    """Power of a half spectrum f_hat on the grid (``Field.fft``), scaled so
    that its sum is ||f||_L2^2: the modes 0 < k < k_max count twice, for
    +-k, and the (2, n/2 + 1) spectrum of a complex field adds the power of
    its real and imaginary parts."""
    power = (np.abs(f_hat) ** 2) * (grid.spacing / grid.n_points)
    if power.ndim == 2:
        power = power.sum(axis=0)
    power[1:-1] *= 2.0
    return power


def _norm(power, wavenumbers, sigma, kind):
    """The kind's Gevrey norm of a half-spectrum power at radius sigma,
    which must be positive and finite (ValueError naming it)."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive and finite, got %r" % (sigma,))
    peak = int(np.argmax(power))
    below = power[peak:] <= BAND_FLOOR * power[peak]
    ends = np.flatnonzero(below[:-1] & below[1:])
    edge = peak + int(ends[0]) if ends.size else power.size
    weight = np.polyval(_WEIGHTS[kind], (sigma * wavenumbers[:edge]) ** 2)
    return GevreyReport(value=float(np.sqrt(np.sum(power[:edge] * weight))),
                        band_edge=edge)


def gevrey_norm(f, sigma, kind):
    """Gevrey-2 norm of a field; returns a :class:`GevreyReport`.

    kind is one of "X", "Xd", "Y", "Yd" (dots = homogeneous variants).
    """
    if kind not in _WEIGHTS:
        raise ValueError("kind must be one of %s" % (tuple(_WEIGHTS),))
    return _norm(power_spectrum(f.grid, f.fft), f.grid.wavenumbers, sigma, kind)


def energy(W, U, sigma):
    """Wave energy 0.5*(||U||_Yd^2 + ||dW/da||_X^2) at finite radius sigma > 0.

    The power of dW/da is k^2 times that of W.  Summed over the resolved
    band only, E does not see the round-off in the modes above it: on
    states of the canonical transition run at t <= 0.24, 1e-14 relative
    noise on W and U moves E by at most 1.1e-13 relative at L0 = 10 and
    5e-15 at L0 = 4, which ``tests/test_gevrey.py`` pins below 1e-10.
    """
    grid = check_same_grid(W, U)
    k = grid.wavenumbers
    eu = _norm(power_spectrum(grid, U.fft), k, sigma, "Yd").value
    ew = _norm(power_spectrum(grid, W.fft) * k * k, k, sigma, "X").value
    return 0.5 * (eu * eu + ew * ew)

