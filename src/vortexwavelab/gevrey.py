"""Gevrey-2 norms, the shrinking analyticity radius, and the wave energy.

Four norms are provided, differing in their per-order weights:

    X : sum_{n>=0}  sigma^(2n)/(n!)^4 * ||d^n f||_L2^2
    Xd: same sum from n = 1
    Yd: sum_{n>=1} n^2 sigma^(2n)/(n!)^4 * ||d^n f||_L2^2
    Y : ||f||_L2^2 plus the Yd sum

sigma is the radius of convergence.  The radius schedule phi(t) =
L0 - delta0*t shrinks linearly; the energy of a wave state is measured
in the Yd x X pair at the current radius.

Spectral differentiation amplifies the Nyquist band by k_max^n, so for
under-resolved fields the computed per-order terms eventually grow with
n for no analytic reason.  The partial sum is truncated once a term
drops below TAIL_TOL times the running sum, and a report is flagged (and
truncated) when a term jumps by more than GROWTH_RATIO past order 5 --
the signature of round-off amplification rather than genuine norm
content, which grows by bounded factors only (legitimate norms can have
mildly increasing early terms, so a plain "any increase" rule would
misfire on them).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import RadiusExhaustedError
from .grid import check_same_grid
from .spectral import derivative

_KINDS = ("X", "Xd", "Y", "Yd")
TAIL_TOL = 1e-14
GROWTH_RATIO = 10.0


@dataclass
class GevreyParams:
    """Radius schedule and series-truncation controls.

    L0 must be at least 4 and delta0 positive; n_max caps the summation
    order.  spectrum_floor gates out modes whose amplitude is below that
    fraction of the spectral peak before differentiating: they carry
    transform round-off, not data, and k_max^n would amplify them into
    the sum long before the growth guard can fire.
    """

    L0: float = 10.0
    delta0: float = 1000.0
    n_max: int = 40
    spectrum_floor: float = 1e-13

    def __post_init__(self):
        if self.L0 < 4:
            raise ValueError("L0 must be >= 4, got %g" % self.L0)
        if self.delta0 <= 0:
            raise ValueError("delta0 must be positive")
        if self.n_max < 5:
            raise ValueError("n_max must be >= 5")


@dataclass
class GevreyReport:
    """Norm value together with the per-order contributions.

    value**2 equals the sum of ``terms`` by construction; truncated_at is
    the first order NOT included in the sum; roundoff_flag marks series
    whose tail was cut because spectral round-off took over.
    """

    value: float
    terms: list = field(default_factory=list)
    truncated_at: int = 0
    roundoff_flag: bool = False

    def to_dict(self):
        return {"value": self.value,
                "truncated_at": self.truncated_at,
                "roundoff_flag": self.roundoff_flag}


def _derivative_l2sq(f, n_max, floor=0.0):
    """||d^n f||_L2^2 for n = 0..n_max via the power spectrum; modes below
    ``floor`` times the peak amplitude are dropped as round-off; the half
    spectrum's modes 0 < k < k_max count twice, for +-k."""
    grid = f.grid
    power = (np.abs(f.fft) ** 2) * (grid.spacing / grid.n_points)
    if power.ndim == 2:
        power = power.sum(axis=0)            # real and imaginary parts
    if floor > 0.0 and power.size:
        power[power < power.max() * floor * floor] = 0.0
    power[1:-1] *= 2.0
    k2 = grid.wavenumbers ** 2
    out = np.empty(n_max + 1)
    acc = power.copy()
    out[0] = acc.sum()
    for n in range(1, n_max + 1):
        acc *= k2
        out[n] = acc.sum()
    return out


def gevrey_norm(f, sigma, kind, params=None):
    """Gevrey-2 norm of a field; returns a :class:`GevreyReport`.

    kind is one of "X", "Xd", "Y", "Yd" (dots = homogeneous variants).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive, got %g" % sigma)
    params = params or GevreyParams()
    if kind not in _KINDS:
        raise ValueError("kind must be one of %s" % (_KINDS,))

    d2 = _derivative_l2sq(f, params.n_max, floor=params.spectrum_floor)
    log_sigma = np.log(sigma)
    terms = []
    total = 0.0
    flagged = False
    n_start = 0 if kind in ("X", "Y") else 1
    truncated_at = params.n_max + 1
    prev = None
    for n in range(n_start, params.n_max + 1):
        log_w = 2.0 * n * log_sigma - 4.0 * gammaln(n + 1.0)
        t = float(np.exp(log_w) * d2[n])
        if kind in ("Y", "Yd"):
            t *= n * n
            if kind == "Y" and n == 0:
                t = float(d2[0])  # the plain L2 term
        if prev is not None and n > 5 and t > GROWTH_RATIO * prev and t > 0:
            flagged = True
            truncated_at = n
            break
        terms.append(t)
        total += t
        if t <= TAIL_TOL * total and n > n_start:
            truncated_at = n + 1
            break
        prev = t
    return GevreyReport(value=float(np.sqrt(total)), terms=terms,
                        truncated_at=min(truncated_at, params.n_max + 1),
                        roundoff_flag=flagged)


def radius(t, params):
    """phi(t) = L0 - delta0*t.  Raises once the radius is exhausted;
    callers who need phi >= L0/2 must keep t <= L0/(2*delta0)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    phi = params.L0 - params.delta0 * t
    if phi <= 0:
        raise RadiusExhaustedError("radius exhausted at t=%g (L0=%g, delta0=%g)"
                                   % (t, params.L0, params.delta0))
    return phi


def energy(W, U, t, params):
    """Wave energy 0.5*(||U||_Yd^2 + ||dW/da||_X^2) at radius phi(t).

    The weights sigma^(2n) make E sensitive to round-off in the high
    modes: on states of the canonical transition run at t <= 0.24, 1e-14
    relative noise on W and U moves E by up to 4.9e-2 relative at L0 = 10
    (7.5e-2 with more noise draws), but by at most about 5e-5 at L0 = 4,
    which ``tests/test_gevrey.py`` pins below 1e-4.  So near the AS2 cap
    a change that only reorders round-off can flip the flag at L0 = 10.
    """
    check_same_grid(W, U)
    phi = radius(t, params)
    eu = gevrey_norm(U, phi, "Yd", params).value
    ew = gevrey_norm(derivative(W), phi, "X", params).value
    return 0.5 * (eu * eu + ew * ew)


def embedding_bound(f, sigma, n, params=None):
    """Certified sup-norm bound for the n-th derivative:

        ||d^n f||_inf <= ( ((n+1)!)^2/sigma^(n+1) + (n!)^2/sigma^n ) ||f||_X_sigma

    (constant 1, from ||g||_inf^2 <= ||g||_L2^2 + ||g'||_L2^2).  The
    measured sup norm must never exceed the returned value.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    xnorm = gevrey_norm(f, sigma, "X", params).value
    c1 = np.exp(2.0 * gammaln(n + 2.0) - (n + 1.0) * np.log(sigma))
    c0 = np.exp(2.0 * gammaln(n + 1.0) - n * np.log(sigma))
    return float((c1 + c0) * xnorm)
