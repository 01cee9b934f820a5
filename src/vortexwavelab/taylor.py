"""Closed forms for the Taylor-sign coefficient of a flat interface with a
submerged counter-rotating vortex pair, and the residue-integral oracles
behind them.

For a pair at -x+iy, x+iy (x > 0, y < 0) with strengths +lam, -lam and the
interface frozen to the pair-induced trace, the normal-pressure coefficient
is exactly

    A1(a) = 1 + G1(a; x, y, lam) + G2(a; x, y, lam),

G1 the self-advection part and G2 >= 0 the interaction part.  Rescaling
a = k|y| and dropping the O(x^2/y^2) pieces reduces the profile to
f(gamma, k) = 1 - gamma*g(k) with gamma = lam^2/(pi^2 |y|^3) and

    g(k) = (3k^4 + 2k^2 - 1) / (k^2 + 1)^4,

whose extrema g(0) = -1 and g(+-1) = 1/4 put the stability threshold at
gamma = 4: the pair destabilizes the interface exactly when it rises past
the depth |y_c| = (lam^2 / 4 pi^2)^(1/3).
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar


@dataclass
class PairConfig:
    """Symmetric counter-rotating pair: half-separation x > 0, depth y < 0,
    strength lam (left vortex +lam, right vortex -lam)."""

    x: float
    y: float
    lam: float

    def __post_init__(self):
        if self.x <= 0:
            raise ValueError("x must be positive")
        if self.y >= 0:
            raise ValueError("y must be negative (below the interface)")


@dataclass
class StabilityProfile:
    """Reduced-profile summary of one pair configuration."""

    gamma: float
    inf_value: float
    argmin_alpha: float
    crossing_depth: float


def g_profile(k):
    """g(k) = (3k^4 + 2k^2 - 1)/(k^2 + 1)^4; max 1/4 at k = +-1, min -1 at 0."""
    k = np.asarray(k, dtype=float)
    k2 = k * k
    return (3.0 * k2 * k2 + 2.0 * k2 - 1.0) / (k2 + 1.0) ** 4


def f_reduced(gamma, k):
    """Reduced stability profile f(gamma, k) = 1 - gamma*g(k)."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return 1.0 - gamma * g_profile(k)


def a1_flat_pair(alpha, cfg):
    """Exact A1 = 1 + G1 + G2 for the flat interface + pair configuration."""
    return 1.0 + _g1(alpha, cfg) + _g2(alpha, cfg)


def _g1(alpha, cfg):
    a = np.asarray(alpha, dtype=float)
    x, y, lam = cfg.x, cfg.y, cfg.lam
    r2 = x * x + y * y
    num = 3.0 * y * a ** 4 + r2 * y * (3.0 * x * x - y * y + 2.0 * a * a)
    den = (a ** 4 + r2 * r2 + 2.0 * a * a * (y * y - x * x)) ** 2
    return (lam * lam / np.pi ** 2) * num / den


def _g2(alpha, cfg):
    a = np.asarray(alpha, dtype=float)
    x, y, lam = cfg.x, cfg.y, cfg.lam
    r2 = x * x + y * y
    num = a * a * x * x + x ** 4 + 5.0 * x * x * y * y
    den = ((a + x) ** 2 + y * y) * ((a - x) ** 2 + y * y) * r2 * abs(y)
    return (lam * lam / (4.0 * np.pi ** 2)) * num / den


def inf_a1_flat(cfg):
    """Global minimum of a1_flat_pair over alpha.

    Coarse scan over |alpha| <= 10(|y| + x) at step |y|/200, then
    golden-section refinement to 1e-10 in alpha.  Returns
    (inf_value, argmin_alpha).
    """
    if cfg.lam == 0.0:
        return 1.0, 0.0
    span = 10.0 * (abs(cfg.y) + cfg.x)
    step = abs(cfg.y) / 200.0
    grid = np.arange(-span, span + step, step)
    vals = a1_flat_pair(grid, cfg)
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    res = minimize_scalar(lambda a: float(a1_flat_pair(a, cfg)),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    if res.fun <= vals[i]:
        return float(res.fun), float(res.x)
    return float(vals[i]), float(grid[i])


def crossing_depth(lam):
    """Depth |y_c| = (lam^2 / 4 pi^2)^(1/3) at which gamma reaches 4."""
    if lam == 0.0:
        raise ValueError("crossing depth undefined for zero strength")
    return float((lam * lam / (4.0 * np.pi ** 2)) ** (1.0 / 3.0))


def stability_profile(cfg):
    """Bundle gamma, the exact minimum, and the crossing depth for cfg."""
    gamma = cfg.lam ** 2 / (np.pi ** 2 * abs(cfg.y) ** 3)
    inf_value, argmin = inf_a1_flat(cfg)
    return StabilityProfile(gamma=gamma, inf_value=inf_value,
                            argmin_alpha=argmin,
                            crossing_depth=crossing_depth(cfg.lam) if cfg.lam else np.nan)


# ----------------------------------------------------------------------
# residue-integral oracles

def residue_pair_integral(w1, w2):
    """integral db / ((b - w1)(b - conj(w2))) = 2 pi i / (conj(w2) - w1)
    for w1, w2 strictly in the lower half-plane (single residue above)."""
    if np.imag(w1) >= 0 or np.imag(w2) >= 0:
        raise ValueError("both points must lie strictly below the real line")
    return 2.0j * np.pi / (np.conj(w2) - w1)


def residue_pair_integral_quad(w1, w2):
    """Adaptive-quadrature companion of :func:`residue_pair_integral`,
    integrating over the whole real line."""
    if np.imag(w1) >= 0 or np.imag(w2) >= 0:
        raise ValueError("both points must lie strictly below the real line")
    w2c = np.conj(w2)

    def integrand(b, part):
        v = 1.0 / ((b - w1) * (b - w2c))
        return v.real if part == "re" else v.imag

    re, _ = quad(integrand, -np.inf, np.inf, args=("re",), epsabs=1e-11, limit=400)
    im, _ = quad(integrand, -np.inf, np.inf, args=("im",), epsabs=1e-11, limit=400)
    return complex(re, im)


def interaction_sum(vortices, alpha):
    """Closed form of (1/2pi) * integral |Qbar(a) - Qbar(b)|^2/(a-b)^2 db
    for the flat-interface vortex trace:

        sum_{j,k} (lam_j lam_k / 4 pi^2) * 1/((a - z_j) conj(a - z_k))
                  * i/(conj(z_k) - z_j).

    ``vortices`` is a sequence of (position, strength) pairs with every
    position strictly below the real line; the result is a real array
    over ``alpha``.
    """
    alpha = np.asarray(alpha, dtype=float)
    out = np.zeros(alpha.shape, dtype=np.complex128)
    for zj, lj in vortices:
        if np.imag(zj) >= 0:
            raise ValueError("vortex %s is not strictly below the interface" % zj)
    for zj, lj in vortices:
        for zk, lk in vortices:
            coupling = 1.0j / (np.conj(zk) - zj)
            out += (lj * lk / (4.0 * np.pi ** 2)) * coupling / ((alpha - zj) * np.conj(alpha - zk))
    assert np.max(np.abs(out.imag)) <= 1e-10 * max(np.max(np.abs(out.real)), 1e-300)
    return out.real
