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

The minimum over a is closed-form too.  A1 depends on a only through
u = a^2; with u = r^2 v, r^2 = x^2 + y^2, p = x^2/r^2, q = y^2/r^2 and
k = x^2/4y^2,

    A1 - 1 = (lam^2 |y| / pi^2 r^4) * (k n2/d - n1/d^2),
    n1 = 3v^2 + 2v + 3p - q,  n2 = v + p + 5q,  d = v^2 + 2(q - p)v + 1,

so dA1/dv = 0, multiplied by d^3, is one quartic in v,
k (n2' d - n2 d') d - (n1' d - 2 n1 d') = 0, whose coefficients depend on
x/|y| alone.  A1 -> 1 as |a| -> inf, and at a = r the bracket is
-(4 - 2p + 4p^2)/16q^2 < 0, so for lam != 0 the minimum is attained at
u = 0 or at a stationary point.  The candidates are therefore a = 0 and
a = r sqrt(max(Re v, 0)) for each of the quartic's four roots v; a complex
or negative root still gives a real a, which can only lose the comparison.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad


@dataclass
class PairConfig:
    """Symmetric counter-rotating pair: half-separation x > 0, depth y < 0,
    strength lam (left vortex +lam, right vortex -lam).  The fields may be
    arrays that broadcast together, one pair per element."""

    x: float
    y: float
    lam: float

    def __post_init__(self):
        if np.any(self.x <= 0):
            raise ValueError("x must be positive")
        if np.any(self.y >= 0):
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
    """Global minimum of a1_flat_pair over alpha, as (inf_value, argmin_alpha)
    with argmin_alpha >= 0: the one-row case of :func:`inf_a1_flat_rows`."""
    inf_value, argmin = inf_a1_flat_rows(cfg.x, cfg.y, cfg.lam)
    return float(inf_value), float(argmin)


def inf_a1_flat_rows(x, y, lam):
    """Global minimum of a1_flat_pair over alpha for every row of x, y and
    lam, which broadcast together; returns (inf, argmin) arrays with
    argmin >= 0.

    The stationary points are the roots of the quartic in v = alpha^2/r^2 of
    the module docstring, taken for all rows in one ``eigvals`` call on a
    stack of companion matrices; the quartic depends on x and y only, so
    there is one per row of (x, y).  A1 is evaluated at alpha = 0 and at each
    root's alpha, and the smallest value wins (alpha = 0 on a tie, so a row
    with lam = 0, where A1 = 1 everywhere, gives (1, 0)).
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    lam = np.asarray(lam, dtype=float)
    r2 = x * x + y * y
    p, q, k = x * x / r2, y * y / r2, x * x / (4.0 * y * y)
    s, e, m = q - p, 3.0 * p - q, p + 5.0 * q
    # d = v^2 + 2sv + 1; n1'd - 2 n1 d' = -6v^3 - 6v^2 + (6 - 4s - 4e)v + 2 - 4es
    # and n2'd - n2 d' = -v^2 - 2mv + c; highest power first:
    c = 1.0 - 2.0 * m * s
    quartic = np.stack([-k,
                        6.0 - 2.0 * k * (s + m),
                        6.0 + k * (c - 1.0 - 4.0 * m * s),
                        2.0 * k * (s * c - m) - 6.0 + 4.0 * (s + e),
                        k * c - 2.0 + 4.0 * e * s], axis=-1)
    companion = np.zeros(x.shape + (4, 4))
    companion[..., 0, :] = -quartic[..., 1:] / quartic[..., :1]
    companion[..., 1, 0] = companion[..., 2, 1] = companion[..., 3, 2] = 1.0
    v = np.linalg.eigvals(companion).real
    alpha = np.sqrt(r2[..., None] * np.maximum(v, 0.0))
    alpha = np.concatenate([np.zeros(x.shape + (1,)), alpha], axis=-1)
    values = a1_flat_pair(alpha, PairConfig(x[..., None], y[..., None], lam[..., None]))
    i = np.argmin(values, axis=-1)[..., None]
    argmin = np.take_along_axis(np.broadcast_to(alpha, values.shape), i, axis=-1)
    return np.take_along_axis(values, i, axis=-1)[..., 0], argmin[..., 0]


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
