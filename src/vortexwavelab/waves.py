"""Assembly of the derived quantities of the wave + point-vortex system.

State is (W, U, vortices, t): W and U are the real parts of the interface
displacement Z - alpha and of the velocity trace F; both extend to
boundary values of functions holomorphic below the interface, so

    Z = alpha + (I + H) W,        F = (I + H) U.

From these the assembly derives, per state:

    Q      vortex-induced (conjugate) velocity trace,
    DtZ    full velocity trace conj(F) + conj(Q),
    zdot_j vortex velocities (mutual induction + wave-induced drift),
    DtQ    material derivative of Q,
    b      transport coefficient of the material derivative D_t = d_t + b d_a,
    A1     Taylor-sign coefficient (A1 < 0 somewhere = Rayleigh-Taylor
           unstable), with A = A1 / |Z_a|^2,
    G      the vortex forcing of U,

with one periodized kernel evaluation per vortex (:func:`pole_kernels`).

b is computed from its defining property: b minus the holomorphic pieces
(D_t Z (1/Z_a - 1) + conj(Q) + conj(F)) must itself be the boundary value
of a function holomorphic below and decaying, i.e. annihilated by the
projection (I - H)/2 up to its mean.  b_residual measures exactly that
(formula-convention independent, which is the point); it, chord_arc and
the refined minimum of A1 (inf_A1, argmin_alpha) are computed on first
read, so right-hand-side stages never pay for them.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteStateError, VortexProximityError
from .grid import Field, check_same_grid
from .spectral import (MIN_SPACINGS, analytic_projection, apply_multiplier, derivative,
                       lambda_op, low_pass, periodic_cauchy_kernel, pminus, sq_diff_integral)

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Vortex:
    """Point vortex: complex position (strictly below the interface) and
    signed strength."""

    position: complex
    strength: float


@dataclass
class WaveState:
    """Full dynamical state (W, U, vortices, t)."""

    W: Field
    U: Field
    vortices: tuple
    t: float = 0.0

    def __post_init__(self):
        check_same_grid(self.W, self.U)
        self.vortices = tuple(self.vortices)

    @property
    def grid(self):
        return self.W.grid


@dataclass
class DerivedFields:
    """Everything computable from one state, assembled in a single pass
    and read-only afterwards.  The diagnostics ``b_residual``,
    ``chord_arc``, ``inf_A1`` and ``argmin_alpha`` are computed on first
    read."""

    Z: Field
    Z_alpha: Field
    F: Field
    Q: Field
    DtZ: Field
    DtQ: Field
    b: Field
    A1: Field
    A: Field
    G: Field
    zdots: tuple
    d_I: float

    @cached_property
    def b_residual(self):
        """||P_-( b - DtZ(1/Z_a - 1) - conj(Q) - conj(F) )||_L2; at most
        1e-6 * (1 + ||b||_L2) for a trustworthy b."""
        g = 1.0 / self.Z_alpha.samples - 1.0
        resid = (self.b.samples - self.DtZ.samples * g
                 - np.conj(self.Q.samples) - np.conj(self.F.samples))
        return pminus(Field(self.b.grid, resid)).l2_norm()

    @cached_property
    def chord_arc(self):
        return chord_arc_constant(self.Z)

    @cached_property
    def _A1_minimum(self):
        """(argmin_alpha, inf_A1): the grid minimum of A1, refined."""
        return refine_minimum(self.A1.grid.alpha, self.A1.samples)

    argmin_alpha = property(lambda self: self._A1_minimum[0])
    inf_A1 = property(lambda self: self._A1_minimum[1])


def reconstruct(W, U):
    """(Z, F, Z_alpha) from the real parts W, U and their cached spectra:
    with H = iC, Z - alpha = W + iCW, F = U + iCU, Z_a = 1 + W_a - i|D|W.

    The plus sign in (I + H) is forced: with the -sgn(k) multiplier it
    projects onto k <= 0 modes, exactly the boundary values of functions
    holomorphic below the interface, so (I - H)(Z - alpha) vanishes.
    """
    grid = check_same_grid(W, U)
    if not (np.all(np.isfinite(W.samples)) and np.all(np.isfinite(U.samples))):
        raise NonFiniteStateError("W and U must be finite")
    if np.iscomplexobj(W.samples) or np.iscomplexobj(U.samples):
        raise ValueError("W and U must be real fields")
    Z = Field(grid, grid.alpha + W.samples + 1j * apply_multiplier(W, grid.i_sgn).samples)
    F = Field(grid, U.samples + 1j * apply_multiplier(U, grid.i_sgn).samples)
    Z_alpha = Field(grid, 1.0 + derivative(W).samples - 1j * lambda_op(W).samples)
    return Z, F, Z_alpha


def interface_distance(Z, vortices):
    """min over grid nodes and vortices of |Z(a) - z_j|."""
    if not vortices:
        return np.inf
    return float(min(np.min(np.abs(Z.samples - v.position)) for v in vortices))


def chord_arc_constant(Z):
    """min over sampled pairs of |Z(a) - Z(b)| / |a - b|.

    Pairs are taken at every separation s*h with s a power of two (all
    offsets at each separation), which resolves self-approach at any
    scale without the O(n^2) full search.
    """
    grid = Z.grid
    best = np.inf
    s = 1
    while s <= grid.n_points // 2:
        d = np.abs(Z.samples[s:] - Z.samples[:-s]) / (s * grid.spacing)
        best = min(best, float(np.min(d)))
        s *= 2
    return best


def pole_kernels(Z, vortices):
    """Per vortex, the periodized K1_j = 1/(Z - z_j) and, from the same
    evaluation, K2_j = 1/(Z - z_j)^2 = s^2 + K1_j^2 (csc^2 = 1 + cot^2)."""
    s2 = (np.pi / (2.0 * Z.grid.half_length)) ** 2
    K1 = [periodic_cauchy_kernel(Z.samples - v.position, Z.grid.half_length)
          for v in vortices]
    return K1, [s2 + k1 * k1 for k1 in K1]


def compute_Q(Z, vortices, K1):
    """Q = -sum_j (lam_j i / 2 pi) / (Z - z_j), K1 from :func:`pole_kernels`."""
    out = np.zeros(Z.grid.n_points, dtype=np.complex128)
    for v, k1 in zip(vortices, K1):
        out -= (v.strength * 1j / TWO_PI) * k1
    return Field(Z.grid, out)


def vortex_velocity(Z, F, Z_alpha, vortices, j, K1j):
    """zdot_j = conj(U(z_j)) + sum_{k != j} (lam_k i / 2 pi) / conj(z_j - z_k).

    U(z_j) is the Cauchy integral of :func:`spectral.cauchy_velocity`,
    whose periodized kernel 1/(z_j - Z) is exactly -K1_j.  The
    mutual-induction part keeps the plain 1/conj(dz) form (point
    evaluation, no periodization): for the symmetric pair with no wave it
    reduces to lam i / (4 pi x) exactly.
    """
    zj = vortices[j].position
    u = np.sum(Z_alpha.samples * F.samples * -K1j) * Z.grid.spacing / (2.0j * np.pi)
    total = np.conj(u)
    for k, v in enumerate(vortices):
        if k != j:
            total += v.strength * 1j / (TWO_PI * np.conj(zj - v.position))
    return complex(total)


def compute_DtQ(Z, DtZ, vortices, zdots, K2):
    """DtQ = sum_j (lam_j i / 2 pi) (DtZ - zdot_j) / (Z - z_j)^2."""
    out = np.zeros(Z.grid.n_points, dtype=np.complex128)
    for v, zd, k2 in zip(vortices, zdots, K2):
        out += (v.strength * 1j / TWO_PI) * (DtZ.samples - zd) * k2
    return Field(Z.grid, out)


def compute_b(U, Q, DtZ, Z_alpha):
    """Transport coefficient

        b = Re (I-H)[DtZ (1/Z_a - 1) + conj(Q)] + 2 Re F,    Re F = U,

    one projection of the summed holomorphic pieces h, as Re h + C Im h.
    How well b meets its defining property is :attr:`DerivedFields.b_residual`.
    """
    h = DtZ.samples * (1.0 / Z_alpha.samples - 1.0) + np.conj(Q.samples)
    c_im = apply_multiplier(Field(U.grid, h.imag), U.grid.i_sgn).samples
    return Field(U.grid, h.real + c_im + 2.0 * U.samples)


def compute_A1(Z, Z_alpha, DtZ, vortices, zdots, K2):
    """Taylor-sign coefficient

         A1 = 1 + (1/2pi) int |DtZ(a) - DtZ(b)|^2/(a-b)^2 db
                - sum_j (lam_j/2pi) Re{ (I-H)[Z_a/(Z-z_j)^2] (DtZ - zdot_j) }.
    """
    grid = Z.grid
    out = 1.0 + sq_diff_integral(DtZ).samples
    for v, zd, k2 in zip(vortices, zdots, K2):
        proj = analytic_projection(Field(grid, Z_alpha.samples * k2)).samples
        out -= (v.strength / TWO_PI) * (proj * (DtZ.samples - zd)).real
    return Field(grid, out)


def refine_minimum(alpha, values):
    """Parabolic refinement of the grid minimum through three points.

    Where the minimum lies at alpha < 0 and the mirror node (alpha -> -alpha)
    ties it to round-off, as for the even A1 of an odd state, the mirror of
    the refined point is returned, so round-off does not pick the sign.
    """
    n = len(values)
    i = int(np.argmin(values))
    sign = 1.0
    if alpha[i] < 0 and values[(n - i) % n] - values[i] <= 1e-12 * np.max(np.abs(values)):
        sign = -1.0
    im, ip = (i - 1) % n, (i + 1) % n
    fm, f0, fp = values[im], values[i], values[ip]
    denom = fp - 2.0 * f0 + fm
    if denom <= 0:
        return sign * float(alpha[i]), float(f0)
    shift = 0.5 * (fm - fp) / denom
    shift = float(np.clip(shift, -1.0, 1.0))
    h = alpha[1] - alpha[0]
    a_star = alpha[i] + shift * h
    f_star = f0 - 0.125 * (fm - fp) ** 2 / denom
    return sign * float(a_star), float(f_star)


def assemble(state):
    """One derived-field pass over a state; raises VortexProximityError
    when a vortex is too close to the interface for the quadratures to
    mean anything, NonFiniteStateError when W or U is not finite."""
    W, U, vortices = state.W, state.U, state.vortices
    grid = state.grid
    Z, F, Z_alpha = reconstruct(W, U)
    d_I = interface_distance(Z, vortices)
    if d_I < MIN_SPACINGS * grid.spacing:
        raise VortexProximityError(
            "vortex within %.3g of the interface (< %g grid spacings)"
            % (d_I, MIN_SPACINGS))
    K1, K2 = pole_kernels(Z, vortices)
    Q = compute_Q(Z, vortices, K1)
    DtZ = Field(grid, np.conj(F.samples) + np.conj(Q.samples))
    zdots = tuple(vortex_velocity(Z, F, Z_alpha, vortices, j, K1[j])
                  for j in range(len(vortices)))
    DtQ = compute_DtQ(Z, DtZ, vortices, zdots, K2)
    b = compute_b(U, Q, DtZ, Z_alpha)
    A1 = compute_A1(Z, Z_alpha, DtZ, vortices, zdots, K2)
    A = Field(grid, A1.samples / np.abs(Z_alpha.samples) ** 2)
    G = Field(grid, -DtQ.samples.real)
    return DerivedFields(Z=Z, Z_alpha=Z_alpha, F=F, Q=Q, DtZ=DtZ, DtQ=DtQ,
                         b=b, A1=A1, A=A, G=G, zdots=zdots, d_I=d_I)


def rhs(state, derived=None):
    """Time derivatives (dW/dt, dU/dt, [dz_j/dt]) of the evolution

        d_t U = -b dU/da + A |d/da| W + G
        d_t W = -b dW/da + U + Re Q - b

    plus the vortex ODEs.  The W-equation is the real part of the
    kinematic identity d_t (Z - alpha) = conj(F) + conj(Q) - b Z_a.
    dW/da and |d/da| W are read off the assembled Z_a = 1 + (I + H) dW/da,
    as Re Z_a - 1 and -Im Z_a.  ``derived`` may be passed in when the
    caller already assembled this state.
    """
    if derived is None:
        derived = assemble(state)
    Z_alpha = derived.Z_alpha.samples
    dU_a = derivative(state.U).samples
    bs = derived.b.samples
    dU = Field(state.grid, -bs * dU_a + derived.A.samples * -Z_alpha.imag
               + derived.G.samples)
    dW = Field(state.grid, -bs * (Z_alpha.real - 1.0) + state.U.samples
               + derived.Q.samples.real - bs)
    # keep the evolved fields band-limited to half the grid band (de-aliasing)
    return low_pass(dW), low_pass(dU), list(derived.zdots)
