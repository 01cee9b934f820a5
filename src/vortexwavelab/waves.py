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
    G      the vortex forcing of U.

Inside a stage the m vortices are positions z and strengths lam, two (m,)
arrays, and every vortex term is array algebra over the (m, n) stacks of
the periodized pole kernels, taken from one complex exponential over the
grid (:func:`pole_kernels`).

A stage (:func:`assemble` then :func:`rhs`) runs its transforms in three
stacked passes of :func:`spectral.apply_multiplier`, ordered by what each
needs:

1. one inverse pass from the spectra of W and U, which the steppers carry:
   CW, dW/da, |d/da| W, CU and dU/da (:func:`reconstruct`);
2. after the pole kernels, one forward and one inverse pass over the rows
   C Im h (for b), |d/da| of Re DtZ, Im DtZ and |DtZ|^2 (the
   squared-difference integral of A1) and, with vortices, C of Re G1,
   Im G1 and Im G2 (the vortex term of A1) (:func:`stage_projections`);
3. one forward and one inverse pass that low-passes dW/dt and dU/dt
   (:func:`rhs`).

The vortex term of A1 takes two projections for any number of vortices:
(I - H) is complex linear and zdot_j is a constant, so with
G1 = sum_j lam_j Z_a K2_j and G2 = sum_j lam_j zdot_j Z_a K2_j,

    sum_j lam_j Re{(I-H)[Z_a K2_j] (DtZ - zdot_j)}
        = Re{DtZ (I-H) G1} - (Re G2 + C Im G2).

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
from .spectral import (MIN_SPACINGS, apply_multiplier, pminus, sq_diff_from_rows,
                       sq_diff_rows)

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

    @property
    def positions(self):
        """The vortex positions z, a complex (m,) array."""
        return np.array([v.position for v in self.vortices], dtype=np.complex128)

    @property
    def strengths(self):
        """The vortex strengths lam, a float (m,) array."""
        return np.array([v.strength for v in self.vortices], dtype=np.float64)


@dataclass
class DerivedFields:
    """Everything computable from one state, assembled in a single pass
    and read-only afterwards.  The diagnostics ``b_residual``,
    ``chord_arc``, ``inf_A1`` and ``argmin_alpha`` are computed on first
    read."""

    Z: Field
    Z_alpha: Field
    U_alpha: Field
    F: Field
    Q: Field
    DtZ: Field
    DtQ: Field
    b: Field
    A1: Field
    A: Field
    G: Field
    zdots: np.ndarray
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
    """(Z, F, Z_alpha, U_alpha) from the real parts W, U and their cached
    spectra, in one inverse pass of five rows: with H = iC,

        Z - alpha = W + iCW,  F = U + iCU,  Z_a = 1 + W_a - i|D|W,  U_a.

    The plus sign in (I + H) is forced: with the -sgn(k) multiplier it
    projects onto k <= 0 modes, exactly the boundary values of functions
    holomorphic below the interface, so (I - H)(Z - alpha) vanishes.
    """
    grid = check_same_grid(W, U)
    if not (np.all(np.isfinite(W.samples)) and np.all(np.isfinite(U.samples))):
        raise NonFiniteStateError("non-finite W or U")
    if np.iscomplexobj(W.samples) or np.iscomplexobj(U.samples):
        raise ValueError("W and U must be real fields")
    W_hat, U_hat = W.fft, U.fft
    out, _ = apply_multiplier(grid, (grid.i_sgn, grid.ik, grid.wavenumbers, grid.i_sgn, grid.ik),
                              spectra=(W_hat, W_hat, W_hat, U_hat, U_hat))
    c_w, w_a, lam_w, c_u, u_a = out
    Z = Field(grid, grid.alpha + W.samples + 1j * c_w)
    F = Field(grid, U.samples + 1j * c_u)
    Z_alpha = Field(grid, 1.0 + w_a - 1j * lam_w)
    return Z, F, Z_alpha, Field(grid, u_a.copy())  # a view would keep all five rows


def interface_distance(Z, z):
    """min over grid nodes and positions z of |Z(a) - z_j|; inf for no z."""
    return float(np.min(np.abs(Z.samples - z[:, None]), initial=np.inf))


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


def pole_kernels(Z, z):
    """The (m, n) stacks of the periodized K1_j = 1/(Z - z_j) and
    K2_j = 1/(Z - z_j)^2 at the positions z, from one complex exponential
    E = exp(2isZ), s = pi/2L, for all vortices.

    With e_j = E exp(-2is z_j) = exp(2is(Z - z_j)), cot = i(e + 1)/(e - 1)
    and 1/sin^2 = -4e/(e - 1)^2 give

        K1_j = is (e_j + 1)/(e_j - 1),    K2_j = -4 s^2 e_j/(e_j - 1)^2.

    A vortex below the curve has |exp(-2is z_j)| <= 1, so nothing
    overflows; a deep one gives e_j -> 0, K1_j -> -is and K2_j -> 0 with
    its relative accuracy kept.  Near the curve e_j - 1 cancels, with a
    relative error of about eps / |2s(Z - z_j)|.
    """
    s = np.pi / (2.0 * Z.grid.half_length)
    e = np.exp(2j * s * Z.samples) * np.exp(-2j * s * z)[:, None]
    r = np.subtract(e, 1.0)
    np.reciprocal(r, out=r)
    r *= 1j * s                          # is/(e - 1)
    K1 = e + 1.0
    K1 *= r
    e *= r
    e *= r
    e *= 4.0                             # 4e (is/(e - 1))^2
    return K1, e


def combine(weights, stack):
    """sum_j weights_j stack_j over the rows of an (m, n) stack.  Not
    ``weights @ stack``: OpenBLAS runs that vector-matrix product on all
    cores above a few thousand points, doubling the CPU of ``vwl run``."""
    return np.sum(weights[:, None] * stack, axis=0)


def compute_Q(Z, lam, K1):
    """Q = -sum_j (lam_j i / 2 pi) / (Z - z_j), K1 from :func:`pole_kernels`."""
    return Field(Z.grid, combine(lam * -1j / TWO_PI, K1))


def vortex_velocity(Z, F, Z_alpha, z, lam, K1):
    """The (m,) vortex velocities

        zdot_j = conj(U(z_j)) + sum_{k != j} (lam_k i / 2 pi) / conj(z_j - z_k).

    U(z_j) is the Cauchy integral of :func:`spectral.cauchy_velocity`,
    whose periodized kernel 1/(z_j - Z) is exactly -K1_j: one product of
    K1 with Z_a F for all m.  The (m, m) mutual-induction matrix keeps the
    plain 1/conj(dz) form (point evaluation, no periodization): for the
    symmetric pair with no wave it reduces to lam i / (4 pi x) exactly.
    """
    u = -(K1 @ (Z_alpha.samples * F.samples)) * Z.grid.spacing / (2.0j * np.pi)
    m = len(z)
    mutual = np.divide(lam * 1j, TWO_PI * np.conj(z[:, None] - z),
                       out=np.zeros((m, m), dtype=np.complex128),
                       where=~np.eye(m, dtype=bool))
    return np.conj(u) + mutual.sum(axis=1)


def compute_DtQ(Z_alpha, DtZ, lam, zdots, K2):
    """(DtQ, G1, G2) from two combinations of the kernel stack K2:

        DtQ = sum_j (lam_j i / 2 pi) (DtZ - zdot_j) K2_j = (i / 2 pi)(DtZ S1 - S2),

    S1 = sum_j lam_j K2_j and S2 = sum_j lam_j zdot_j K2_j, and the sums
    the vortex term of A1 projects, G1 = Z_a S1 and G2 = Z_a S2.
    """
    S1 = combine(lam, K2)
    S2 = combine(lam * zdots, K2)
    DtQ = Field(Z_alpha.grid, (1j / TWO_PI) * (DtZ.samples * S1 - S2))
    S1 *= Z_alpha.samples
    S2 *= Z_alpha.samples
    return DtQ, S1, S2


def stage_projections(h, DtZ, G1, G2, with_vortices):
    """The stacked pass of a stage after the pole kernels: the (7, n) array
    of the rows

        C Im h,   |D| Re DtZ,  |D| Im DtZ,  |D| |DtZ|^2,   C Re G1,  C Im G1,  C Im G2,

    one forward and one inverse transform for all of them; without
    vortices the last three rows are left out (G1 = G2 = 0).
    """
    grid = DtZ.grid
    rows = (h.imag,) + sq_diff_rows(DtZ.samples)
    multipliers = (grid.i_sgn,) + (grid.wavenumbers,) * 3
    if with_vortices:
        rows += (G1.real, G1.imag, G2.imag)
        multipliers += (grid.i_sgn,) * 3
    return apply_multiplier(grid, multipliers, rows=rows)[0]


def compute_b(U, h, c_im_h):
    """Transport coefficient

        b = Re (I-H)[DtZ (1/Z_a - 1) + conj(Q)] + 2 Re F,    Re F = U,

    one projection of the summed holomorphic pieces h, as Re h + C Im h,
    with C Im h from :func:`stage_projections`.  How well b meets its
    defining property is :attr:`DerivedFields.b_residual`.
    """
    return Field(U.grid, h.real + c_im_h + 2.0 * U.samples)


def compute_A1(DtZ, lam_rows, G1, G2, c_rows):
    """Taylor-sign coefficient

         A1 = 1 + (1/2pi) int |DtZ(a) - DtZ(b)|^2/(a-b)^2 db
                - sum_j (lam_j/2pi) Re{ (I-H)[Z_a/(Z-z_j)^2] (DtZ - zdot_j) }

    from the rows of :func:`stage_projections`: the |D| rows ``lam_rows``
    give the squared-difference integral, and the C rows ``c_rows`` (none
    without vortices) the vortex sum as
    Re{DtZ (I-H) G1} - (Re G2 + C Im G2), with
    (I-H) G1 = Re G1 + C Im G1 + i (Im G1 - C Re G1).
    """
    dtz = DtZ.samples
    out = 1.0 + sq_diff_from_rows(dtz, lam_rows)
    if len(c_rows):
        c_re_g1, c_im_g1, c_im_g2 = c_rows
        vortex = (dtz.real * (G1.real + c_im_g1) - dtz.imag * (G1.imag - c_re_g1)
                  - (G2.real + c_im_g2))
        out -= vortex / TWO_PI
    return Field(DtZ.grid, out)


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
    mean anything, NonFiniteStateError when W, U or a vortex position is
    not finite."""
    W, U, z, lam = state.W, state.U, state.positions, state.strengths
    if not np.all(np.isfinite(z)):
        raise NonFiniteStateError("non-finite vortex position at t=%g" % state.t)
    grid = state.grid
    Z, F, Z_alpha, U_alpha = reconstruct(W, U)
    d_I = interface_distance(Z, z)
    if d_I < MIN_SPACINGS * grid.spacing:
        raise VortexProximityError(
            "vortex within %.3g of the interface (< %g grid spacings)"
            % (d_I, MIN_SPACINGS))
    K1, K2 = pole_kernels(Z, z)
    Q = compute_Q(Z, lam, K1)
    DtZ = Field(grid, np.conj(F.samples) + np.conj(Q.samples))
    zdots = vortex_velocity(Z, F, Z_alpha, z, lam, K1)
    DtQ, G1, G2 = compute_DtQ(Z_alpha, DtZ, lam, zdots, K2)
    del K1, K2  # two (m, n) complex stacks, not kept through the stacked pass
    h = DtZ.samples * (1.0 / Z_alpha.samples - 1.0) + np.conj(Q.samples)
    proj = stage_projections(h, DtZ, G1, G2, len(z) > 0)
    b = compute_b(U, h, proj[0])
    A1 = compute_A1(DtZ, proj[1:4], G1, G2, proj[4:])
    A = Field(grid, A1.samples / np.abs(Z_alpha.samples) ** 2)
    G = Field(grid, -DtQ.samples.real)
    return DerivedFields(Z=Z, Z_alpha=Z_alpha, U_alpha=U_alpha, F=F, Q=Q, DtZ=DtZ, DtQ=DtQ,
                         b=b, A1=A1, A=A, G=G, zdots=zdots, d_I=d_I)


def rhs(state, derived=None):
    """Time derivatives (dW/dt, dU/dt, dz/dt) of the evolution

        d_t U = -b dU/da + A |d/da| W + G
        d_t W = -b dW/da + U + Re Q - b

    plus the vortex ODEs, dz/dt the (m,) array of vortex velocities.  The
    W-equation is the real part of the kinematic identity
    d_t (Z - alpha) = conj(F) + conj(Q) - b Z_a.
    dW/da and |d/da| W are read off the assembled Z_a = 1 + (I + H) dW/da,
    as Re Z_a - 1 and -Im Z_a, and dU/da is the assembled U_alpha.  Both
    time derivatives are low-passed to half the grid band (de-aliasing) in
    one stacked pass; the mask zeroes the Nyquist mode, so each filtered
    row carries its half spectrum.  ``derived`` may be passed in when the
    caller already assembled this state.
    """
    if derived is None:
        derived = assemble(state)
    grid = state.grid
    Z_alpha = derived.Z_alpha.samples
    bs = derived.b.samples
    dW = -bs * (Z_alpha.real - 1.0) + state.U.samples + derived.Q.samples.real - bs
    dU = -bs * derived.U_alpha.samples + derived.A.samples * -Z_alpha.imag + derived.G.samples
    out, spectra = apply_multiplier(grid, (grid.half_band,) * 2, rows=(dW, dU))
    return (Field.with_spectrum(grid, out[0], spectra[0]),
            Field.with_spectrum(grid, out[1], spectra[1]), derived.zdots)
