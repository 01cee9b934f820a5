"""Assembly of the derived quantities of the wave + point-vortex system.

State is (W, U, z, lam, t): W and U are the real parts of the interface
displacement Z - alpha and of the velocity trace F, z and lam the (m,)
arrays of vortex positions and strengths.  W and U extend to boundary
values of functions holomorphic below the interface, so

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

A stage runs on plain arrays.  :func:`rhs` maps the stage layout
y = (w_hat, u_hat, z), the half spectra of W and U and the positions,
with the strengths lam to its time derivative in the same layout,
through the :class:`Derived` record of :func:`derive`; every helper below
takes and returns arrays.  The record is the one derived type of a run:
the steppers, the CFL guard and the monitor of :mod:`vortexwavelab.sim`
read it.  :class:`WaveState` wraps W and U as Fields (a stepper's as the
Fields of their half spectra), and :func:`assemble` returns a state's record
as :class:`DerivedFields`, a namedtuple of the same names with a Field over
each sampled array, for callers that read Fields.  Every vortex term is
array algebra over the (m, n) stacks of the periodized pole kernels, taken
from one complex exponential over the grid (:func:`pole_kernels`).

A stage (:func:`derive` then the low-pass of :func:`rhs`) makes 14 real
transforms, with or without vortices, counting a complex n-point
transform as 2, in 7 calls, three passes ordered by what each needs:

1. 4 complex transforms, one ``fft`` each for Z, Z_a, F and F_a, from
   the spectra the steppers carry (:func:`reconstruct`): each trace is
   one-sided, so it is the transform of one half spectrum, with no real
   rows to interleave; a zero W or U spectrum saves its 2 transforms (a
   C05 derivation, with W = U = 0 and the pair, makes 4 real transforms
   in 2 calls);
2. after the pole kernels, 2 rows forward and back in one
   :func:`spectral.apply_multiplier` pass of :func:`derive`: C Im g for
   b and C Re P for A1;
3. 2 rows forward: the half spectra of dW/dt and dU/dt, which the
   half-band mask low-passes and the stage returns (:func:`rhs`).

The pole-kernel stacks and the second pass write into the grid's
workspace (:meth:`GridSpec.workspace`): the stacks ask first, for 3 m n
values, more than the pass's 2 (n + 1) with any vortex, so it does not
grow on a later pass.  Views of it stay inside this module: every array
of :class:`Derived` and every slope of :func:`rhs` is its own.

b and A1 are each one part of (I - H), which is I + C on real parts
(H = iC), applied to one pointwise product:

    b  = Re g + C Im g + <U>,        g = DtZ / Z_a,
    A1 = 1 - Im P + C Re P,          P = DtZ F_a + Z_a DtQ,

<U> the interval mean of U; without vortices A1 is Wu's
1 - Im (I - H)[DtZ F_a].

*b.*  b minus h + conj(F), h = DtZ (1/Z_a - 1) + conj(Q), must be the
boundary value of a function holomorphic below and decaying, annihilated
by (I - H)/2 up to its mean, so b = Re h + C Im h + 2U.  DtZ = conj(F + Q)
gives h = g - conj(F), Im h = Im g + CU, and C C U = -(U - <U>) for a U
with no Nyquist mode, as every stage's U is low-passed (b leaves out a
Nyquist mode of U, as its defining property asks).

*A1.*  In its definition (:func:`compute_A1`) the squared-difference
integral is Re{conj(DtZ) |D| DtZ} - |D||DtZ|^2 / 2, |D| = |d/da| = -C d/da,
and the vortex sum, with G1 = sum_j lam_j Z_a K2_j and
G2 = sum_j lam_j zdot_j Z_a K2_j, is Re{DtZ (I-H) G1} - Re G2 - C Im G2.
As d/da K1_j(Z) = -Z_a K2_j, Q_a = (i/2pi) G1; with |D|F = i F_a the
C G1 terms cancel, and Z_a DtQ = (i/2pi)(DtZ G1 - G2) leaves
A1 = 1 - Im P - |D||DtZ|^2 / 2 + (1/2pi) C Im G2.  As F_a + Q_a = d/da
conj(DtZ), Re P = (1/2) d/da |DtZ|^2 + (1/2pi) Im G2, whose C is that
rest: C d/da = -|D| but at the Nyquist mode, where C is 0.

:func:`b_residual` measures how well b meets that defining property,
from h and conj(F) recomputed out of the record, not from g
(formula-convention independent, which is the point), by Parseval from
one forward complex transform (2 real).  It,
:func:`chord_arc_constant` and :func:`refine_minimum` (the refined
minimum of A1) are plain functions over a record's arrays, which only
the monitor calls, so right-hand-side stages never pay for them.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteStateError, VortexProximityError
from .grid import Field, check_same_grid
from .spectral import MIN_SPACINGS, apply_multiplier

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Vortex:
    """Point vortex: complex position (strictly below the interface) and
    signed strength; the input form of a :class:`WaveState`'s vortices."""

    position: complex
    strength: float


class WaveState:
    """Full dynamical state: the real fields W and U, the vortex positions
    (complex) and strengths (float) as (m,) arrays, and the time t.

    The vortices come as a sequence of :class:`Vortex`, or as the arrays
    ``positions`` and ``strengths`` of one shape, which the state keeps
    without a copy when they are complex128 and float64.  ``carry`` is
    what the step that returned the state left for the next one
    (:class:`sim.PicardCarry`), None for any other state.
    """

    def __init__(self, W, U, vortices=(), t=0.0, *, positions=None, strengths=None,
                 carry=None):
        check_same_grid(W, U)
        if W.is_complex or U.is_complex:
            raise ValueError("W and U must be real fields")
        if positions is None:
            positions = [v.position for v in vortices]
            strengths = [v.strength for v in vortices]
        positions = np.asarray(positions, dtype=np.complex128)
        if strengths is None or np.shape(strengths) != positions.shape:
            raise ValueError("strengths must be given with positions, in their shape %s"
                             % (positions.shape,))
        strengths = np.asarray(strengths, dtype=np.float64)
        self.W, self.U, self.t = W, U, t
        self.positions, self.strengths = positions, strengths
        self.carry = carry

    @property
    def grid(self):
        return self.W.grid

    @property
    def arrays(self):
        """The stage layout (w_hat, u_hat, z) of :func:`rhs`."""
        return self.W.fft, self.U.fft, self.positions


# The derived arrays of one state, as a stage computes them (:func:`derive`):
# complex Z to DtQ, float b to G, the (m,) vortex velocities and the
# vortex-interface distance.
Derived = namedtuple("Derived", "Z Z_alpha F_alpha F Q DtZ DtQ b A1 A G zdots d_I")
# The same record for callers that read Fields (:func:`assemble`): Z to G as
# Fields over its arrays, zdots and d_I as they are.
DerivedFields = namedtuple("DerivedFields", Derived._fields)


def reconstruct(grid, w_hat, u_hat):
    """(Z, F, Z_alpha, F_alpha) from the half spectra of W and U, one
    complex transform each: with H = iC and C d/da = -|d/da| = -|D|,

        Z - alpha = (I + H) W,  F = (I + H) U,  Z_a = 1 + d/da (I + H) W,  F_a = d/da (I + H) U.

    The plus sign in (I + H) is forced: with the -sgn(k) multiplier it
    projects onto k <= 0 modes, exactly the boundary values of functions
    holomorphic below the interface, so (I - H)(Z - alpha) vanishes.  So
    each trace is the forward ``fft`` of a one-sided spectrum (:func:`_trace`),
    the same as W + iCW and dW/da - i|D|W to round-off.
    Raises NonFiniteStateError when a spectrum is not finite, as every
    mode is once one sample is.

    A zero spectrum (held, or transformed from zero samples, -0.0
    included) transforms nothing: a zero W gives Z = alpha and Z_a = 1
    exactly and a zero U gives F = F_a = 0, while the other field's two
    arrays keep their bits.  Either way the four arrays returned are new.
    """
    if not (np.all(np.isfinite(w_hat)) and np.all(np.isfinite(u_hat))):
        raise NonFiniteStateError("non-finite W or U")
    n = grid.n_points
    if np.any(w_hat):
        Z, Z_alpha = _trace(grid, w_hat)
        Z.real += grid.alpha
        Z_alpha.real += 1.0
    else:
        Z, Z_alpha = grid.alpha.astype(np.complex128), np.ones(n, dtype=np.complex128)
    if np.any(u_hat):
        F, F_alpha = _trace(grid, u_hat)
    else:
        F, F_alpha = np.zeros(n, dtype=np.complex128), np.zeros(n, dtype=np.complex128)
    return Z, F, Z_alpha, F_alpha


def _trace(grid, f_hat):
    """(I + H) f and its a-derivative, each a new complex array, from the
    half spectrum f_hat of the real f.  (I + H) f has the modes -k of f
    doubled, its mean and the unpaired Nyquist mode once, and nothing at
    k > 0, so it is (1/n) sum_m v_m exp(-i k_m a) over the half spectrum
    v = conj(f_hat) so weighted: the forward ``fft`` of v, zero-padded to
    n.  Its derivative takes v times -ik.  The mean and Nyquist modes
    enter by their real parts, as ``irfft`` reads them."""
    n = grid.n_points
    v = np.conj(f_hat)
    v[1:-1] *= 2.0
    v[0], v[-1] = v[0].real, v[-1].real
    f = np.fft.fft(v, n, norm="forward")
    v *= grid.ik
    np.negative(v, out=v)
    return f, np.fft.fft(v, n, norm="forward")


def interface_distance(Z, z):
    """min over the samples Z and the positions z of |Z(a) - z_j|; inf for no z.
    The nearest pair is found from the squared distances (dRe)^2 + (dIm)^2,
    and only its distance is taken as the ``np.abs`` of a complex difference."""
    if not len(z):
        return np.inf
    # one (2, m, n) block: two (m, n) arrays freed beside the stage's own left
    # heap holes that the next stage faulted in again (twice the minor faults)
    dx, dy = np.empty((2, len(z), len(Z)))
    np.subtract(Z.real, z.real[:, None], out=dx)
    np.subtract(Z.imag, z.imag[:, None], out=dy)
    j, i = np.unravel_index(np.argmin(_sum_of_squares(dx, dy)), dx.shape)
    return float(np.abs(Z[i] - z[j]))


def chord_arc_constant(grid, Z):
    """min over sampled pairs of |Z(a) - Z(b)| / |a - b|, Z the samples.

    Pairs are taken at every separation s*h with s a power of two (all
    offsets at each separation), which resolves self-approach at any
    scale without the O(n^2) full search.  At each separation the nearest
    pair is found from the squared distances (dRe)^2 + (dIm)^2, and only
    its distance is taken as the ``np.abs`` of a complex difference.
    """
    n = grid.n_points
    x, y = np.ascontiguousarray(Z.real), np.ascontiguousarray(Z.imag)
    dx, dy = np.empty((2, n))
    best = np.inf
    s = 1
    while s <= n // 2:
        i = int(np.argmin(_sum_of_squares(np.subtract(x[s:], x[:-s], out=dx[:n - s]),
                                          np.subtract(y[s:], y[:-s], out=dy[:n - s]))))
        best = min(best, float(np.abs(Z[i + s] - Z[i])) / (s * grid.spacing))
        s *= 2
    return best


def _sum_of_squares(dx, dy):
    """dx^2 + dy^2, written into dx (dy is overwritten too)."""
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def b_residual(grid, d):
    """||P_-( b - DtZ(1/Z_a - 1) - conj(Q) - conj(F) )||_L2 of the record
    d, with P_- = (I - H)/2 minus its interval mean, which annihilates
    decaying boundary values of lower-half-plane holomorphic functions; at
    most 1e-6 * (1 + ||b||_L2) for a trustworthy b.  It keeps the defining
    form, recomputed from the record, not the g = DtZ / Z_a that
    :func:`derive` builds b from, so it checks b independently: a wrong g
    in b shows here.

    P_- keeps the k > 0 modes of the residual and half its Nyquist mode, so
    by Parseval the norm is that power of one forward ``fft`` of the
    residual, with no inverse transform."""
    # r is named: numpy would multiply into the temporary 1/Z_a - 1 as r * DtZ,
    # and its complex product is not commutative bit for bit
    r = 1.0 / d.Z_alpha - 1.0
    resid = d.b - d.DtZ * r - np.conj(d.Q) - np.conj(d.F)
    n, half = grid.n_points, grid.n_points // 2
    spectrum = np.fft.fft(resid)
    power = np.sum(np.square(spectrum[1:half].view(np.float64))) + 0.25 * abs(spectrum[half]) ** 2
    return float(np.sqrt(grid.spacing / n * power))


def pole_kernels(grid, Z, z):
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

    K2, the scratch 1/(e - 1) and K1 are the first 3 m n values of the
    grid's workspace, valid until the next stacked pass on the grid.
    """
    m, n = len(z), grid.n_points
    s = np.pi / (2.0 * grid.half_length)
    e, r, K1 = grid.workspace(3 * m * n)[:3 * m * n].reshape(3, m, n)
    np.multiply(np.exp(2j * s * Z), np.exp(-2j * s * z)[:, None], out=e)
    np.subtract(e, 1.0, out=r)
    np.reciprocal(r, out=r)
    r *= 1j * s                          # is/(e - 1)
    np.add(e, 1.0, out=K1)
    K1 *= r
    e *= r
    e *= r
    e *= 4.0                             # 4e (is/(e - 1))^2
    return K1, e


def combine(weights, stack):
    """sum_j weights_j stack_j over the rows of an (m, n) stack, summed
    in row order from the first row's product into a new array (zeros for
    no rows).  Not ``weights @ stack``: OpenBLAS runs that vector-matrix
    product on all cores above a few thousand points, doubling the CPU of
    ``vwl run``."""
    if not len(stack):
        return np.zeros(stack.shape[1], dtype=np.complex128)
    total = np.multiply(weights[0], stack[0])
    for w, row in zip(weights[1:], stack[1:]):
        total += w * row
    return total


def compute_Q(lam, K1):
    """Q = -sum_j (lam_j i / 2 pi) / (Z - z_j), K1 from :func:`pole_kernels`."""
    return combine(lam * -1j / TWO_PI, K1)


def vortex_velocity(grid, F, Z_alpha, z, lam, K1):
    """The (m,) vortex velocities

        zdot_j = conj(U(z_j)) + sum_{k != j} (lam_k i / 2 pi) / conj(z_j - z_k).

    U(z_j) is the Cauchy integral of :func:`spectral.cauchy_velocity`,
    whose periodized kernel 1/(z_j - Z) is exactly -K1_j: one product of
    K1 with Z_a F for all m.  The (m, m) mutual-induction matrix keeps the
    plain 1/conj(dz) form (point evaluation, no periodization): for the
    symmetric pair with no wave it reduces to lam i / (4 pi x) exactly.
    """
    u = -(K1 @ (Z_alpha * F)) * grid.spacing / (2.0j * np.pi)
    m = len(z)
    mutual = np.divide(lam * 1j, TWO_PI * np.conj(z[:, None] - z),
                       out=np.zeros((m, m), dtype=np.complex128),
                       where=~np.eye(m, dtype=bool))
    return np.conj(u) + mutual.sum(axis=1)


def compute_DtQ(DtZ, lam, zdots, K2):
    """DtQ from two combinations of the kernel stack K2:

        DtQ = sum_j (lam_j i / 2 pi) (DtZ - zdot_j) K2_j = (i / 2 pi)(DtZ S1 - S2),

    S1 = sum_j lam_j K2_j and S2 = sum_j lam_j zdot_j K2_j; zeros without
    vortices.
    """
    S1 = combine(lam, K2)
    S2 = combine(lam * zdots, K2)
    return (1j / TWO_PI) * (DtZ * S1 - S2)


def compute_b(g, c_im_g, mean_u):
    """Transport coefficient

        b = Re (I-H)[DtZ (1/Z_a - 1) + conj(Q)] + 2 Re F,    Re F = U,

    as the one projection of g = DtZ / Z_a of the module docstring,
    b = Re g + C Im g + <U>, with C Im g from the projection pass of
    :func:`derive` and ``mean_u`` the interval mean <U>.  How well b
    meets its defining property is :func:`b_residual`.
    """
    return g.real + c_im_g + mean_u


def compute_A1(P, c_re_p):
    """Taylor-sign coefficient

         A1 = 1 + (1/2pi) int |DtZ(a) - DtZ(b)|^2/(a-b)^2 db
                - sum_j (lam_j/2pi) Re{ (I-H)[Z_a/(Z-z_j)^2] (DtZ - zdot_j) }

    as the one projection of P = DtZ F_a + Z_a DtQ of the module
    docstring, A1 = 1 - Im P + C Re P, with C Re P from the projection
    pass of :func:`derive`.
    """
    return 1.0 - P.imag + c_re_p


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


def derive(grid, w_hat, u_hat, z, lam):
    """The :class:`Derived` record of the state y = (w_hat, u_hat, z)
    with strengths lam; raises VortexProximityError when a vortex is too
    close to the interface for the quadratures to mean anything,
    NonFiniteStateError when W, U or a position is not finite."""
    if not np.all(np.isfinite(z)):
        raise NonFiniteStateError("non-finite vortex position")
    Z, F, Z_alpha, F_alpha = reconstruct(grid, w_hat, u_hat)
    d_I = interface_distance(Z, z)
    if d_I < MIN_SPACINGS * grid.spacing:
        raise VortexProximityError(
            "vortex within %.3g of the interface (< %g grid spacings)"
            % (d_I, MIN_SPACINGS))
    K1, K2 = pole_kernels(grid, Z, z)
    Q = compute_Q(lam, K1)
    DtZ = np.conj(F + Q)
    zdots = vortex_velocity(grid, F, Z_alpha, z, lam, K1)
    DtQ = compute_DtQ(DtZ, lam, zdots, K2)
    del K1, K2  # workspace views, which the stacked pass overwrites
    g = DtZ / Z_alpha
    P = DtZ * F_alpha + Z_alpha * DtQ
    c_im_g, c_re_p = apply_multiplier(grid, (grid.i_sgn,) * 2, rows=(g.imag, P.real))
    b = compute_b(g, c_im_g, u_hat[0].real / grid.n_points)
    A1 = compute_A1(P, c_re_p)
    return Derived(Z, Z_alpha, F_alpha, F, Q, DtZ, DtQ, b, A1,
                   A1 / np.abs(Z_alpha) ** 2, -DtQ.real, zdots, d_I)


def assemble(state):
    """The :class:`Derived` record of a state as :class:`DerivedFields`
    (the errors of :func:`derive`)."""
    grid = state.grid
    d = derive(grid, *state.arrays, state.strengths)
    return DerivedFields(*(Field(grid, a) for a in d[:-2]), d.zdots, d.d_I)


def rhs(grid, y, lam, record=None):
    """Time derivative of the stage layout y = (w_hat, u_hat, z) with
    strengths lam, in the same layout (the half spectra of dW/dt and
    dU/dt, and dz/dt), from the evolution

        d_t U = -b dU/da + A |d/da| W + G
        d_t W = -b dW/da + U + Re Q - b

    and the vortex ODEs, dz/dt the (m,) vortex velocities.  The
    W-equation is the real part of the kinematic identity
    d_t (Z - alpha) = conj(F) + conj(Q) - b Z_a.
    dW/da and |d/da| W are read off Z_a = 1 + (I + H) dW/da, as
    Re Z_a - 1 and -Im Z_a, U as Re F and dU/da as Re F_a.  Both time
    derivatives are low-passed to half the grid band (de-aliasing): one
    stacked ``rfft`` and the half-band mask, which zeroes the Nyquist mode.
    ``record`` is the :class:`Derived` record of y when the caller
    already has it, which spares the stage its :func:`derive`.
    """
    d = derive(grid, *y, lam) if record is None else record
    bs = d.b
    dW = -bs * (d.Z_alpha.real - 1.0) + d.F.real + d.Q.real - bs
    dU = -bs * d.F_alpha.real + d.A * -d.Z_alpha.imag + d.G
    spectra = np.fft.rfft((dW, dU))
    # two slopes of n/2 + 1 values fit the heap holes a stage leaves, one (2, n/2 + 1)
    # block does not: a step's slopes then pile onto the heap top, which glibc trims
    return spectra[0] * grid.half_band, spectra[1] * grid.half_band, d.zdots
