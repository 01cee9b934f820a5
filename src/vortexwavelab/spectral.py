"""Fourier-multiplier operators and singular quadratures on the periodic grid.

Every operator is one multiplier on a field's half spectrum.  The
one-field operators (ik, |k|, the half-band mask and C = i sgn(k), each
mapping real fields to real fields) return the Field of the product
spectrum, whose samples are transformed only when read.
:func:`apply_multiplier` is the stacked primitive: k real rows, each with
its own multiplier, go through one stacked ``rfft`` (unless their half
spectra are already known) and one stacked ``irfft``, in the grid's
workspace (:meth:`GridSpec.workspace`).  A right-hand side stage stacks
its rows through it (see :mod:`vortexwavelab.waves`), and so do the
singular quadratures: their trapezoid sums over a periodized kernel are
circular convolutions, one pass each, in which a field's own parts enter
as its cached half spectrum and only product rows are transformed.
The Hilbert transform H = iC is the multiplier -sgn(k), zero on the mean
and Nyquist modes.  With the transform convention fhat(k) = integral
f exp(-i k a), boundary values of functions holomorphic in the lower
half-plane and decaying there carry only k <= 0 modes, so they are fixed
points of H; upper-half-plane boundary values are flipped in sign.  H1 = 0.

Cauchy-type kernels are periodized before use:

    sum_p 1/(w + 2Lp)   = (pi/2L)  * cot(pi w / 2L)
    sum_p 1/(w + 2Lp)^2 = (pi/2L)^2 / sin^2(pi w / 2L)

Evaluating 1/(Z - z_j) through its periodization keeps the pole structure
(and hence the holomorphic-projection algebra above) exact on the finite
domain instead of accurate only to O(1/L); without it every identity that
pairs H with a vortex kernel would be polluted at the 1e-4 level.

Both kernels run on numpy's float64 loops wherever they can (see each
kernel): numpy's complex tan and sin cost 20-70 ns a point, float64 tan,
tanh, exp and products 1-3 ns.
"""

import numpy as np

from .errors import VortexProximityError
from .grid import Field, check_same_grid, zero_field

MIN_SPACINGS = 4.0  # nearest approach of a pole to the curve the quadratures resolve


# ----------------------------------------------------------------------
# periodized Cauchy kernels

def periodic_cauchy_kernel(w, half_length):
    """Periodization of 1/w over period 2*half_length (simple pole):
    s cot(s w) with s = pi / (2 half_length).

    A real w gives float64 (s / tan(s w)), a complex w complex128, and a
    0-d w a scalar.  For s w = a + ib, with T = tan a and H = tanh b,

        cot(a + ib) = (T sech^2 b - iH (1 + T^2)) / (T^2 + H^2),

    and sech^2 b = 4g / (1 + g)^2 with g = exp(-2|b|), which neither
    overflows nor cancels for a pole deep below the line, where 1 - H^2
    would.  The work runs in two float64 arrays and the output's own
    memory, so a call allocates no more than the complex path did.
    """
    s = np.pi / (2.0 * half_length)
    w = np.asarray(w)
    if w.dtype.kind != "c":
        t = np.multiply(w, s, out=np.empty(w.shape), dtype=np.float64)
        np.tan(t, out=t)
        return np.divide(s, t, out=t)[()]
    shape, w = w.shape, w.reshape(-1)
    out = np.empty(w.shape, dtype=np.complex128)
    g, d = out.view(np.float64).reshape(2, -1)     # scratch until the last step
    t = np.multiply(w.real, s, dtype=np.float64)   # a
    h = np.multiply(w.imag, -s, dtype=np.float64)  # -b
    np.tan(t, out=t)                               # T
    np.abs(h, out=g)
    g *= -2.0
    np.exp(g, out=g)                               # g
    np.tanh(h, out=h)                              # -H
    np.add(g, 1.0, out=d)
    np.square(d, out=d)
    np.divide(g, d, out=g)
    g *= t
    g *= 4.0 * s                                   # s T sech^2 b
    np.square(t, out=t)                            # T^2
    np.square(h, out=d)
    d += t                                         # T^2 + H^2
    t += 1.0
    t *= h
    t *= s                                         # -s H (1 + T^2)
    np.divide(g, d, out=h)
    t /= d
    out.real = h
    out.imag = t
    return out.reshape(shape)[()]


def periodic_square_kernel(w, half_length):
    """Periodization of 1/w^2 over period 2*half_length (double pole):
    (s / sin(s w))^2 with s = pi / (2 half_length).

    A real w gives float64, s^2 (1 + 1/tan^2(s w)), a complex w complex128
    through complex sin (only the tests ask for it, and 1 + cot^2 would
    cancel for a pole deep below the line), and a 0-d w a scalar.
    """
    s = np.pi / (2.0 * half_length)
    w = np.asarray(w)
    if w.dtype.kind == "c":
        return (s / np.sin(s * w.astype(np.complex128, copy=False))) ** 2
    t = np.multiply(w, s, out=np.empty(w.shape), dtype=np.float64)
    np.tan(t, out=t)
    np.square(t, out=t)
    np.divide(s * s, t, out=t)
    t += s * s
    return t[()]


# ----------------------------------------------------------------------
# multipliers, precomputed on the GridSpec

def apply_multiplier(grid, multipliers, rows=None, spectra=None):
    """Stacked multipliers: row i of the result is irfft(fhat_i * multipliers[i]).

    fhat_i is ``spectra[i]`` when the half spectra are known, else the
    rfft of the real row ``rows[i]`` (n samples, views included); both forms
    multiply in that order, so a row and its spectrum give the same bits.
    There must be as many rows or spectra as multipliers (ValueError).  One
    ``rfft`` (for rows) and one ``irfft`` transform all k rows in the
    grid's workspace (:meth:`GridSpec.workspace`): the float64 (k, n)
    result is a view of it, which the next stacked pass overwrites, so a
    caller reads it before that and keeps none of it.
    """
    k, n, half = len(multipliers), grid.n_points, grid.n_points // 2
    inputs, kind = (rows, "rows") if spectra is None else (spectra, "spectra")
    if len(inputs) != k:
        raise ValueError("%d multipliers but %d %s" % (k, len(inputs), kind))
    ws = grid.workspace(k * (n + 1))
    out = ws[:k * half].view(np.float64).reshape(k, n)
    products = ws[k * half:k * (n + 1)].reshape(k, half + 1)
    if spectra is None:
        for o, r in zip(out, rows):
            o[...] = r
        np.fft.rfft(out, out=products)
        for p, m in zip(products, multipliers):
            p *= m
    else:
        for p, m, f_hat in zip(products, multipliers, spectra):
            np.multiply(f_hat, m, out=p)
    return np.fft.irfft(products, n, out=out)


def _apply(f, multiplier):
    """The Field of the half spectrum multiplier * fhat: real in, real out;
    complex in, complex out.  Its samples are transformed when read."""
    return Field.from_spectrum(f.grid, multiplier * f.fft)


def hilbert(f):
    """Hilbert transform H = iC (multiplier -sgn(k)).  A real field maps
    to an imaginary one, so the result is complex."""
    return Field(f.grid, 1j * _apply(f, f.grid.i_sgn).samples)


def lambda_op(f):
    """Half-Laplacian |d/da|, multiplier |k|."""
    return _apply(f, f.grid.wavenumbers)


def derivative(f):
    """Spectral first derivative d/da, multiplier ik."""
    return _apply(f, f.grid.ik)


def low_pass(f):
    """Zero all modes above half the grid's band, |k| > k_max / 2.

    Evolved fields are kept band-limited to half the grid's band: their
    genuine spectral content sits far below the cutoff (the states are
    analytic in a strip much wider than the spacing), while products in
    the advection terms then cannot alias, which removes the spurious
    Nyquist-band growth of variable-coefficient advection on a Fourier
    grid.  At the cutoff the attenuated amplitudes are at round-off level,
    so the filter is invisible to every resolved quantity.
    """
    return _apply(f, f.grid.half_band)


def analytic_projection(f):
    """(I - H) f: doubles the k > 0 modes, keeps the mean, kills k < 0.

    Vanishes (up to the mean) exactly on boundary values of functions
    holomorphic below the interface."""
    return Field(f.grid, f.samples - 1j * _apply(f, f.grid.i_sgn).samples)


def commutator_hilbert(f, g):
    """[f, H] g = f * Hg - H(f g) computed through the multiplier form."""
    grid = check_same_grid(f, g)
    fg = Field(grid, f.samples * g.samples)
    return Field(grid, f.samples * hilbert(g).samples - hilbert(fg).samples)


# ----------------------------------------------------------------------
# Cauchy integral

def cauchy_velocity(Z, F, z):
    """Trapezoid evaluation of (1/2pi i) * integral Z_b F(b) / (z - Z(b)) db.

    Z is the sampled curve (alpha plus a periodic part), F the density on
    it, z a point off the curve.  The 1/(z - Z) kernel is used in its
    periodized form.  Points closer to the sampled curve than
    MIN_SPACINGS grid spacings raise VortexProximityError: the quadrature
    carries no accuracy there.
    """
    grid = check_same_grid(Z, F)
    dist = np.min(np.abs(z - Z.samples))
    if dist < MIN_SPACINGS * grid.spacing:
        raise VortexProximityError(
            "evaluation point %s is %.3g from the curve; need >= %g grid spacings"
            % (z, dist, MIN_SPACINGS))
    kern = periodic_cauchy_kernel(z - Z.samples, grid.half_length)
    # Z_b = 1 + d/da of the periodic part: the ramp alpha is taken off first,
    # or the spectral derivative would differentiate a sawtooth
    Z_b = 1.0 + derivative(Field(grid, Z.samples - grid.alpha)).samples
    total = np.sum(Z_b * F.samples * kern) * grid.spacing
    return complex(total / (2.0j * np.pi))


# ----------------------------------------------------------------------
# singular quadratures

def _circulant(grid, kernel, spectra):
    """(K r, S) for the real rows r with half ``spectra``: (K r)_i = sum_{j != i}
    K_ij r_j with K_ij = kernel(alpha_i - alpha_j), a (k, n) view of the grid's
    workspace (the next stacked pass overwrites it), and S = sum_{j != i} K_ij.
    K depends on i - j mod n only, so K r is one :func:`apply_multiplier` pass
    whose multiplier is the rfft of one kernel row, 0 on the diagonal and taken
    at the separation of least modulus (near +-2L the argument would lose the
    relative accuracy of the near-diagonal cells).  A field's own parts come
    as its cached spectrum (:func:`_parts`); only product rows are transformed."""
    n = grid.n_points
    row = np.zeros(n)
    row[1:] = kernel(grid.spacing * np.fft.fftfreq(n, 1.0 / n)[1:], grid.half_length)
    multiplier = np.fft.rfft(row)
    k_rows = apply_multiplier(grid, (multiplier,) * len(spectra), spectra=spectra)
    return k_rows, multiplier[0].real


def _parts(f):
    """The half spectra of Re f and Im f: the field's cached :attr:`Field.fft`,
    with the spectrum of :func:`grid.zero_field` as the imaginary part of a
    real field."""
    return f.fft if f.is_complex else (f.fft, zero_field(f.grid).fft)


def sq_diff_from_rows(f, lam_rows):
    """Re{conj(f) Lf} - L(|f|^2)/2 from ``lam_rows``, the images of Re f, Im f
    and |f|^2 under a multiplier L (|k| on the spectral path)."""
    return f.real * lam_rows[0] + f.imag * lam_rows[1] - 0.5 * lam_rows[2]


def sq_diff_integral(f, method="spectral", out_indices=None):
    """The field a -> (1/2pi) * integral |f(a) - f(b)|^2 / (a - b)^2 db.

    method="spectral" uses the operator identity

        (1/2pi) int |f(a)-f(b)|^2/(a-b)^2 db = Re{conj(f) Lf} - L(|f|^2)/2,

    with L = |d/da| (three rows in one stacked pass, exact for resolved
    fields).
    method="quadrature" performs the trapezoid sum with the periodized
    1/(a-b)^2 kernel and the diagonal cell set to its limit |f'(a)|^2, as
    S|f|^2 - 2 Re{conj(f) Kf} + K|f|^2 (:func:`_circulant`) over the same three
    rows; ``out_indices``, if given, is returned with the field, whose points
    it selects.  The two paths agree to aliasing level and are cross-checked
    in the test suite.  The result is nonnegative.  Both paths take Re f and
    Im f as the field's cached spectrum and transform only |f|^2.
    """
    if method not in ("spectral", "quadrature"):
        raise ValueError("unknown method %r" % method)
    grid, s = f.grid, f.samples
    sq = s.real * s.real + s.imag * s.imag
    spectra = (*_parts(f), np.fft.rfft(sq))
    if method == "spectral":
        lam = apply_multiplier(grid, (grid.wavenumbers,) * 3, spectra=spectra)
        return Field(grid, sq_diff_from_rows(s, lam))

    fp = derivative(f).samples
    k_rows, k_sum = _circulant(grid, periodic_square_kernel, spectra)
    # sum_{j != i} |f_i - f_j|^2 K_ij plus the diagonal limit |f'_i|^2
    total = k_sum * sq - 2.0 * sq_diff_from_rows(s, k_rows) + np.abs(fp) ** 2
    out = Field(grid, total * (grid.spacing / (2.0 * np.pi)))
    return out if out_indices is None else (out, np.asarray(out_indices))


def pv_commutator(f, g):
    """[f, H] g as the principal-value quadrature
    (1/pi i) * integral (f(a) - f(b)) / (a - b) * g(b) db,
    periodized kernel, diagonal cell f'(a) g(a) / (pi i).

    Over j != i the sum is f Kg - K(fg) (:func:`_circulant`: one pass over g's
    cached spectrum and the two parts of fg, the only rows transformed).
    Agrees with f*Hg - H(fg) to quadrature accuracy; intended for
    verification rather than the per-step assembly.
    """
    grid = check_same_grid(f, g)
    fp = derivative(f).samples
    fg = f.samples * g.samples
    k_rows, _ = _circulant(grid, periodic_cauchy_kernel,
                           (*_parts(g), *np.fft.rfft(np.stack((fg.real, fg.imag)))))
    total = f.samples * (k_rows[0] + 1j * k_rows[1]) - (k_rows[2] + 1j * k_rows[3]) \
        + fp * g.samples
    return Field(grid, total * (grid.spacing / (1j * np.pi)))


def hilbert_quadrature(f):
    """H f by principal-value trapezoid in the difference form
    sum_{j != i} (f_j - f_i) K_ij = Kf - Sf (:func:`_circulant` over f's cached
    spectrum), which removes the singularity; a verification-grade :func:`hilbert`."""
    grid = f.grid
    fp = derivative(f).samples
    k_rows, k_sum = _circulant(grid, periodic_cauchy_kernel, _parts(f))
    # Kf - Sf, and the diagonal cell: the limit -f'(a) of (f(b)-f(a)) * kernel(a-b)
    total = k_rows[0] + 1j * k_rows[1] - k_sum * f.samples - fp
    return Field(grid, total * (grid.spacing / (1j * np.pi)))
