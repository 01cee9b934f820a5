"""Spectral-core tests: grids, fields, multipliers, singular quadratures.

Rational test functions are realized through their periodization (see
conftest.per_pole); closed-form expectations for them are the line
values, matched either exactly (when the identity holds discretely) or
with an explicitly budgeted O(1/L) truncation tolerance.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from vortexwavelab.errors import GridMismatchError, VortexProximityError
from vortexwavelab.grid import Field, GridSpec, field_from_function, zero_field
from vortexwavelab.spectral import (apply_multiplier, cauchy_velocity, commutator_hilbert,
                                    derivative, hilbert, hilbert_quadrature,
                                    lambda_op, low_pass, periodic_cauchy_kernel,
                                    periodic_square_kernel, pv_commutator,
                                    sq_diff_integral)

from conftest import band_limited, count_transforms, mean_zero, per_pole


# ----------------------------------------------------------------------
# grid and field plumbing

def test_grid_invariants():
    g = GridSpec(200.0, 2 ** 14)
    assert g.spacing * g.n_points == 2.0 * g.half_length  # exact in floats
    assert g.wavenumbers[1] == pytest.approx(np.pi / g.half_length, rel=1e-15)
    assert g.alpha[0] == -g.half_length
    with pytest.raises(ValueError):
        GridSpec(200.0, 12)       # not a power of two
    with pytest.raises(ValueError):
        GridSpec(200.0, 8)        # too small


@pytest.mark.parametrize("n_points", [1024.9, 1024.0, "1024"])
def test_grid_rejects_a_point_count_that_is_not_an_integer(n_points):
    # int() truncated 1024.9 to a 1024-point grid without a word
    with pytest.raises(ValueError, match="n_points must be an integer"):
        GridSpec(200.0, n_points)


def test_grid_takes_numpy_integers():
    grid = GridSpec(200.0, np.int64(1024))
    assert grid.n_points == 1024 and type(grid.n_points) is int
    assert grid == GridSpec(200.0, 1024)


@pytest.mark.parametrize("half_length", [math.nan, math.inf, -math.inf])
def test_grid_rejects_non_finite_half_length(half_length):
    # named here, not later as a grid mismatch (NaN != NaN) or a
    # non-finite state at t = 0
    with pytest.raises(ValueError, match="half_length must be finite and positive"):
        GridSpec(half_length, 64)


def test_spectrum_convention(grid):
    # fhat(k) = integral f e^(-ika) = h (-1)^m rfft(f)_m on k_m >= 0: a pure
    # mode carries weight 2L at its own wavenumber (a complex field's half
    # spectra, of its real and imaginary parts, combine as re + i im), and
    # a gaussian reproduces sqrt(pi) e^(-k^2/4)
    m = 37
    k = grid.wavenumbers[m]
    phase = grid.spacing * (-1.0) ** np.arange(grid.n_points // 2 + 1)
    f = field_from_function(grid, lambda a: np.exp(1j * k * a))
    re, im = phase * f.fft
    assert abs(re[m] + 1j * im[m] - 2 * grid.half_length) <= 1e-9
    gauss = field_from_function(grid, lambda a: np.exp(-a * a))
    kk = grid.wavenumbers
    sel = kk < 8
    expected = np.sqrt(np.pi) * np.exp(-kk[sel] ** 2 / 4)
    assert np.max(np.abs((phase * gauss.fft)[sel] - expected)) <= 1e-12


def test_field_roundtrip_and_real_flag(grid):
    rng = np.random.default_rng(1)
    f = band_limited(grid, rng)
    back = np.fft.irfft(f.fft, grid.n_points)
    assert np.max(np.abs(back - f.samples)) <= 1e-12 * f.sup_norm()
    z = Field(grid, f.samples + 1j * band_limited(grid, rng).samples)
    back = np.fft.irfft(z.fft, grid.n_points)
    assert np.max(np.abs(back[0] + 1j * back[1] - z.samples)) <= 1e-12 * z.sup_norm()
    assert f.samples.dtype == np.float64
    assert Field(grid, f.samples + 1e-6j * np.ones(grid.n_points)).samples.dtype == np.complex128
    # a Field built from a half spectrum keeps it, tells its kind without a
    # transform and makes the samples the other Field has
    for g in (f, z):
        h = Field.from_spectrum(grid, g.fft)
        assert h.fft is g.fft and h._samples is None and h.is_complex == g.is_complex
        assert np.max(np.abs(h.samples - g.samples)) <= 1e-12 * g.sup_norm()
        assert h.samples.dtype == g.samples.dtype
    for shape in ((grid.n_points // 2,), (3, grid.n_points // 2 + 1)):
        with pytest.raises(ValueError, match="spectrum shape"):
            Field.from_spectrum(grid, np.zeros(shape, dtype=complex))


def test_zero_field_is_its_zero_half_spectrum(grid, monkeypatch):
    # the spectrum of a zero field is read without a transform, and its
    # samples are the exact zeros of a real field
    counts = {"transforms": 0, "transform_calls": 0}
    count_transforms(monkeypatch, counts)
    z = zero_field(grid)
    assert z.fft.shape == (grid.n_points // 2 + 1,) and not np.any(z.fft)
    assert counts["transform_calls"] == 0
    assert z.is_complex is False
    assert z.samples.dtype == np.float64 and not np.any(z.samples)


def test_zero_field_holds_no_memory():
    # a zero field's spectrum is one broadcast zero: read-only, stride 0, and
    # 14 of them at 2^18 (a benchmark repetition's C05 states) allocate under
    # 64 KB (the parent's were writeable 2 MB arrays of stride 16: 28 MB)
    import tracemalloc
    wide = GridSpec(3200.0, 2 ** 18)
    z = zero_field(wide)
    assert not z.fft.flags.writeable and z.fft.strides == (0,)
    tracemalloc.start()
    try:
        held = [zero_field(wide) for _ in range(14)]
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(held) == 14 and allocated < 64 * 1024


def test_grid_mismatch_raises(grid, small_grid):
    with pytest.raises(GridMismatchError):
        commutator_hilbert(zero_field(grid), zero_field(small_grid))


# ----------------------------------------------------------------------
# Hilbert transform

def test_hilbert_kills_constants(grid):
    out = hilbert(Field(grid, np.full(grid.n_points, 1.0)))
    assert out.sup_norm() == 0.0


def test_hilbert_fixed_point_lower_half_plane(grid):
    # 1/(a - i) extends holomorphically below the line; its (mean-zero)
    # periodization must be an exact fixed point of H.
    f = mean_zero(per_pole(grid, 1j))
    err = np.max(np.abs(hilbert(f).samples - f.samples))
    assert err <= 1e-12 * f.sup_norm()


def test_hilbert_flips_upper_half_plane(grid):
    f = mean_zero(per_pole(grid, -2j))
    err = np.max(np.abs(hilbert(f).samples + f.samples))
    assert err <= 1e-12 * f.sup_norm()


def test_hilbert_lorentzian(grid):
    # H[1/(a^2+1)] = -i a/(a^2+1); partial fractions of the periodizations.
    p_up = per_pole(grid, 1j)
    p_dn = per_pole(grid, -1j)
    lorentz = mean_zero(Field(grid, (p_up.samples - p_dn.samples) / 2j))
    expected = Field(grid, -0.5j * (p_up.samples + p_dn.samples))
    got = hilbert(lorentz)
    assert np.max(np.abs(got.samples - expected.samples)) <= 1e-12
    # and against the line formula: the output has 1/a tails, so the
    # truncation gap is O(1/L) rather than O(1/L^2)
    line = field_from_function(grid, lambda a: -1j * a / (a * a + 1.0))
    assert np.max(np.abs(got.samples - line.samples)) <= 1e-2


def test_hilbert_quadrature_matches_multiplier(small_grid):
    rng = np.random.default_rng(3)
    f = band_limited(small_grid, rng, modes=20)
    hq = hilbert_quadrature(f)
    hm = hilbert(f)
    assert np.max(np.abs(hq.samples - hm.samples)) <= 1e-10 * f.sup_norm()


def test_hilbert_involution_and_isometry(grid):
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = band_limited(grid, rng)
        hh = hilbert(hilbert(f))
        assert np.max(np.abs(hh.samples - f.samples)) <= 1e-12 * f.sup_norm()
        assert abs(hilbert(f).l2_norm() - f.l2_norm()) <= 1e-12 * f.l2_norm()
        # real, mean-zero input -> purely imaginary output
        assert np.max(np.abs(hilbert(f).samples.real)) <= 1e-12 * f.sup_norm()


# ----------------------------------------------------------------------
# multipliers

def test_lambda_op(grid):
    assert lambda_op(Field(grid, np.full(grid.n_points, 3.7))).sup_norm() <= 1e-14
    m = 173
    k = grid.wavenumbers[m]
    e = field_from_function(grid, lambda a: np.exp(1j * k * a))
    out = lambda_op(e)
    assert np.max(np.abs(out.samples - k * e.samples)) <= 1e-10 * k
    c = field_from_function(grid, lambda a: np.cos(k * a))
    out = lambda_op(c)
    assert np.max(np.abs(out.samples - k * c.samples)) <= 1e-10 * k


def test_derivative_trig_and_constant(grid):
    m = 64
    k = grid.wavenumbers[m]
    s = field_from_function(grid, lambda a: np.sin(k * a))
    c = field_from_function(grid, lambda a: np.cos(k * a))
    out = derivative(s)
    assert np.max(np.abs(out.samples - k * c.samples)) <= 1e-10 * k
    assert derivative(Field(grid, np.full(grid.n_points, 5.0))).sup_norm() <= 1e-13


def test_derivative_gaussian_second(grid):
    # d^2/da^2 exp(-a^2) = (4a^2 - 2) exp(-a^2): symbolic oracle
    f = field_from_function(grid, lambda a: np.exp(-a * a))
    expected = field_from_function(grid, lambda a: (4 * a * a - 2) * np.exp(-a * a))
    out = derivative(derivative(f))
    assert np.max(np.abs(out.samples - expected.samples)) <= 1e-10


def test_apply_multiplier_gives_the_same_bits_from_rows_and_spectra(small_grid):
    # both input forms multiply fhat * m in that order (complex products do
    # not commute bit for bit), so a quadrature that passes a field's cached
    # spectrum gets the bits its samples would give
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(2, small_grid.n_points))
    m = np.fft.rfft(rng.normal(size=small_grid.n_points))
    from_rows = apply_multiplier(small_grid, (m, m), rows=rows).copy()
    assert np.array_equal(from_rows,
                          apply_multiplier(small_grid, (m, m), spectra=np.fft.rfft(rows)))


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("kind", ["rows", "spectra"])
def test_apply_multiplier_rejects_a_count_mismatch(grid, kind, count):
    # zip stopped at the shorter input: 2 multipliers on 1 zero row gave a
    # second row of stale workspace memory
    apply_multiplier(grid, (grid.ik,), rows=(np.ones(grid.n_points),))
    n = grid.n_points if kind == "rows" else grid.n_points // 2 + 1
    inputs = {kind: np.zeros((count, n))}
    with pytest.raises(ValueError, match="2 multipliers but %d %s" % (count, kind)):
        apply_multiplier(grid, (grid.ik, grid.wavenumbers), **inputs)


def test_low_pass_is_invisible_on_resolved_fields(grid):
    rng = np.random.default_rng(4)
    f = band_limited(grid, rng, modes=100)
    assert np.max(np.abs(low_pass(f).samples - f.samples)) <= 1e-13 * f.sup_norm()


# ----------------------------------------------------------------------
# periodized kernels

@pytest.mark.parametrize("L", [1.0, 200.0, 3200.0])
def test_periodic_kernels_match_mpmath(L):
    # the reference is taken at the float64 argument x = s w, so the
    # tolerance measures the kernels' formulas, not the rounding of s w
    s = np.pi / (2.0 * L)
    rng = np.random.default_rng(19)
    u = np.concatenate([rng.uniform(-L, L, 60), [-L, L * (1.0 - 1e-12), 1e-9]])
    for v in (0.0, 1e-2, -1e-2, 1.0, -1.0, -12.0, -10.0 * L, -100.0 * L):
        w = u if v == 0.0 else u + 1j * v
        k1 = periodic_cauchy_kernel(w, L)
        assert k1.dtype == (np.float64 if v == 0.0 else np.complex128)
        with mpmath.workdps(40):
            for got, a, b in zip(k1, s * w.real, s * w.imag):
                ref = s * mpmath.cot(mpmath.mpc(a, b))
                for part, ref_part in ((got.real, ref.real), (got.imag, ref.imag)):
                    assert abs(part - ref_part) <= 2e-15 * abs(ref_part)
    k2 = periodic_square_kernel(u, L)
    assert k2.dtype == np.float64
    with mpmath.workdps(40):
        for got, a in zip(k2, s * u):
            ref = (s / mpmath.sin(mpmath.mpf(a))) ** 2
            assert abs(got - ref) <= 2e-15 * ref
    assert periodic_square_kernel(u + 1j, L).dtype == np.complex128
    for kernel in (periodic_cauchy_kernel, periodic_square_kernel):
        for w, dtype in ((0.5 * L, np.float64), (0.5 * L - 1j, np.complex128)):
            value = kernel(w, L)
            assert isinstance(value, np.generic) and value.dtype == dtype


# ----------------------------------------------------------------------
# Cauchy velocity

def test_cauchy_zero_density(grid):
    Z = Field(grid, grid.alpha.astype(complex))
    assert cauchy_velocity(Z, zero_field(grid), -2j) == 0.0


def test_cauchy_flat_line_residue(grid):
    # F the trace of a function holomorphic below: the integral reproduces
    # its extension.  Line value at z = -2i is 1/(-2i - i) = i/3; on the
    # periodic domain the reproduction is exact in the periodized sense:
    # U(z) = per(1/(z - i)) - mean(F)/2 (the constant mode contributes half,
    # exactly as on the line).
    Z = Field(grid, grid.alpha.astype(complex))
    F = per_pole(grid, 1j)
    z = -2j
    got = cauchy_velocity(Z, F, z)
    exact_per = complex(periodic_cauchy_kernel(z - 1j, grid.half_length)) - F.mean() / 2
    assert abs(got - exact_per) <= 1e-12
    assert abs(got - 1j / 3) <= 5e-3          # truncation budget ~ pi/(4L)

    # no pole enclosed: boundary value from the other side integrates to ~0
    F_up = per_pole(grid, -1j)
    got_up = cauchy_velocity(Z, F_up, z)
    assert abs(got_up - F_up.mean() / 2) <= 1e-12
    assert abs(got_up) <= 5e-3


def test_cauchy_near_boundary_rejected(grid):
    Z = Field(grid, grid.alpha.astype(complex))
    F = per_pole(grid, 1j)
    with pytest.raises(VortexProximityError):
        cauchy_velocity(Z, F, -3.5 * grid.spacing * 1j)


# ----------------------------------------------------------------------
# squared-difference integral

def test_sq_diff_constant_and_exponential(grid):
    assert sq_diff_integral(Field(grid, np.full(grid.n_points, 2.0 + 1j))).sup_norm() <= 1e-13
    m = 64
    k = grid.wavenumbers[m]
    e = field_from_function(grid, lambda a: np.exp(1j * k * a))
    out = sq_diff_integral(e).samples.real
    assert np.max(np.abs(out - k)) <= 1e-10 * k   # classical (1/pi)I(1-cos ks)/s^2 = |k|


def test_sq_diff_pole_against_line_quadrature():
    # (1/2pi) int |f(0) - f(b)|^2/b^2 db for f = 1/(a - i) equals 1/2
    # (adaptive quadrature of the line integrand, frozen; the periodization
    # converges to it like 1/L^2, so a wide grid is used for the 1e-8 bar).
    oracle = 0.5
    def integrand(b):
        return abs(1j - 1.0 / (b - 1j)) ** 2 / b ** 2
    va, _ = quad(integrand, -np.inf, -1e-8, limit=400)
    vb, _ = quad(integrand, 1e-8, np.inf, limit=400)
    vm, _ = quad(integrand, -1e-8, 1e-8, points=[0.0])
    assert abs((va + vb + vm) / (2 * np.pi) - oracle) <= 1e-9

    wide = GridSpec(12800.0, 2 ** 20)
    f = per_pole(wide, 1j)
    val = sq_diff_integral(f).samples.real[wide.n_points // 2]
    assert abs(val - oracle) <= 1e-8


def test_sq_diff_quadrature_path_matches_spectral(small_grid):
    # pole deep enough that its spectrum is resolved on the coarse grid
    f = per_pole(small_grid, -1.0 - 4.0j)
    spec = sq_diff_integral(f).samples.real
    quad_f = sq_diff_integral(f, method="quadrature").samples.real
    assert np.max(np.abs(spec - quad_f)) <= 1e-10
    assert np.min(spec) >= -1e-13          # nonnegative pointwise


def test_quadratures_transform_only_their_product_rows(small_grid, monkeypatch):
    # a field's own parts enter each circulant pass as its cached half
    # spectrum: np.fft.rfft sees only the kernel row of each pass and the
    # product rows, |f|^2 and the two parts of f g
    rng = np.random.default_rng(4)
    re, im = band_limited(small_grid, rng).samples, band_limited(small_grid, rng).samples
    counts = {"transforms": 0, "transform_calls": 0}
    count_transforms(monkeypatch, counts)
    # spectral then quadrature path: the field's spectrum (2 rows complex,
    # 1 real), |f|^2 twice and one kernel row; 9 and 8 rows when both
    # paths transformed Re f, Im f and |f|^2 from the samples
    for samples, rows in ((re + 1j * im, 5), (re, 4)):
        f = Field(small_grid, samples)
        counts["rfft"] = 0
        sq_diff_integral(f)
        sq_diff_integral(f, method="quadrature")
        assert counts["rfft"] == rows
    # on fields whose spectra are cached: the kernel row and the parts of
    # f g (5 rows when g's parts were transformed again), and the kernel
    # row alone (3 with the parts of f)
    f, g = Field(small_grid, re), Field(small_grid, im + 1j * re)
    f.fft, g.fft
    counts["rfft"] = 0
    pv_commutator(f, g)
    assert counts["rfft"] == 3
    counts["rfft"] = 0
    hilbert_quadrature(g)
    assert counts["rfft"] == 1


def test_quadratures_skip_the_zero_rows_of_real_fields(small_grid, monkeypatch):
    # the imaginary part of a real field, or of a real product f g, is zero and
    # is no row of a pass: on real fields sq_diff_integral (spectral then
    # quadrature) makes 5 inverse rows, hilbert_quadrature 2 and pv_commutator
    # 3, their derivative rows included; pv_commutator transforms the kernel
    # row and f g forward, 2 rows
    rng = np.random.default_rng(6)
    f, g = band_limited(small_grid, rng), band_limited(small_grid, rng)
    f.fft, g.fft
    counts = {"transforms": 0, "transform_calls": 0}
    count_transforms(monkeypatch, counts)
    for run, rows in ((lambda: (sq_diff_integral(f), sq_diff_integral(f, method="quadrature")),
                       (5, 3)),
                      (lambda: hilbert_quadrature(f), (2, 1)),
                      (lambda: pv_commutator(f, g), (3, 2))):
        counts.update(irfft=0, rfft=0)
        run()
        assert (counts["irfft"], counts["rfft"]) == rows


def test_pv_commutator_of_mixed_fields_is_linear_in_parts(small_grid):
    # a real f with a complex g, and the other way round, pass fewer rows than
    # two complex fields; the commutator is linear in f and in g, so each mixed
    # case is its real cases part by part
    rng = np.random.default_rng(8)
    a, b, c = (band_limited(small_grid, rng, modes=24) for _ in range(3))
    for f, g, parts in ((a, Field(small_grid, b.samples + 1j * c.samples), ((a, b), (a, c))),
                        (Field(small_grid, b.samples + 1j * c.samples), a, ((b, a), (c, a)))):
        got = pv_commutator(f, g).samples
        ref = pv_commutator(*parts[0]).samples + 1j * pv_commutator(*parts[1]).samples
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("complex_input", [False, True])
def test_quadratures_match_a_pairwise_double_loop(complex_input):
    # each quadrature against its definition summed cell by cell over (i, j),
    # the diagonal cell included: a reference that does not go through the
    # convolution theorem
    grid = GridSpec(4.0, 32)
    rng = np.random.default_rng(11)

    def field():
        f = band_limited(grid, rng, modes=6)
        if complex_input:
            f = Field(grid, f.samples + 1j * band_limited(grid, rng, modes=6).samples)
        return f
    f, g = field(), field()
    a, fs, gs, fp = grid.alpha, f.samples, g.samples, derivative(f).samples
    n, h, L = grid.n_points, grid.spacing, grid.half_length
    sq, pv, hq = np.zeros(n), np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    for i in range(n):
        for j in range(n):
            if i == j:
                sq[i] += abs(fp[i]) ** 2
                pv[i] += fp[i] * gs[i]
                hq[i] -= fp[i]
                continue
            k1 = periodic_cauchy_kernel(a[i] - a[j], L)
            sq[i] += abs(fs[i] - fs[j]) ** 2 * periodic_square_kernel(a[i] - a[j], L).real
            pv[i] += (fs[i] - fs[j]) * k1 * gs[j]
            hq[i] += (fs[j] - fs[i]) * k1
    for got, ref in ((sq_diff_integral(f, method="quadrature"), sq * h / (2 * np.pi)),
                     (pv_commutator(f, g), pv * h / (1j * np.pi)),
                     (hilbert_quadrature(f), hq * h / (1j * np.pi))):
        assert np.max(np.abs(got.samples - ref)) <= 1e-13 * np.max(np.abs(ref))


# ----------------------------------------------------------------------
# principal-value commutator

def test_pv_commutator_trivial_cases(small_grid):
    g = per_pole(small_grid, 1j)
    out = pv_commutator(Field(small_grid, np.full(small_grid.n_points, 4.2)), g)
    assert out.sup_norm() <= 1e-12
    f = per_pole(small_grid, 2j)
    assert pv_commutator(f, zero_field(small_grid)).sup_norm() == 0.0


def test_pv_commutator_matches_multiplier_identity(small_grid):
    rng = np.random.default_rng(5)
    for _ in range(3):
        f = band_limited(small_grid, rng, modes=24)
        g = band_limited(small_grid, rng, modes=24)
        direct = pv_commutator(f, g)
        via_h = commutator_hilbert(f, g)
        assert np.max(np.abs(direct.samples - via_h.samples)) <= 1e-8
