"""Property tests of the operator algebra, the assembly and the
right-hand side on small grids.

H is the multiplier -sgn(k), so H^2 = I on mean-zero fields (the
H^2 = -I of the -i sgn(k) convention does not apply here).  The
half-spectrum operators are checked against a full-spectrum reference.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexwavelab.grid import Field, GridSpec
from vortexwavelab.spectral import (analytic_projection, apply_multiplier, derivative,
                                    hilbert, lambda_op, low_pass)
from vortexwavelab.sim import reversed_state, step_rk4
from vortexwavelab.waves import (Vortex, WaveState, b_residual, derive, reconstruct,
                                 refine_minimum)

from conftest import band_limited, state_rhs

SETTINGS = settings(max_examples=25, deadline=None)
GRIDS = st.sampled_from([GridSpec(50.0, 2 ** p) for p in (8, 9, 10)])
SEEDS = st.integers(0, 2 ** 32 - 1)


def random_field(grid, rng, amplitude=1.0):
    """Real mean-zero field on the lowest eighth of the grid's modes,
    scaled to the given sup norm."""
    f = band_limited(grid, rng, modes=int(rng.integers(1, grid.n_points // 8)))
    return Field(grid, amplitude * f.samples.real / f.sup_norm())


def odd_part(f):
    """(f(a) - f(-a)) / 2, odd to the last bit."""
    rev = (-np.arange(f.grid.n_points)) % f.grid.n_points
    return Field(f.grid, 0.5 * (f.samples - f.samples[rev]))


PAIRS = (st.floats(0.5, 2.0), st.floats(-10.0, -3.0), st.floats(-20.0, 20.0))


@SETTINGS
@given(GRIDS, SEEDS, st.booleans())
def test_hilbert_squared_is_identity(grid, seed, complex_valued):
    rng = np.random.default_rng(seed)
    f = random_field(grid, rng)
    if complex_valued:
        f = Field(grid, f.samples + 1j * random_field(grid, rng).samples)
    assert np.max(np.abs(hilbert(hilbert(f)).samples - f.samples)) <= 1e-12 * f.sup_norm()


@SETTINGS
@given(GRIDS, SEEDS)
def test_holomorphic_projection_is_idempotent(grid, seed):
    f = random_field(grid, np.random.default_rng(seed))
    def plus_half(g):                                      # (I + H)/2 = (I + iC)/2
        return Field(grid, 0.5 * (g.samples + hilbert(g).samples))
    once = plus_half(f)
    twice = plus_half(once)
    assert np.max(np.abs(twice.samples - once.samples)) <= 1e-12 * f.sup_norm()


@SETTINGS
@given(GRIDS, SEEDS, st.floats(-1e-3, 1e-3))
def test_reconstruct_keeps_the_real_parts(grid, seed, nyquist):
    # also with a component on the unpaired Nyquist mode (-1)^j, which H
    # must neither double nor drop from the real part
    rng = np.random.default_rng(seed)
    sawtooth = nyquist * (-1.0) ** np.arange(grid.n_points)
    W = Field(grid, random_field(grid, rng, 0.1).samples + sawtooth)
    U = Field(grid, random_field(grid, rng, 0.1).samples - sawtooth)
    Z, F, _, _ = reconstruct(grid, W.fft, U.fft)
    assert np.max(np.abs((Z - grid.alpha).real - W.samples)) <= 1e-14
    assert np.max(np.abs(F.real - U.samples)) <= 1e-14


def full_spectrum(grid, samples, multiplier):
    """ifft(multiplier(k) * fft(samples)) over the fftfreq wavenumbers k."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)
    return np.fft.ifft(multiplier(k) * np.fft.fft(samples))


def broadband_field(grid, rng, complex_valued):
    """Random field with a mean and every mode below the Nyquist mode."""
    def part():
        n = grid.n_points
        spec = np.zeros(n // 2 + 1, dtype=np.complex128)
        spec[:n // 2] = rng.normal(size=n // 2) + 1j * rng.normal(size=n // 2)
        return np.fft.irfft(spec, n)
    return Field(grid, part() + 1j * part() if complex_valued else part())


@SETTINGS
@given(GRIDS, SEEDS, st.booleans())
def test_operators_match_the_full_spectrum(grid, seed, complex_valued):
    f = broadband_field(grid, np.random.default_rng(seed), complex_valued)
    k_max = np.pi / grid.spacing
    cases = [   # (result, full-spectrum multiplier, maps real fields to real fields)
        (derivative(f), lambda k: 1j * k, True),
        (lambda_op(f), np.abs, True),
        (low_pass(f), lambda k: (np.abs(k) <= 0.5 * k_max).astype(float), True),
        (hilbert(f), lambda k: -np.sign(k), False),
        (analytic_projection(f), lambda k: 1.0 + np.sign(k), False),
    ]
    for got, multiplier, real_to_real in cases:
        ref = full_spectrum(grid, f.samples, multiplier)
        assert got.samples.dtype == (np.float64 if real_to_real and not complex_valued
                                     else np.complex128)
        assert np.max(np.abs(got.samples - ref)) <= 1e-12 * np.max(np.abs(ref))


@SETTINGS
@given(GRIDS, SEEDS)
def test_stacked_multipliers_match_the_full_spectrum(grid, seed):
    # three rows, one multiplier each, in one stacked call: from the samples
    # and from their known half spectra alike
    rng = np.random.default_rng(seed)
    rows = np.stack([broadband_field(grid, rng, False).samples for _ in range(3)])
    k_max = np.pi / grid.spacing
    multipliers = (grid.i_sgn, grid.wavenumbers, grid.half_band)
    full = (lambda k: 1j * np.sign(k), np.abs,
            lambda k: (np.abs(k) <= 0.5 * k_max).astype(float))
    refs = np.array([full_spectrum(grid, r, m).real for r, m in zip(rows, full)])
    from_rows = apply_multiplier(grid, multipliers, rows=rows).copy()
    from_spectra = apply_multiplier(grid, multipliers, spectra=np.fft.rfft(rows))
    for got in (from_rows, from_spectra):
        assert got.shape == rows.shape and got.dtype == np.float64
        assert np.max(np.abs(got - refs)) <= 1e-12 * np.max(np.abs(refs))


@SETTINGS
@given(GRIDS, SEEDS)
def test_reconstruct_matches_the_full_spectrum(grid, seed):
    rng = np.random.default_rng(seed)
    W = broadband_field(grid, rng, False)
    U = broadband_field(grid, rng, False)
    Z, F, Z_alpha, F_alpha = reconstruct(grid, W.fft, U.fft)
    cases = [
        (Z - grid.alpha, W, lambda k: 1.0 - np.sign(k)),
        (F, U, lambda k: 1.0 - np.sign(k)),
        (Z_alpha - 1.0, W, lambda k: 1j * k * (1.0 - np.sign(k))),
        (F_alpha, U, lambda k: 1j * k * (1.0 - np.sign(k))),
    ]
    for got, f, multiplier in cases:
        ref = full_spectrum(grid, f.samples, multiplier)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@SETTINGS
@given(GRIDS, SEEDS, *PAIRS, st.floats(0.0, 1e-2))
def test_b_residual_small_with_a_pair(grid, seed, x, y, lam, amplitude):
    rng = np.random.default_rng(seed)
    state = WaveState(random_field(grid, rng, amplitude), random_field(grid, rng, amplitude),
                      (Vortex(complex(-x, y), lam), Vortex(complex(x, y), -lam)))
    d = derive(grid, *state.arrays, state.strengths)
    assert b_residual(grid, d) <= 1e-6 * (1.0 + Field(grid, d.b).l2_norm())


@SETTINGS
@given(GRIDS, SEEDS, *PAIRS, st.floats(1e-4, 1e-2))
def test_time_reversal_image(grid, seed, x, y, lam, amplitude):
    # (W, U, z_j, lam_j) -> (W, -U, z_j, -lam_j) flips the sign of dW/dt
    # and of the vortex velocities and keeps dU/dt; negation commutes with
    # rounding, so the image is exact
    rng = np.random.default_rng(seed)
    state = WaveState(random_field(grid, rng, amplitude), random_field(grid, rng, amplitude),
                      (Vortex(complex(-x, y), lam), Vortex(complex(x, 0.8 * y), -0.5 * lam)))
    dW, dU, zdots = state_rhs(state)
    rW, rU, rzdots = state_rhs(reversed_state(state))
    assert np.array_equal(rW, -dW)
    assert np.array_equal(rU, dU)
    assert np.array_equal(rzdots, -zdots)


@SETTINGS
@given(GRIDS, SEEDS, *PAIRS, st.floats(1e-4, 1e-2))
def test_rhs_keeps_odd_fields_odd(grid, seed, x, y, lam, amplitude):
    rng = np.random.default_rng(seed)
    W = odd_part(random_field(grid, rng, amplitude))
    U = odd_part(random_field(grid, rng, amplitude))
    dW, dU, (z1, z2) = state_rhs(WaveState(W, U, (Vortex(complex(-x, y), lam),
                                                        Vortex(complex(x, y), -lam))))
    # round-off scales with the terms summed, which the wave amplitude and
    # the vortex strength bound where the result itself cancels
    inputs = amplitude + abs(lam)
    for f in (Field(grid, dW), Field(grid, dU)):
        assert np.max(np.abs(odd_part(f).samples - f.samples)) <= 1e-14 * (f.sup_norm() + inputs)
    scale = max(abs(z1), abs(z2)) + inputs
    assert abs(z1.real + z2.real) <= 1e-14 * scale
    assert abs(z1.imag - z2.imag) <= 1e-14 * scale


# strengths and positions of three vortices that are no antisymmetric pair
FROUDE_VORTICES = ((110.0, -1.3 - 6.0j), (-70.0, 0.7 - 8.0j), (25.0, 2.1 - 5.5j))


@SETTINGS
@given(SEEDS, st.integers(-3, 3))
def test_froude_scaling_is_exact(seed, k):
    # with mu = 2^k, lengths (L, W, positions) times mu^2, velocities (U)
    # times mu, strengths times mu^3 and time times mu give the same motion;
    # every factor is a power of two, which rounding commutes with, so one
    # RK4 step of the scaled state, scaled back, is the unscaled step's bytes
    mu = 2.0 ** k
    rng = np.random.default_rng(seed)
    base = GridSpec(200.0, 2 ** 10)
    W, U = (random_field(base, rng, amplitude) for amplitude in (0.3, 0.2))
    steps = []
    for factor in (1.0, mu):
        grid = GridSpec(base.half_length * factor ** 2, base.n_points)
        state = WaveState(Field(grid, factor ** 2 * W.samples), Field(grid, factor * U.samples),
                          [Vortex(factor ** 2 * z, factor ** 3 * lam)
                           for lam, z in FROUDE_VORTICES])
        new = step_rk4(state, factor * 1e-3)
        steps.append((new.W.fft / factor ** 2, new.U.fft / factor, new.positions / factor ** 2))
    for unscaled, scaled in zip(*steps):
        assert np.array_equal(scaled, unscaled)


TAYLOR_GRID = GridSpec(50.0, 2 ** 11)


def low_mode_field(rng, amplitude):
    """Real mean-zero field on grid modes 1..m, m random up to 63, scaled
    to the given sup norm."""
    f = band_limited(TAYLOR_GRID, rng, modes=int(rng.integers(1, 64)))
    return Field(TAYLOR_GRID, amplitude * f.samples / f.sup_norm())


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.floats(1e-4, 0.3), st.floats(1e-4, 0.3))
def test_strong_taylor_sign_without_vortices(seed, amp_w, amp_u):
    # Wu (1997): with no vortex, A1 is 1 plus a nonnegative integral, so
    # its minimum is at least 1 (to round-off) for any wave
    rng = np.random.default_rng(seed)
    state = WaveState(low_mode_field(rng, amp_w), low_mode_field(rng, amp_u))
    A1 = derive(TAYLOR_GRID, *state.arrays, state.strengths).A1
    assert refine_minimum(TAYLOR_GRID.alpha, A1)[1] >= 1.0 - 1e-12
