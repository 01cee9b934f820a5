"""Gevrey-norm, radius-schedule, energy, and embedding tests."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from vortexwavelab.errors import RadiusExhaustedError
from vortexwavelab.gevrey import (GevreyParams, embedding_bound, energy,
                                  gevrey_norm, radius)
from vortexwavelab.grid import Field, field_from_function, zero_field
from vortexwavelab.spectral import derivative, hilbert

from conftest import band_limited, canonical_start, mean_zero, per_pole


def test_params_validation():
    with pytest.raises(ValueError):
        GevreyParams(L0=2.0, delta0=1.0)
    with pytest.raises(ValueError):
        GevreyParams(L0=10.0, delta0=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="L0 must be finite"):
            GevreyParams(L0=bad, delta0=1.0)
        with pytest.raises(ValueError, match="delta0 must be finite"):
            GevreyParams(L0=10.0, delta0=bad)
    assert [f.name for f in dataclasses.fields(GevreyParams)] == ["L0", "delta0"]


def test_zero_field_all_kinds(grid):
    z = zero_field(grid)
    for kind in ("X", "Xd", "Y", "Yd"):
        assert gevrey_norm(z, 3.0, kind).value == 0.0


def test_report_invariants(grid):
    # value**2 is the order sum sigma^(2n)/(n!)^4 ||d^n f||^2 over the modes
    # below the band edge, which ends right above the field's 32 modes
    rng = np.random.default_rng(11)
    f = band_limited(grid, rng)
    rep = gevrey_norm(f, 2.0, "X")
    assert [fld.name for fld in dataclasses.fields(rep)] == ["value", "band_edge"]
    assert rep.band_edge == 33
    power = np.abs(f.fft[:33]) ** 2 * (grid.spacing / grid.n_points)
    power[1:] *= 2.0
    k2 = grid.wavenumbers[:33] ** 2
    orders = sum(2.0 ** (2 * n) / math.factorial(n) ** 4 * np.sum(power * k2 ** n)
                 for n in range(41))
    assert rep.value ** 2 == pytest.approx(orders, rel=1e-12)


def test_sigma_must_be_positive(grid):
    with pytest.raises(ValueError):
        gevrey_norm(zero_field(grid), 0.0, "X")
    with pytest.raises(ValueError):
        gevrey_norm(zero_field(grid), -1.0, "X")


def test_x_norm_leading_term_double_pole(grid):
    # ||1/(a+i)^2||_L2^2 = integral da/(a^2+1)^2 = pi/2 (residue oracle),
    # the one term by which Y exceeds Yd
    f = per_pole(grid, -1j, order=2)
    y = gevrey_norm(f, 1.0, "Y").value
    yd = gevrey_norm(f, 1.0, "Yd").value
    assert y * y - yd * yd == pytest.approx(math.pi / 2, rel=1e-6)


def test_hilbert_unitarity_all_kinds(grid):
    rng = np.random.default_rng(12)
    for _ in range(4):
        f = band_limited(grid, rng)
        hf = hilbert(f)
        for kind in ("X", "Xd", "Y", "Yd"):
            for sigma in (1.0, 5.0, 10.0):
                a = gevrey_norm(f, sigma, kind).value
                b = gevrey_norm(hf, sigma, kind).value
                assert abs(a - b) <= 1e-10 * a


def test_monotonicity_in_sigma_and_kind_ordering(grid):
    rng = np.random.default_rng(13)
    f = band_limited(grid, rng, modes=16)
    x1 = gevrey_norm(f, 1.0, "X").value
    x2 = gevrey_norm(f, 2.5, "X").value
    x3 = gevrey_norm(f, 6.0, "X").value
    assert x1 <= x2 <= x3
    for sigma in (1.0, 4.0):
        xd = gevrey_norm(f, sigma, "Xd").value
        assert xd <= gevrey_norm(f, sigma, "X").value + 1e-15
        assert xd <= gevrey_norm(f, sigma, "Yd").value + 1e-15


def test_double_pole_norm_finite_with_decaying_tail(grid):
    # 1/(a - w)^2, Im w < 0: X_sigma is finite for every sigma; the
    # spectrum decays like exp(-|Im w| k), so it reaches the floor well
    # below the Nyquist mode and the field reads as resolved.
    for w, sigma in ((-1j, 6.0), (-1j, 3.0), (-2j, 12.0)):
        f = per_pole(grid, w, order=2)
        rep = gevrey_norm(f, sigma, "X")
        assert np.isfinite(rep.value)
        assert rep.band_edge < grid.n_points // 2


def test_roundoff_guard_fires_on_noisy_field(grid):
    # content up to the Nyquist mode above the spectral floor: the band
    # never ends, so the report marks the field as unresolved.
    rng = np.random.default_rng(14)
    smooth = band_limited(grid, rng, modes=8)
    noise = 1e-8 * rng.normal(size=grid.n_points)
    f = Field(grid, smooth.samples.real + noise)
    rep = gevrey_norm(f, 10.0, "X")
    assert rep.band_edge == grid.n_points // 2 + 1
    assert np.isfinite(rep.value)


def test_spectrum_floor_guards_machine_noise(grid):
    # transform-level noise (1e-15 relative) is what real fields carry;
    # the band ends below it, so it stays out of the sum entirely.
    rng = np.random.default_rng(18)
    smooth = band_limited(grid, rng, modes=8)
    noisy = Field(grid, smooth.samples.real
                  + 1e-15 * smooth.sup_norm() * rng.normal(size=grid.n_points))
    clean = gevrey_norm(smooth, 10.0, "X")
    rep = gevrey_norm(noisy, 10.0, "X")
    assert rep.band_edge == clean.band_edge == 9
    assert rep.value == pytest.approx(clean.value, rel=1e-9)


def test_radius_schedule():
    p = GevreyParams(L0=10.0, delta0=1000.0)
    assert radius(0.0, p) == 10.0
    assert radius(p.L0 / (2 * p.delta0), p) == pytest.approx(5.0, rel=1e-15)
    assert radius(0.004, p) == pytest.approx(6.0, rel=1e-15)
    with pytest.raises(RadiusExhaustedError):
        radius(0.011, p)
    with pytest.raises(ValueError):
        radius(-1.0, p)
    half = GevreyParams.halving_at(0.6, L0=8.0)
    assert half.phi(0.0) == 8.0 and half.phi(0.6) == pytest.approx(4.0, rel=1e-15)
    assert GevreyParams.halving_at(0.0).L0 == 10.0


def test_energy_zero_and_w_only(grid):
    p = GevreyParams(L0=10.0, delta0=1.0)
    assert energy(zero_field(grid), zero_field(grid), 0.0, p) == 0.0
    rng = np.random.default_rng(15)
    W = band_limited(grid, rng, modes=12)
    a = gevrey_norm(derivative(W), 10.0, "X").value
    assert energy(W, zero_field(grid), 0.0, p) == pytest.approx(a * a / 2, rel=1e-12)


def test_energy_against_extended_precision_summation(grid):
    # independent oracle: same power spectrum, but exact-factorial weights
    # summed term by term at 60-digit precision
    rng = np.random.default_rng(16)
    W = band_limited(grid, rng, modes=10)
    U = band_limited(grid, rng, modes=10)
    p = GevreyParams(L0=8.0, delta0=1.0)
    got = energy(W, U, 0.0, p)

    def norm_sq(field, weight):
        # the full spectrum in fftfreq order, independent of Field.fft
        power = (np.abs(np.fft.fft(field.samples)) ** 2) * (grid.spacing / grid.n_points)
        pmax = power.max()
        power[power < pmax * 1e-26] = 0.0
        k = np.abs(2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing))
        total = mpmath.mpf(0)
        with mpmath.workdps(60):
            for n in range(0, 41):
                dn = float(np.sum(power * k ** (2 * n)))
                total += weight(n) * mpmath.mpf(dn) * mpmath.mpf(8.0) ** (2 * n) / mpmath.factorial(n) ** 4
        return total

    ew = norm_sq(derivative(W), lambda n: 1)
    eu = norm_sq(U, lambda n: n * n)
    oracle = 0.5 * float(ew + eu)
    assert got == pytest.approx(oracle, rel=1e-10)


def test_energy_round_off_sensitivity_at_the_smallest_radius(grid):
    # E_gevrey, which the AS2 flag reads, on states of the canonical run at
    # t <= 0.24: 1e-14 relative noise on W and U moves it by at most 1e-10
    # relative at L0 = 4 and at L0 = 10 (5e-15 and 1.1e-13 measured; the
    # order sum with its round-off guards moved it by 4.4e-5 and 5.6e-2),
    # so a change that only reorders round-off does not read as physics.
    from vortexwavelab.sim import step_rk4
    state = canonical_start(grid.n_points)
    rng = np.random.default_rng(17)
    worst = {4.0: 0.0, 10.0: 0.0}
    for step in range(1, 61):
        state = step_rk4(state, 4e-3)
        if step not in (4, 8, 16, 32, 60):
            continue
        W, U = state.W.samples, state.U.samples
        for L0 in worst:
            params = GevreyParams(L0=L0, delta0=5.0)
            e0 = energy(Field(grid, W), Field(grid, U), state.t, params)
            for _ in range(3):
                noisy = [Field(grid, f * (1.0 + 1e-14 * rng.standard_normal(f.size)))
                         for f in (W, U)]
                worst[L0] = max(worst[L0], abs(energy(*noisy, state.t, params) - e0) / e0)
    assert state.t == pytest.approx(0.24)
    assert worst[4.0] <= 1e-10
    assert worst[10.0] <= 1e-10


def test_energy_radius_exhaustion(grid):
    p = GevreyParams(L0=10.0, delta0=1000.0)
    with pytest.raises(RadiusExhaustedError):
        energy(zero_field(grid), zero_field(grid), 1.0, p)


def test_embedding_bound_cases(grid):
    assert embedding_bound(zero_field(grid), 1.0, 0) == 0.0
    m = 64
    k = grid.wavenumbers[m]
    c = field_from_function(grid, lambda a: np.cos(k * a))
    bound = embedding_bound(c, 1.0, 0)
    assert bound >= c.sup_norm() >= 0.999
    lorentz = mean_zero(Field(grid, (per_pole(grid, 1j).samples
                                     - per_pole(grid, -1j).samples) / 2j))
    b1 = embedding_bound(lorentz, 2.0, 1)
    assert derivative(lorentz).sup_norm() <= b1


def test_embedding_bound_never_exceeded(grid):
    rng = np.random.default_rng(17)
    for _ in range(5):
        f = band_limited(grid, rng, modes=24)
        for n in (0, 1, 3):
            for sigma in (1.0, 3.0):
                measured = derivative(f, n).sup_norm()
                assert measured <= embedding_bound(f, sigma, n)
