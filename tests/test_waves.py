"""Derived-field assembly tests: reconstruction, vortex fields, transport
coefficient, Taylor coefficient, and the evolution right-hand side."""

import math

import numpy as np
import pytest

from vortexwavelab.errors import NonFiniteStateError, VortexProximityError
from vortexwavelab.grid import Field, GridSpec, field_from_function, zero_field
from vortexwavelab.spectral import (MIN_SPACINGS, analytic_projection, cauchy_velocity,
                                    commutator_hilbert, derivative, hilbert, lambda_op, low_pass,
                                    periodic_cauchy_kernel, periodic_square_kernel,
                                    pv_commutator)
from vortexwavelab.taylor import PairConfig, a1_flat_pair
from vortexwavelab.waves import (Vortex, WaveState, assemble, chord_arc_constant,
                                 compute_Q, interface_distance, pole_kernels,
                                 reconstruct, refine_minimum, rhs)

from conftest import band_limited, per_pole

TWO_PI = 2 * math.pi


def pair_vortices(x, y, lam):
    return (Vortex(complex(-x, y), lam), Vortex(complex(x, y), -lam))


def flat_pair_state(grid, x, y, lam):
    return WaveState(zero_field(grid), zero_field(grid), pair_vortices(x, y, lam))


def odd_bump_state(grid, amp, vortices=()):
    f = field_from_function(grid, lambda a: amp * a * np.exp(-a * a / 4))
    W = Field(grid, low_pass(f).samples.real)
    return WaveState(W, Field(grid, W.samples.copy()), vortices)


# ----------------------------------------------------------------------
# reconstruction

def test_reconstruct_trivial(grid):
    Z, F, Z_alpha, _ = reconstruct(zero_field(grid), zero_field(grid))
    assert np.max(np.abs(Z.samples - grid.alpha)) == 0.0
    assert F.sup_norm() == 0.0
    assert np.max(np.abs(Z_alpha.samples - 1.0)) == 0.0


def test_reconstruct_pole_eigenrelation(grid):
    # W = Re 1/(a - i) = a/(a^2+1): Z - alpha must come out as the full
    # boundary value 1/(a - i) (periodized, mean removed)
    p = per_pole(grid, 1j)
    W = Field(grid, p.samples.real)
    Z, _, _, _ = reconstruct(W, zero_field(grid))
    expected = p.samples - p.mean()
    assert np.max(np.abs(Z.samples - grid.alpha - expected)) <= 1e-12


def test_reconstruct_holomorphic_projection(grid):
    rng = np.random.default_rng(31)
    W = band_limited(grid, rng)
    U = band_limited(grid, rng)
    Z, F, _, _ = reconstruct(W, U)
    zm = Field(grid, Z.samples - grid.alpha)
    for f, src in ((zm, W), (F, U)):
        proj = analytic_projection(f)
        resid = Field(grid, proj.samples - np.mean(proj.samples)).l2_norm()
        assert resid <= 1e-10 * (1.0 + src.l2_norm())


def test_reconstruct_rejects_complex_input(grid):
    bad = Field(grid, 1j * np.ones(grid.n_points))
    with pytest.raises(ValueError):
        reconstruct(bad, zero_field(grid))


def test_reconstruct_names_non_finite_input(grid):
    W = np.zeros(grid.n_points)
    W[7] = np.nan
    with pytest.raises(NonFiniteStateError, match="finite"):
        reconstruct(Field(grid, W), zero_field(grid))


# ----------------------------------------------------------------------
# vortex-induced fields

def test_pole_kernels_match_direct_evaluation(grid):
    # one exponential for every vortex against the tan-based periodized
    # kernels: round-off away from the curve; at the nearest approach the
    # quadratures resolve, e_j - 1 cancels (error about eps/|2s(Z - z_j)|);
    # a vortex ten half-periods deep has e_j near 0 and K2 near 0
    Z = Field(grid, grid.alpha + 0.1 * np.sin(grid.alpha / 7.0) + 0j)
    i = int(np.argmin(np.abs(grid.alpha - 3.5 * np.pi)))   # a crest of the curve
    near = Z.samples[i] - 1j * MIN_SPACINGS * grid.spacing
    cases = ((Vortex(-1 - 4j, 3.0), 1e-14), (Vortex(2 - 6j, -1.0), 1e-14),
             (Vortex(near, 1.0), 1e-12), (Vortex(0.5 - 10j * grid.half_length, 2.0), 1e-14))
    vortices = tuple(v for v, _ in cases)
    z = np.array([v.position for v in vortices])
    assert interface_distance(Z, z) >= (MIN_SPACINGS - 1e-3) * grid.spacing
    K1, K2 = pole_kernels(Z, z)
    assert K1.shape == K2.shape == (len(cases), grid.n_points)
    for (v, tol), k1, k2 in zip(cases, K1, K2):
        for k, ref in ((k1, periodic_cauchy_kernel(Z.samples - v.position, grid.half_length)),
                       (k2, periodic_square_kernel(Z.samples - v.position, grid.half_length))):
            assert np.max(np.abs(k - ref) / np.abs(ref)) <= tol


def test_compute_q_no_vortices(grid):
    Z = Field(grid, grid.alpha.astype(complex))
    assert compute_Q(Z, np.empty(0), pole_kernels(Z, np.empty(0, complex))[0]).sup_norm() == 0.0


def test_compute_q_pair_value_and_symmetry(grid):
    Z = Field(grid, grid.alpha.astype(complex))
    K1, _ = pole_kernels(Z, np.array([-1 - 2j, 1 - 2j]))
    Q = compute_Q(Z, np.array([math.pi, -math.pi]), K1)
    i0 = grid.n_points // 2          # alpha = 0
    # line value: -(pi i/2pi) [1/(1+2i) - 1/(-1+2i)] = -0.2i, periodization O(1/L^2)
    assert abs(Q.samples[i0] + 0.2j) <= 1e-4
    # exact against the periodized arithmetic
    expected = -(math.pi * 1j / TWO_PI) * (
        periodic_cauchy_kernel(0 - (-1 - 2j), grid.half_length)
        - periodic_cauchy_kernel(0 - (1 - 2j), grid.half_length))
    assert abs(Q.samples[i0] - expected) <= 1e-14
    rev = (-np.arange(grid.n_points)) % grid.n_points
    assert np.max(np.abs(Q.samples.real + Q.samples.real[rev])) <= 1e-13
    assert np.max(np.abs(Q.samples.imag - Q.samples.imag[rev])) <= 1e-13


def test_dtq_single_vortex_symbolic(grid):
    # flat frozen interface, F = 0, single vortex: the assembled DtQ must
    # equal (lam i/2pi)(Qbar - zdot) kappa2(a - z) built by hand
    lam, z = 5.0, -1.5 - 3.0j
    state = WaveState(zero_field(grid), zero_field(grid), (Vortex(z, lam),))
    d = assemble(state)
    qbar = np.conj(d.Q.samples)
    zdot = d.zdots[0]
    by_hand = (lam * 1j / TWO_PI) * (qbar - zdot) * periodic_square_kernel(
        grid.alpha - z, grid.half_length)
    assert np.max(np.abs(d.DtQ.samples - by_hand)) <= 1e-12
    assert zdot == 0.0               # single vortex, no wave


def test_dtq_and_g_decay_with_depth(grid):
    sups_dtq, sups_g = [], []
    for y in (-6.0, -9.0, -13.5):
        d = assemble(flat_pair_state(grid, 1.0, y, 10.0))
        sups_dtq.append(d.DtQ.sup_norm())
        sups_g.append(d.G.sup_norm())
    assert sups_dtq[0] > sups_dtq[1] > sups_dtq[2]
    assert sups_g[0] > sups_g[1] > sups_g[2]


def test_vortex_velocity_pair_exact(grid):
    d = assemble(flat_pair_state(grid, 1.0, -6.0, 4 * math.pi))
    assert abs(d.zdots[0] - 1j) <= 1e-12
    assert abs(d.zdots[1] - 1j) <= 1e-12


def test_vortex_velocity_small_wave_mostly_vertical(grid):
    state = odd_bump_state(grid, 1e-2, pair_vortices(1.0, -6.0, 4 * math.pi))
    d = assemble(state)
    for zd in d.zdots:
        assert abs(zd.real) < 0.1 * abs(zd.imag)


# ----------------------------------------------------------------------
# transport coefficient

def test_b_zero_cases(grid):
    d = assemble(WaveState(zero_field(grid), zero_field(grid), ()))
    assert d.b.sup_norm() == 0.0
    d = assemble(flat_pair_state(grid, 1.0, -6.0, 4 * math.pi))
    assert d.b.sup_norm() <= 1e-12       # (I-H) kills the pair trace
    assert d.b_residual <= 1e-12


def test_b_residual_bound_generic(grid):
    state = odd_bump_state(grid, 5e-2, pair_vortices(1.0, -8.0, 20.0))
    d = assemble(state)
    assert d.b_residual <= 1e-6 * (1.0 + d.b.l2_norm())


def test_b0_matches_pv_quadrature(small_grid):
    # dual path for the wave part of b: multiplier-form commutator against
    # the O(n^2) principal-value quadrature
    rng = np.random.default_rng(32)
    U = band_limited(small_grid, rng, modes=16, scale=0.05)
    W = band_limited(small_grid, rng, modes=16, scale=0.05)
    Z, F, Z_alpha, _ = reconstruct(W, U)
    g = Field(small_grid, 1.0 / Z_alpha.samples - 1.0)
    conj_F = Field(small_grid, np.conj(F.samples))
    via_mult = commutator_hilbert(conj_F, g)
    via_pv = pv_commutator(conj_F, g)
    assert np.max(np.abs(via_mult.samples - via_pv.samples)) <= 1e-8


# ----------------------------------------------------------------------
# Taylor coefficient

def test_a1_equilibrium(grid):
    d = assemble(WaveState(zero_field(grid), zero_field(grid), ()))
    assert np.max(np.abs(d.A1.samples - 1.0)) == 0.0


def test_a1_dual_path_wide_grid():
    wide = GridSpec(3200.0, 2 ** 18)
    state = flat_pair_state(wide, 1.0, -2.0, TWO_PI)
    d = assemble(state)
    oracle = a1_flat_pair(wide.alpha, PairConfig(1.0, -2.0, TWO_PI))
    assert np.max(np.abs(d.A1.samples.real - oracle)) <= 1e-6
    i0 = wide.n_points // 2
    assert d.A1.samples.real[i0] == pytest.approx(1.148, abs=2e-6)


def test_a_times_jacobian_is_a1(grid):
    state = odd_bump_state(grid, 3e-2, pair_vortices(1.0, -7.0, 15.0))
    d = assemble(state)
    lhs = d.A.samples.real * np.abs(d.Z_alpha.samples) ** 2
    assert np.max(np.abs(lhs - d.A1.samples.real)) <= 1e-10 * np.max(np.abs(d.A1.samples.real))


def test_inf_a1_refinement(grid):
    d = assemble(flat_pair_state(grid, 1.0, -6.0, 2 * math.pi * 6 ** 1.5))
    grid_min = float(np.min(d.A1.samples.real))
    assert d.inf_A1 <= grid_min + 1e-12
    from vortexwavelab.taylor import inf_a1_flat
    exact, argmin = inf_a1_flat(PairConfig(1.0, -6.0, 2 * math.pi * 6 ** 1.5))
    assert d.inf_A1 == pytest.approx(exact, abs=2e-4)
    assert abs(abs(d.argmin_alpha) - abs(argmin)) <= 0.05


def test_refine_minimum_takes_the_nonnegative_of_two_tied_minima(grid):
    # an even A1 with minima at +-a_star between nodes, where round-off makes
    # the node left of zero the smaller one
    alpha, h = grid.alpha, grid.spacing
    a_star = 6.0 + 0.3 * h
    values = 1.0 - 0.8 * np.exp(-((np.abs(alpha) - a_star) / 3.0) ** 2)
    n = len(values)
    left = int(np.argmin(np.where(alpha < 0, values, np.inf)))
    values[left] = np.nextafter(values[n - left], -np.inf)
    assert int(np.argmin(values)) == left
    a, f = refine_minimum(alpha, values)
    assert 0.0 <= a and abs(a - a_star) <= 0.05 * h
    assert f == pytest.approx(0.2, abs=1e-6)
    values[left] -= 1e-6                  # a real, not a round-off, difference
    assert refine_minimum(alpha, values)[0] < 0.0


# ----------------------------------------------------------------------
# forcing and right-hand side

def test_g_r_no_vortices(grid):
    # no vortices: no forcing of U (G) and none of W (the Re Q - b part of dW)
    state = WaveState(zero_field(grid), zero_field(grid), ())
    d = assemble(state)
    assert d.DtQ.sup_norm() == 0.0
    assert d.G.sup_norm() == 0.0
    dW, _, _ = rhs(state, d)
    assert dW.sup_norm() == 0.0


def test_r_equals_re_q_for_flat_pair(grid):
    # flat interface at rest: the W-forcing Re Q - b reduces to Re Q
    state = flat_pair_state(grid, 1.0, -6.0, 10.0)
    d = assemble(state)
    dW, _, _ = rhs(state, d)
    assert np.max(np.abs(dW.samples.real - low_pass(d.Q).samples.real)) <= 1e-12


def test_rhs_equilibrium_and_pair_forcing(grid):
    dW, dU, zd = rhs(WaveState(zero_field(grid), zero_field(grid), ()))
    assert dW.sup_norm() == 0.0 and dU.sup_norm() == 0.0 and zd.shape == (0,)
    state = flat_pair_state(grid, 1.0, -6.0, 4 * math.pi)
    d = assemble(state)
    dW, dU, zd = rhs(state, d)
    assert zd[0] == pytest.approx(1j, abs=1e-12)
    assert dU.sup_norm() > 0.0           # the pair forces the wave
    assert np.max(np.abs(dU.samples.real - low_pass(d.G).samples.real)) <= 1e-12


def test_rhs_preserves_oddness(grid):
    state = odd_bump_state(grid, 1e-2, pair_vortices(1.0, -6.0, 10.0))
    dW, dU, zd = rhs(state)
    rev = (-np.arange(grid.n_points)) % grid.n_points
    for f in (dW, dU):
        s = f.samples.real
        assert np.max(np.abs(s + s[rev])) <= 1e-8 * max(1.0, np.max(np.abs(s)))
    assert zd[0].real == pytest.approx(-zd[1].real, abs=1e-12)
    assert zd[0].imag == pytest.approx(zd[1].imag, abs=1e-12)


def test_stage_budget(monkeypatch):
    # one RHS stage (assemble + rhs) on a state the steppers produce: one
    # pole_kernels call for both vortices, no tan-based kernel, and at most
    # 23 real transforms in at most 6 transform calls.  A call on k rows
    # counts k real transforms (a complex field is two rows, its real and
    # imaginary parts).  The stage makes three stacked passes: 5 inverse
    # rows from the spectra of W and U, which _advance carries, so neither
    # is transformed again; 7 rows forward and back after the pole kernels;
    # 2 rows forward and back to low-pass dW/dt and dU/dt.
    import sys

    import scipy.fft
    from vortexwavelab import spectral, waves
    from vortexwavelab.sim import _advance, make_initial
    start = make_initial("odd_bump", 1e-3, PairConfig(1.0, -12.0, 2 * math.pi * 6.75 ** 1.5),
                         GridSpec(200.0, 2 ** 10))
    state = _advance(start, 4e-3, [rhs(start)], [4e-3])
    counts = dict.fromkeys(("transforms", "transform_calls", "periodic_cauchy_kernel",
                            "periodic_square_kernel", "pole_kernels"), 0)
    for name in ("rfft", "irfft"):
        def transform(x, *args, _fn=getattr(scipy.fft, name), **kwargs):
            counts["transform_calls"] += 1
            counts["transforms"] += int(np.prod(np.shape(x)[:-1]))
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, transform)
    modules = [m for name, m in sys.modules.items() if name.startswith("vortexwavelab")]
    for owner, name in ((spectral, "periodic_cauchy_kernel"),
                        (spectral, "periodic_square_kernel"), (waves, "pole_kernels")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    rhs(state, assemble(state))
    assert counts["pole_kernels"] == 1
    assert counts["periodic_cauchy_kernel"] == counts["periodic_square_kernel"] == 0
    assert counts["transforms"] <= 23
    assert counts["transform_calls"] <= 6


def per_operator_stage(state):
    """b, A1, A, G, dW/dt, dU/dt and the vortex velocities of a state from
    the formulas, one operator call per field and one (I - H) projection
    per vortex; the vortex velocities from the Cauchy integral.  The pole
    kernels are the stage's own (tested against the tan-based ones above):
    b is small against its parts, so the kernels' round-off would show."""
    grid = state.grid
    W, U, vortices = state.W, state.U, state.vortices
    Z = Field(grid, grid.alpha + W.samples + hilbert(W).samples)
    F = U.samples + hilbert(U).samples
    Z_a = 1.0 + derivative(W).samples - 1j * lambda_op(W).samples
    K1, K2 = pole_kernels(Z, state.positions)
    Q = np.zeros(grid.n_points, dtype=np.complex128)
    for v, k1 in zip(vortices, K1):
        Q -= (v.strength * 1j / TWO_PI) * k1
    zdots = []
    for j, v in enumerate(vortices):
        zd = np.conj(cauchy_velocity(Z, Field(grid, F), v.position))
        for k, w in enumerate(vortices):
            if k != j:
                zd += w.strength * 1j / (TWO_PI * np.conj(v.position - w.position))
        zdots.append(zd)
    DtZ = np.conj(F) + np.conj(Q)
    h = Field(grid, DtZ * (1.0 / Z_a - 1.0) + np.conj(Q))
    b = analytic_projection(h).samples.real + 2.0 * U.samples
    lam_dtz = lambda_op(Field(grid, DtZ)).samples
    lam_absq = lambda_op(Field(grid, np.abs(DtZ) ** 2)).samples
    A1 = 1.0 + (np.conj(DtZ) * lam_dtz).real - 0.5 * lam_absq
    DtQ = np.zeros(grid.n_points, dtype=np.complex128)
    for v, zd, k2 in zip(vortices, zdots, K2):
        proj = analytic_projection(Field(grid, Z_a * k2)).samples
        A1 -= (v.strength / TWO_PI) * (proj * (DtZ - zd)).real
        DtQ += (v.strength * 1j / TWO_PI) * (DtZ - zd) * k2
    A = A1 / np.abs(Z_a) ** 2
    G = -DtQ.real
    dW = low_pass(Field(grid, -b * (Z_a.real - 1.0) + U.samples + Q.real - b)).samples
    dU = low_pass(Field(grid, -b * derivative(U).samples - A * Z_a.imag + G)).samples
    return {"b": b, "A1": A1, "A": A, "G": G, "dW": dW, "dU": dU, "zdots": np.array(zdots)}


@pytest.mark.parametrize("vortices", [
    (),
    (Vortex(0.7 - 5.0j, 8.0),),
    (Vortex(-2.0 - 7.0j, 9.0), Vortex(0.5 - 5.0j, -4.0), Vortex(3.0 - 9.0j, 2.5)),
], ids=["no_vortex", "one_vortex", "asymmetric_triple"])
def test_stacked_stage_matches_the_per_operator_formulas(vortices):
    # the three stacked passes of assemble + rhs and the two-projection
    # vortex term of A1 against the formulas applied operator by operator
    grid = GridSpec(200.0, 2 ** 12)
    rng = np.random.default_rng(41)
    state = WaveState(band_limited(grid, rng, modes=48, scale=0.05),
                      band_limited(grid, rng, modes=48, scale=0.05), vortices)
    d = assemble(state)
    dW, dU, zdots = rhs(state, d)
    got = {"b": d.b.samples, "A1": d.A1.samples, "A": d.A.samples, "G": d.G.samples,
           "dW": dW.samples, "dU": dU.samples, "zdots": zdots}
    ref = per_operator_stage(state)
    for name, value in ref.items():
        scale = np.max(np.abs(value)) if value.size else 0.0
        assert np.max(np.abs(got[name] - value), initial=0.0) <= 1e-13 * scale, name


def test_steppers_carry_the_spectra_of_w_and_u():
    # the spectra _advance and reversed_state attach are the rfft of the
    # samples they go with, to round-off
    import scipy.fft
    from vortexwavelab.sim import (IntegratorConfig, make_initial, reversed_state,
                                   step_picard, step_rk4)
    grid = GridSpec(200.0, 2 ** 10)
    start = make_initial("odd_bump", 1e-3, PairConfig(1.0, -12.0, 2 * math.pi * 6.75 ** 1.5),
                         grid)
    config = IntegratorConfig(dt=4e-3, t_end=4e-3, scheme="picard", picard_tol=1e-9)
    states = (step_rk4(start, 4e-3), step_picard(start, 4e-3, config)[0])
    states += tuple(reversed_state(s) for s in states)
    for s in states:
        for f in (s.W, s.U):
            assert f._fft is not None
            direct = scipy.fft.rfft(f.samples)
            assert np.max(np.abs(f.fft - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_real_fields_stay_float64(grid):
    from vortexwavelab.sim import make_initial
    state = make_initial("odd_bump", 1e-3, PairConfig(1.0, -12.0, 2 * math.pi * 6.75 ** 1.5),
                         grid)
    d = assemble(state)
    dW, dU, _ = rhs(state, d)
    for f in (state.W, state.U, d.b, d.A1, d.A, d.G, dW, dU):
        assert f.samples.dtype == np.float64
    for op in (derivative, lambda_op, low_pass):
        assert op(state.W).samples.dtype == np.float64
    assert hilbert(state.W).samples.dtype == np.complex128


def test_diagnostics_computed_on_read(grid, monkeypatch):
    import vortexwavelab.waves as waves
    calls = []
    original = waves.chord_arc_constant
    monkeypatch.setattr(waves, "chord_arc_constant",
                        lambda Z: calls.append(1) or original(Z))
    d = assemble(flat_pair_state(grid, 1.0, -6.0, 10.0))
    rhs(flat_pair_state(grid, 1.0, -6.0, 10.0), d)
    assert calls == [] and "b_residual" not in vars(d) and "_A1_minimum" not in vars(d)
    assert d.chord_arc == d.chord_arc == pytest.approx(1.0, rel=1e-14)
    assert calls == [1]
    assert d.inf_A1 <= float(np.min(d.A1.samples)) and "_A1_minimum" in vars(d)


# ----------------------------------------------------------------------
# geometry diagnostics

def test_interface_distance_and_proximity(grid):
    state = flat_pair_state(grid, 1.0, -6.0, 1.0)
    d = assemble(state)
    # min over the grid: nearest node sits at alpha ~ +-1, giving |y| = 6
    # (the distance from alpha = 0 would be sqrt(37) ~ 6.083)
    assert d.d_I == pytest.approx(6.0, abs=1e-6)
    with pytest.raises(VortexProximityError):
        assemble(flat_pair_state(grid, 1.0, -2 * grid.spacing, 1.0))


def test_chord_arc_flat(grid):
    Z = Field(grid, grid.alpha.astype(complex))
    assert chord_arc_constant(Z) == pytest.approx(1.0, rel=1e-14)
    assert interface_distance(Z, np.empty(0, complex)) == np.inf


def test_kinematic_identity():
    # whole-system cross-check: the reconstructed interface, evolved only
    # through its real part W, must move with the physical trace velocity:
    #     d/dt (Z - alpha) = conj(F) + conj(Q) - b Z_alpha
    # up to the uniform imaginary mean mode (the map normalization pins
    # Im mean(Z - alpha) = 0, re-gauging any mean-height drift).  Any sign
    # or convention error in b, Q, F or the reconstruction breaks this.
    from vortexwavelab.sim import make_initial, step_rk4
    g = GridSpec(200.0, 2 ** 13)
    state = make_initial("odd_bump", 5e-3, PairConfig(1.0, -8.0, 40.0), g)
    for _ in range(10):
        state = step_rk4(state, 2e-3)
    dt = 1e-3
    sp = step_rk4(state, dt)
    sm = step_rk4(state, -dt)
    Zp, _, _, _ = reconstruct(sp.W, sp.U)
    Zm, _, _, _ = reconstruct(sm.W, sm.U)
    dZdt = (Zp.samples - Zm.samples) / (2 * dt)
    d = assemble(state)
    velocity = (np.conj(d.F.samples) + np.conj(d.Q.samples)
                - d.b.samples.real * d.Z_alpha.samples)
    velocity = low_pass(Field(g, velocity)).samples
    mismatch = dZdt - velocity
    gauge = mismatch.mean()
    assert abs(gauge.real) <= 1e-10                   # drift is purely vertical
    assert np.max(np.abs(mismatch - gauge)) <= 1e-6   # identity modulo gauge
    # and the gauge mode is exactly the re-normalized mean-height drift
    assert gauge.imag == pytest.approx(-np.mean(velocity).imag, abs=1e-10)


def test_asymmetric_three_vortex_smoke(grid):
    # the data model supports general vortex configurations; one step of a
    # lopsided triple must stay finite with the b-residual at noise level
    from vortexwavelab.sim import step_rk4
    vortices = (Vortex(-2.0 - 7.0j, 9.0), Vortex(0.5 - 5.0j, -4.0),
                Vortex(3.0 - 9.0j, 2.5))
    state = WaveState(zero_field(grid), zero_field(grid), vortices)
    d = assemble(state)
    assert d.b_residual <= 1e-6 * (1.0 + d.b.l2_norm())
    after = step_rk4(state, 2e-3)
    assert np.all(np.isfinite(after.W.samples))
    d2 = assemble(after)
    assert np.isfinite(d2.inf_A1)
