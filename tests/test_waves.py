"""Derived-field assembly tests: reconstruction, vortex fields, transport
coefficient, Taylor coefficient, and the evolution right-hand side."""

import math

import numpy as np
import pytest

from vortexwavelab.errors import NonFiniteStateError, VortexProximityError
from vortexwavelab.grid import Field, GridSpec, field_from_function, zero_field
from vortexwavelab.spectral import (MIN_SPACINGS, analytic_projection, apply_multiplier,
                                    cauchy_velocity, commutator_hilbert, derivative, hilbert,
                                    lambda_op, low_pass,
                                    periodic_cauchy_kernel, periodic_square_kernel,
                                    pv_commutator, sq_diff_integral)
from vortexwavelab.taylor import PairConfig, a1_flat_pair
from vortexwavelab.waves import (Derived, Vortex, WaveState, assemble, b_residual,
                                 chord_arc_constant, compute_Q, derive, interface_distance,
                                 pole_kernels, reconstruct, refine_minimum, rhs)

from conftest import band_limited, canonical_start, count_transforms, per_pole

TWO_PI = 2 * math.pi


def pair_vortices(x, y, lam):
    return (Vortex(complex(-x, y), lam), Vortex(complex(x, y), -lam))


def flat_pair_state(grid, x, y, lam):
    return WaveState(zero_field(grid), zero_field(grid), pair_vortices(x, y, lam))


def odd_bump_state(grid, amp, vortices=()):
    f = field_from_function(grid, lambda a: amp * a * np.exp(-a * a / 4))
    W = Field(grid, low_pass(f).samples.real)
    return WaveState(W, Field(grid, W.samples.copy()), vortices)


def reconstructed(W, U):
    """(Z, F, Z_alpha, F_alpha) of the Fields W and U."""
    return reconstruct(W.grid, W.fft, U.fft)


def record_of(state):
    """The :class:`Derived` record of a state."""
    return derive(state.grid, *state.arrays, state.strengths)


def state_rhs(state, record=None):
    """(dW/dt, dU/dt, dz/dt) at a state, given its Derived record or not:
    the samples of the half spectra rhs returns."""
    dw_hat, du_hat, zdots = rhs(state.grid, state.arrays, state.strengths, record)
    dw, du = np.fft.irfft((dw_hat, du_hat), state.grid.n_points)
    return dw, du, zdots


def sup(a):
    return np.max(np.abs(a))


# ----------------------------------------------------------------------
# reconstruction

def test_reconstruct_trivial(grid, monkeypatch):
    # a zero W or U spectrum transforms nothing: a zero W gives Z = alpha and
    # Z_a = 1 exactly and leaves F and F_a the bytes they are beside a nonzero
    # W, and the other way round.  A zero W or U leaves the other field's two
    # complex transforms, 4 real transforms in 2 calls, and both zero make
    # none.  Every array returned is its own: none is a view or read-only.
    rng = np.random.default_rng(11)
    w_hat, u_hat = band_limited(grid, rng).fft, band_limited(grid, rng).fft
    zero = zero_field(grid).fft
    Z, F, Z_alpha, F_alpha = reconstruct(grid, w_hat, u_hat)
    counts = {"transforms": 0, "transform_calls": 0}
    count_transforms(monkeypatch, counts)
    for spectra, budget in (((zero, u_hat), (4, 2)), ((w_hat, zero), (4, 2)),
                            ((zero, zero), (0, 0))):
        counts.update(transforms=0, transform_calls=0)
        got = reconstruct(grid, *spectra)
        assert (counts["transforms"], counts["transform_calls"]) == budget
        if spectra[0] is zero:
            assert np.all(got[0] == grid.alpha) and np.all(got[2] == 1.0)
        else:
            assert got[0].tobytes() == Z.tobytes() and got[2].tobytes() == Z_alpha.tobytes()
        if spectra[1] is zero:
            assert np.all(got[1] == 0.0) and np.all(got[3] == 0.0)
        else:
            assert got[1].tobytes() == F.tobytes() and got[3].tobytes() == F_alpha.tobytes()
        assert all(a.flags.owndata and a.flags.writeable for a in got)


def real_row_traces(grid, w_hat, u_hat):
    """(Z, F, Z_alpha, F_alpha) in the real-row form: the rows W, CW, dW/da
    and |D| W of each field from one inverse pass, interleaved part by part
    into Z = alpha + W + iCW and Z_a = 1 + W_a - i|D|W, and the same of U."""
    multipliers = (1.0, grid.i_sgn, grid.ik, grid.wavenumbers)
    traces = []
    for f_hat, offset, slope in ((w_hat, grid.alpha, 1.0), (u_hat, 0.0, 0.0)):
        f, c_f, f_a, lam_f = apply_multiplier(grid, multipliers, spectra=(f_hat,) * 4)
        for re, im in ((offset + f, c_f), (slope + f_a, -lam_f)):
            trace = np.empty(grid.n_points, dtype=np.complex128)
            trace.real, trace.imag = re, im
            traces.append(trace)
    Z, Z_alpha, F, F_alpha = traces
    return Z, F, Z_alpha, F_alpha


@pytest.mark.parametrize("n", [2 ** 10, 2 ** 14])
def test_reconstruct_matches_the_real_row_form(n):
    # each trace is one complex transform of a one-sided spectrum; on random
    # states over the whole band, the Nyquist mode included, it gives the
    # real-row form to round-off, also when the mean mode carries an
    # imaginary part, which both forms read as irfft does: not at all
    grid = GridSpec(200.0, n)
    rng = np.random.default_rng(n)
    for imaginary_mean in (False, False, True):
        w_hat, u_hat = (np.fft.rfft(rng.normal(size=n) * scale) for scale in (1e-2, 1.0))
        assert np.all(w_hat[[0, -1]] != 0) and np.all(u_hat[[0, -1]] != 0)
        if imaginary_mean:
            w_hat[0] += 1j
            u_hat[0] -= 1j
        for got, ref in zip(reconstruct(grid, w_hat, u_hat), real_row_traces(grid, w_hat, u_hat)):
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_reconstruct_pole_eigenrelation(grid):
    # W = Re 1/(a - i) = a/(a^2+1): Z - alpha must come out as the full
    # boundary value 1/(a - i) (periodized, mean removed)
    p = per_pole(grid, 1j)
    W = Field(grid, p.samples.real)
    Z, _, _, _ = reconstructed(W, zero_field(grid))
    expected = p.samples - p.mean()
    assert sup(Z - grid.alpha - expected) <= 1e-12


def test_reconstruct_holomorphic_projection(grid):
    rng = np.random.default_rng(31)
    W = band_limited(grid, rng)
    U = band_limited(grid, rng)
    Z, F, _, _ = reconstructed(W, U)
    for f, src in ((Field(grid, Z - grid.alpha), W), (Field(grid, F), U)):
        proj = analytic_projection(f)
        resid = Field(grid, proj.samples - np.mean(proj.samples)).l2_norm()
        assert resid <= 1e-10 * (1.0 + src.l2_norm())


def test_wave_state_rejects_complex_input(grid):
    # the stage works on the real samples of W and U, which the state checks
    bad = Field(grid, 1j * np.ones(grid.n_points))
    with pytest.raises(ValueError, match="real"):
        WaveState(bad, zero_field(grid))
    with pytest.raises(ValueError, match="real"):
        WaveState(zero_field(grid), bad)


def test_reconstruct_names_non_finite_input(grid):
    W = np.zeros(grid.n_points)
    W[7] = np.nan
    with pytest.raises(NonFiniteStateError, match="finite"):
        reconstructed(Field(grid, W), zero_field(grid))


# ----------------------------------------------------------------------
# vortex-induced fields

def test_pole_kernels_match_direct_evaluation(grid):
    # one exponential for every vortex against the tan-based periodized
    # kernels: round-off away from the curve; at the nearest approach the
    # quadratures resolve, e_j - 1 cancels (error about eps/|2s(Z - z_j)|);
    # a vortex ten half-periods deep has e_j near 0 and K2 near 0
    Z = grid.alpha + 0.1 * np.sin(grid.alpha / 7.0) + 0j
    i = int(np.argmin(np.abs(grid.alpha - 3.5 * np.pi)))   # a crest of the curve
    near = Z[i] - 1j * MIN_SPACINGS * grid.spacing
    cases = ((Vortex(-1 - 4j, 3.0), 1e-14), (Vortex(2 - 6j, -1.0), 1e-14),
             (Vortex(near, 1.0), 1e-12), (Vortex(0.5 - 10j * grid.half_length, 2.0), 1e-14))
    vortices = tuple(v for v, _ in cases)
    z = np.array([v.position for v in vortices])
    assert interface_distance(Z, z) >= (MIN_SPACINGS - 1e-3) * grid.spacing
    K1, K2 = pole_kernels(grid, Z, z)
    assert K1.shape == K2.shape == (len(cases), grid.n_points)
    for (v, tol), k1, k2 in zip(cases, K1, K2):
        for k, ref in ((k1, periodic_cauchy_kernel(Z - v.position, grid.half_length)),
                       (k2, periodic_square_kernel(Z - v.position, grid.half_length))):
            assert np.max(np.abs(k - ref) / np.abs(ref)) <= tol


def test_compute_q_no_vortices(grid):
    Z = grid.alpha.astype(complex)
    assert sup(compute_Q(grid, np.empty(0), pole_kernels(grid, Z, np.empty(0, complex))[0])) == 0.0


def test_compute_q_pair_value_and_symmetry(grid):
    Z = grid.alpha.astype(complex)
    K1, _ = pole_kernels(grid, Z, np.array([-1 - 2j, 1 - 2j]))
    Q = compute_Q(grid, np.array([math.pi, -math.pi]), K1)
    i0 = grid.n_points // 2          # alpha = 0
    # line value: -(pi i/2pi) [1/(1+2i) - 1/(-1+2i)] = -0.2i, periodization O(1/L^2)
    assert abs(Q[i0] + 0.2j) <= 1e-4
    # exact against the periodized arithmetic
    expected = -(math.pi * 1j / TWO_PI) * (
        periodic_cauchy_kernel(0 - (-1 - 2j), grid.half_length)
        - periodic_cauchy_kernel(0 - (1 - 2j), grid.half_length))
    assert abs(Q[i0] - expected) <= 1e-14
    rev = (-np.arange(grid.n_points)) % grid.n_points
    assert sup(Q.real + Q.real[rev]) <= 1e-13
    assert sup(Q.imag - Q.imag[rev]) <= 1e-13


def test_zero_fields_derive_as_zero_samples(grid, monkeypatch):
    # zero fields held as their zero half spectra derive, bit for bit, what
    # fields built from zero samples do, with W, U or both zero; and neither
    # zero spectrum, held or transformed from zero samples, is transformed
    # back: a derive makes 12 real transforms in 6 calls less the 2 complex
    # transforms (4 real) of each zero field
    bump = band_limited(grid, np.random.default_rng(5), scale=1e-2)
    counts = {"transforms": 0, "transform_calls": 0}
    count_transforms(monkeypatch, counts)
    for zero, budget in (("WU", (4, 2)), ("W", (8, 4)), ("U", (8, 4))):
        held, sampled = (
            WaveState(*(form() if name in zero else bump for name in "WU"),
                      pair_vortices(1.0, -6.0, 4 * math.pi))
            for form in (lambda: zero_field(grid), lambda: Field(grid, np.zeros(grid.n_points))))
        inputs = [(*s.arrays, s.strengths) for s in (held, sampled)]  # rfft of sampled zeros
        records = []
        for args in inputs:
            counts.update(transforms=0, transform_calls=0)
            records.append(derive(grid, *args))
            assert (counts["transforms"], counts["transform_calls"]) == budget, zero
        for name, a, b in zip(Derived._fields, *records):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (zero, name)


@pytest.mark.parametrize("vortices", [pair_vortices(1.0, -6.0, 4 * math.pi), ()],
                         ids=["pair", "no_vortex"])
def test_assemble_is_the_record_of_derive_as_fields(grid, vortices):
    # assemble is derive's record with a Field over each sampled array and
    # zdots and d_I as they are, bit for bit, and keeps no record beside it
    # (the parent's DerivedFields class had no _fields and kept .record)
    state = odd_bump_state(grid, 1e-2, vortices)
    d, record = assemble(state), derive(grid, *state.arrays, state.strengths)
    assert d._fields == Derived._fields and not hasattr(d, "record")
    for name, value in zip(Derived._fields[:-2], record):
        got = getattr(d, name).samples
        assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), name
    assert d.zdots.tobytes() == record.zdots.tobytes() and d.d_I == record.d_I


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
    state = flat_pair_state(grid, 1.0, -6.0, 4 * math.pi)
    d = assemble(state)
    assert d.b.sup_norm() <= 1e-12       # (I-H) kills the pair trace
    assert b_residual(grid, record_of(state)) <= 1e-12


def test_b_residual_bound_generic(grid):
    state = odd_bump_state(grid, 5e-2, pair_vortices(1.0, -8.0, 20.0))
    d = assemble(state)
    assert b_residual(grid, record_of(state)) <= 1e-6 * (1.0 + d.b.l2_norm())


def test_b0_matches_pv_quadrature(small_grid):
    # dual path for the wave part of b: multiplier-form commutator against
    # the principal-value trapezoid quadrature
    rng = np.random.default_rng(32)
    U = band_limited(small_grid, rng, modes=16, scale=0.05)
    W = band_limited(small_grid, rng, modes=16, scale=0.05)
    Z, F, Z_alpha, _ = reconstructed(W, U)
    g = Field(small_grid, 1.0 / Z_alpha - 1.0)
    conj_F = Field(small_grid, np.conj(F))
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
    argmin_alpha, inf_A1 = refine_minimum(grid.alpha, d.A1.samples)
    assert inf_A1 <= grid_min + 1e-12
    from vortexwavelab.taylor import inf_a1_flat
    exact, argmin = inf_a1_flat(PairConfig(1.0, -6.0, 2 * math.pi * 6 ** 1.5))
    assert inf_A1 == pytest.approx(exact, abs=2e-4)
    assert abs(abs(argmin_alpha) - abs(argmin)) <= 0.05


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
    dW, _, _ = state_rhs(state, record_of(state))
    assert sup(dW) == 0.0


def test_r_equals_re_q_for_flat_pair(grid):
    # flat interface at rest: the W-forcing Re Q - b reduces to Re Q
    state = flat_pair_state(grid, 1.0, -6.0, 10.0)
    d = assemble(state)
    dW, _, _ = state_rhs(state, record_of(state))
    assert sup(dW - low_pass(d.Q).samples.real) <= 1e-12


def test_rhs_equilibrium_and_pair_forcing(grid):
    dW, dU, zd = state_rhs(WaveState(zero_field(grid), zero_field(grid), ()))
    assert sup(dW) == 0.0 and sup(dU) == 0.0 and zd.shape == (0,)
    state = flat_pair_state(grid, 1.0, -6.0, 4 * math.pi)
    d = assemble(state)
    dW, dU, zd = state_rhs(state, record_of(state))
    assert zd[0] == pytest.approx(1j, abs=1e-12)
    assert sup(dU) > 0.0                 # the pair forces the wave
    assert sup(dU - low_pass(d.G).samples.real) <= 1e-12


def test_rhs_preserves_oddness(grid):
    state = odd_bump_state(grid, 1e-2, pair_vortices(1.0, -6.0, 10.0))
    dW, dU, zd = state_rhs(state)
    rev = (-np.arange(grid.n_points)) % grid.n_points
    for s in (dW, dU):
        assert sup(s + s[rev]) <= 1e-8 * max(1.0, sup(s))
    assert zd[0].real == pytest.approx(-zd[1].real, abs=1e-12)
    assert zd[0].imag == pytest.approx(zd[1].imag, abs=1e-12)


def test_stage_budget(monkeypatch):
    # one RHS stage (rhs) on a stage layout the steppers produce: one
    # pole_kernels call for both vortices, no tan-based kernel, and exactly
    # 14 real transforms in 7 transform calls, with or without vortices.  A
    # real call on k rows counts k real transforms, a complex n-point
    # transform 2.  The stage makes three passes: Z, Z_a, F and F_a, one
    # complex transform each (8) from the spectra of W and U, which _advance
    # carries, so neither is transformed forward; 2 rows (C Im g and
    # C Re P) forward and back after the pole kernels; 2 rows forward to
    # low-pass dW/dt and dU/dt, which stay spectra.  The transforms are
    # counted at np.fft, the one backend of the package.
    import sys

    from vortexwavelab import spectral, waves
    from vortexwavelab.sim import _advance, make_initial
    start = canonical_start(2 ** 10)
    grid = start.grid
    starts = (start, make_initial("odd_bump", 1e-3, None, grid))
    stages = [_advance(s.arrays, [rhs(grid, s.arrays, s.strengths)], [4e-3]) for s in starts]
    counts = dict.fromkeys(("transforms", "transform_calls", "periodic_cauchy_kernel",
                            "periodic_square_kernel", "pole_kernels"), 0)
    count_transforms(monkeypatch, counts)
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
    for start, y, transforms in zip(starts, stages, (14, 14)):
        counts.update(dict.fromkeys(counts, 0))
        rhs(grid, y, start.strengths)
        assert counts["pole_kernels"] == 1
        assert counts["periodic_cauchy_kernel"] == counts["periodic_square_kernel"] == 0
        assert counts["transforms"] == transforms
        assert counts["transform_calls"] == 7


@pytest.mark.parametrize("case, budget", [("nonzero", (12, 6)), ("W zero", (8, 4)),
                                          ("U zero", (8, 4)), ("zero_field", (4, 2)),
                                          ("zero_wave", (4, 2)), ("no vortex", (4, 2))])
def test_derive_budget_of_zero_spectra(monkeypatch, case, budget):
    # derive with the pair on 2^10 points makes 12 real transforms in 6
    # calls: the 4 complex transforms of Z, Z_a, F and F_a (reconstruct, 8)
    # and 2 rows forward and back after the pole kernels, with or without
    # vortices.  A zero W or U spectrum saves its 2 complex transforms,
    # whether the zero is held (zero_field, as make_initial's zero_wave
    # holds it) or transformed from samples that hold -0.0 (the zero_wave
    # case, the low-passed zero bump).
    start = canonical_start(2 ** 10)
    grid = start.grid
    pair = dict(positions=start.positions, strengths=start.strengths)
    zero_bump = low_pass(field_from_function(grid, lambda a: 0.0 * a * np.exp(-a * a / 4.0)))
    states = {
        "nonzero": start,
        "W zero": WaveState(zero_field(grid), start.U, **pair),
        "U zero": WaveState(start.W, zero_field(grid), **pair),
        "zero_field": WaveState(zero_field(grid), zero_field(grid), **pair),
        "zero_wave": WaveState(zero_bump, Field.from_spectrum(grid, zero_bump.fft),
                               pair_vortices(1.0, -2.0, TWO_PI)),
        "no vortex": WaveState(zero_field(grid), zero_field(grid)),
    }
    state = states[case]
    if case == "zero_wave":   # an allocated zero spectrum that holds a -0.0
        assert state.W.fft.flags.owndata and np.any(np.signbit(state.W.fft.real))
    y = state.arrays
    counts = {"transforms": 0, "transform_calls": 0}
    count_transforms(monkeypatch, counts)
    derive(grid, *y, state.strengths)
    assert (counts["transforms"], counts["transform_calls"]) == budget


def test_run_step_budget(monkeypatch):
    # an RK4 step of run_simulation with vortices takes 56 real transforms:
    # the first stage on the state's record (its low-pass, 2), three full
    # stages (42) and the derive of the new state (the stage without its
    # low-pass, 12).  The new state's W and U stay half spectra, so a
    # monitored row adds the 2 inverse transforms of their samples to the
    # monitor's b_residual (one complex forward transform, 2).  Two runs that
    # differ by one step, each monitoring its first and last rows only,
    # differ by one step's transforms; monitoring the two middle rows of
    # the longer run adds two rows' transforms.  Building the initial state
    # takes one forward transform, of the bump it low-passes.
    from vortexwavelab.sim import IntegratorConfig, run_simulation
    counts = {"transforms": 0, "transform_calls": 0}
    count_transforms(monkeypatch, counts)
    totals = []
    for steps, stride in ((2, 2), (3, 3), (3, 1)):
        counts.update(dict.fromkeys(counts, 0))
        start = canonical_start(2 ** 10)
        assert (counts.get("rfft", 0), counts.get("irfft", 0)) == (1, 0)
        counts.update(transforms=0)
        res = run_simulation(start, IntegratorConfig(dt=2e-3, t_end=steps * 2e-3),
                             stride=stride)
        assert res.exit_reason == "completed" and len(res.records) == 1 + steps // stride
        totals.append(counts["transforms"])
    assert totals[1] - totals[0] == 56
    assert totals[2] - totals[1] == 2 * (2 + 2)


def per_operator_stage(state):
    """b, A1, A, G, dW/dt, dU/dt and the vortex velocities of a state from
    the formulas, one operator call per field and one (I - H) projection
    per vortex; the vortex velocities from the Cauchy integral.  The pole
    kernels are the stage's own (tested against the tan-based ones above):
    b is small against its parts, so the kernels' round-off would show."""
    grid = state.grid
    W, U, vortices = state.W, state.U, list(zip(state.positions, state.strengths))
    Z = Field(grid, grid.alpha + W.samples + hilbert(W).samples)
    F = U.samples + hilbert(U).samples
    Z_a = 1.0 + derivative(W).samples - 1j * lambda_op(W).samples
    # copied out of the workspace, which the operators below write into
    K1, K2 = (k.copy() for k in pole_kernels(grid, Z.samples, state.positions))
    Q = np.zeros(grid.n_points, dtype=np.complex128)
    for (_, lam), k1 in zip(vortices, K1):
        Q -= (lam * 1j / TWO_PI) * k1
    zdots = []
    for j, (z, _) in enumerate(vortices):
        zd = np.conj(cauchy_velocity(Z, Field(grid, F), z))
        for k, (z_k, lam_k) in enumerate(vortices):
            if k != j:
                zd += lam_k * 1j / (TWO_PI * np.conj(z - z_k))
        zdots.append(zd)
    DtZ = np.conj(F) + np.conj(Q)
    h = Field(grid, DtZ * (1.0 / Z_a - 1.0) + np.conj(Q))
    b = analytic_projection(h).samples.real + 2.0 * U.samples
    lam_dtz = lambda_op(Field(grid, DtZ)).samples
    lam_absq = lambda_op(Field(grid, np.abs(DtZ) ** 2)).samples
    A1 = 1.0 + (np.conj(DtZ) * lam_dtz).real - 0.5 * lam_absq
    DtQ = np.zeros(grid.n_points, dtype=np.complex128)
    for (_, lam), zd, k2 in zip(vortices, zdots, K2):
        proj = analytic_projection(Field(grid, Z_a * k2)).samples
        A1 -= (lam / TWO_PI) * (proj * (DtZ - zd)).real
        DtQ += (lam * 1j / TWO_PI) * (DtZ - zd) * k2
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
    dW, dU, zdots = state_rhs(state, record_of(state))
    got = {"b": d.b.samples, "A1": d.A1.samples, "A": d.A.samples, "G": d.G.samples,
           "dW": dW, "dU": dU, "zdots": zdots}
    ref = per_operator_stage(state)
    for name, value in ref.items():
        scale = np.max(np.abs(value)) if value.size else 0.0
        assert np.max(np.abs(got[name] - value), initial=0.0) <= 1e-13 * scale, name


IDENTITY_VORTICES = {
    "no_vortex": (),
    "pair_1.5_deep": pair_vortices(1.0, -1.5, 6.0),
    "pair_3_deep": pair_vortices(2.0, -3.0, 20.0),
    "one_vortex": (Vortex(0.5 - 2.0j, 9.0),),
    "three_vortices": (Vortex(-1.0 - 1.5j, 5.0), Vortex(0.7 - 2.2j, -7.0),
                       Vortex(2.5 - 3.0j, 3.0)),  # grows the grid's workspace
}


def identity_case(name):
    """An assembled state at n = 2^12 under a 1e-2 odd bump, and
    G1 = sum_j lam_j Z_a K2_j from the tan-based kernel."""
    grid = GridSpec(200.0, 2 ** 12)
    vortices = IDENTITY_VORTICES[name]
    d = assemble(odd_bump_state(grid, 1e-2, vortices))
    K2 = [periodic_square_kernel(d.Z.samples - v.position, grid.half_length) for v in vortices]
    G1 = sum((v.strength * d.Z_alpha.samples * k2 for v, k2 in zip(vortices, K2)),
             np.zeros(grid.n_points, dtype=np.complex128))
    return grid, vortices, d, K2, G1


@pytest.mark.parametrize("name", [n for n in IDENTITY_VORTICES if n != "no_vortex"])
def test_q_alpha_is_i_over_two_pi_g1(name):
    # d/da K1_j(Z) = -Z_a K2_j, so the spectral derivative of Q is (i/2pi) G1
    _, _, d, _, G1 = identity_case(name)
    expected = (1j / TWO_PI) * G1
    assert np.max(np.abs(derivative(d.Q).samples - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("name", list(IDENTITY_VORTICES))
def test_a1_matches_the_projection_form(name):
    # the assembled A1, with no C G1 projection, against its definition:
    # 1 + the squared-difference integral of DtZ minus the per-vortex sum
    # (lam_j/2pi) Re{(I-H)[Z_a K2_j] (DtZ - zdot_j)}
    grid, vortices, d, K2, _ = identity_case(name)
    dtz = d.DtZ.samples
    A1 = 1.0 + sq_diff_integral(d.DtZ).samples
    for v, zd, k2 in zip(vortices, d.zdots, K2):
        proj = analytic_projection(Field(grid, d.Z_alpha.samples * k2)).samples
        A1 -= (v.strength / TWO_PI) * (proj * (dtz - zd)).real
    assert np.max(np.abs(d.A1.samples - A1)) <= 1e-12 * np.max(np.abs(A1))


def projection_identity_state(name):
    """A state for the one-projection forms of b and A1 at n = 2^12: the
    canonical start, or band-limited W and U, U with a nonzero mean, under
    two unequal vortices, none or three."""
    if name == "canonical":
        return canonical_start(2 ** 12)
    grid = GridSpec(200.0, 2 ** 12)
    rng = np.random.default_rng(43)
    W, U = (band_limited(grid, rng, modes=48, scale=0.05) for _ in range(2))
    vortices = {"non_odd_mean_u": (Vortex(-1.3 - 4.0j, 7.0), Vortex(0.6 - 5.5j, -3.0)),
                "no_vortex": (), "three_vortices": IDENTITY_VORTICES["three_vortices"]}
    return WaveState(W, Field(grid, U.samples + 0.3), vortices[name])


@pytest.mark.parametrize("name", ["canonical", "non_odd_mean_u", "no_vortex", "three_vortices"])
def test_b_and_a1_are_one_projection_each(name):
    # b = Re g + C Im g + <U> and A1 = 1 - Im P + C Re P, one (I - H)
    # projection each of g = DtZ / Z_a and P = DtZ F_a + Z_a DtQ, against
    # the forms the parent's stage computed, operator by operator through
    # spectral.hilbert (C = -iH): b = Re (I - H) h + 2U with
    # h = DtZ (1/Z_a - 1) + conj(Q), and the three-row
    # A1 = 1 - Im(DtZ F_a) - |D||DtZ|^2 / 2 - (1/2pi) [Re(DtZ G1) - Re G2 - C Im G2]
    # with G1 = sum_j lam_j Z_a K2_j and G2 = sum_j lam_j zdot_j Z_a K2_j.
    # The kernels are the stage's own, copied out of the workspace.
    state = projection_identity_state(name)
    grid, lam = state.grid, state.strengths
    d = record_of(state)
    K2 = pole_kernels(grid, d.Z, state.positions)[1].copy()
    h = d.DtZ * (1.0 / d.Z_alpha - 1.0) + np.conj(d.Q)
    b = (h - hilbert(Field(grid, h)).samples).real + 2.0 * state.U.samples
    G1 = d.Z_alpha * np.sum(lam[:, None] * K2, axis=0)
    G2 = d.Z_alpha * np.sum((lam * d.zdots)[:, None] * K2, axis=0)
    c_im_g2 = hilbert(Field(grid, G2.imag)).samples.imag
    A1 = (1.0 - (d.DtZ * d.F_alpha).imag
          - 0.5 * lambda_op(Field(grid, np.abs(d.DtZ) ** 2)).samples
          - ((d.DtZ * G1).real - G2.real - c_im_g2) / TWO_PI)
    # the canonical b (1.8e-3) is small against its parts, of the size of DtZ,
    # whose round-off it keeps: it reads 8.4e-17 off, and A1 at most
    # 1.9e-14 (three vortices)
    for got, want in ((d.b, b), (d.A1, A1)):
        scale = max(np.max(np.abs(want)), np.max(np.abs(d.DtZ)))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_steppers_carry_the_spectra_of_w_and_u():
    # the spectra _advance and reversed_state attach are the rfft of the
    # samples they go with, to round-off
    from vortexwavelab.sim import (IntegratorConfig, reversed_state,
                                   step_picard, step_rk4)
    start = canonical_start(2 ** 10)
    config = IntegratorConfig(dt=4e-3, t_end=4e-3, scheme="picard", picard_tol=1e-9)
    states = (step_rk4(start, 4e-3), step_picard(start, 4e-3, config)[0])
    states += tuple(reversed_state(s) for s in states)
    for s in states:
        for f in (s.W, s.U):
            assert f._fft is not None
            direct = np.fft.rfft(f.samples)
            assert np.max(np.abs(f.fft - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_real_fields_stay_float64(grid):
    state = canonical_start(grid.n_points)
    d = assemble(state)
    dW, dU, _ = state_rhs(state, record_of(state))
    for a in [f.samples for f in (state.W, state.U, d.b, d.A1, d.A, d.G)] + [dW, dU]:
        assert a.dtype == np.float64
    for op in (derivative, lambda_op, low_pass):
        assert op(state.W).samples.dtype == np.float64
    assert hilbert(state.W).samples.dtype == np.complex128


def test_diagnostics_computed_on_read(grid, monkeypatch):
    # stages never pay for the diagnostics: rhs and an RK4 step call neither
    # b_residual nor chord_arc_constant, and the monitor calls each once
    import vortexwavelab.sim as sim
    import vortexwavelab.waves as waves
    from vortexwavelab.gevrey import GevreyParams
    calls = []
    for name in ("b_residual", "chord_arc_constant"):
        original = getattr(waves, name)
        counted = (lambda *args, _name=name, _f=original: calls.append(_name) or _f(*args))
        monkeypatch.setattr(waves, name, counted)
        monkeypatch.setattr(sim, name, counted)
    state = flat_pair_state(grid, 1.0, -6.0, 10.0)
    state_rhs(state, record_of(state))
    state_rhs(state)
    sim.step_rk4(state, 1e-3)
    assert calls == []
    row = sim.monitor(state, GevreyParams(L0=10.0, delta0=1.0), sim._derive(state))
    assert sorted(calls) == ["b_residual", "chord_arc_constant"]
    assert row.chord_arc == pytest.approx(1.0, rel=1e-14)
    assert row.inf_A1 <= float(np.min(assemble(state).A1.samples))


def test_b_residual_sees_a_wrong_b(monkeypatch):
    # b_residual keeps the defining form of b rather than take the
    # g = DtZ / Z_a derive builds b from, so a b built from a wrong g (1e-4
    # off, its projection C Im g too), or a b off by a smooth bump, reads
    # far above the round-off of the canonical state (2.3e-7 and 7.9e-7
    # against 2.7e-16)
    import vortexwavelab.waves as waves
    state = canonical_start(2 ** 12)
    grid = state.grid

    def residual():
        return b_residual(grid, waves.derive(grid, *state.arrays, state.strengths))
    assert residual() <= 1e-12
    compute_b = waves.compute_b
    monkeypatch.setattr(waves, "compute_b",
                        lambda g, c, u: compute_b(g * (1 + 1e-4), c * (1 + 1e-4), u))
    assert residual() > 1e-12
    monkeypatch.setattr(waves, "compute_b",
                        lambda g, c, u: compute_b(g, c, u) + 1e-6 * np.exp(-grid.alpha ** 2))
    assert residual() > 1e-12


def projected_residual(grid, d):
    """b_residual's norm in the explicit projection form: (I - H)/2 of the
    defining residual by its multiplier, less its mean, summed on the grid."""
    resid = d.b - d.DtZ * (1.0 / d.Z_alpha - 1.0) - np.conj(d.Q) - np.conj(d.F)
    p = 0.5 * analytic_projection(Field(grid, resid)).samples
    p -= np.mean(p)
    return math.sqrt(grid.spacing * np.sum(np.abs(p) ** 2))


def test_b_residual_is_the_norm_of_the_projection():
    # b_residual takes the power of one forward fft of the residual, its
    # k > 0 modes and a quarter of its Nyquist mode, for the norm of its
    # (I - H)/2 projection less the mean.  On 4 states, each with b off by
    # a random real perturbation over the whole band (Nyquist mode included),
    # it is that projection's norm to 1e-12; with b as derived, both read
    # round-off
    from vortexwavelab.sim import step_rk4
    rng = np.random.default_rng(21)
    start = canonical_start(2 ** 12)
    grid = start.grid
    states = (start, step_rk4(step_rk4(start, 4e-3), 4e-3),
              odd_bump_state(grid, 1e-2),
              odd_bump_state(grid, 1e-2, (Vortex(-2.0 - 7.0j, 9.0), Vortex(0.5 - 5.0j, -4.0),
                                          Vortex(3.0 - 9.0j, 2.5))))
    for state in states:
        d = record_of(state)
        assert b_residual(grid, d) <= 1e-15 and projected_residual(grid, d) <= 1e-15
        off = d._replace(b=d.b + 1e-6 * rng.normal(size=grid.n_points))
        ref = projected_residual(grid, off)
        assert ref > 1e-8
        assert abs(b_residual(grid, off) - ref) <= 1e-12 * ref


def test_wave_state_names_bad_vortex_arrays(grid):
    # a missing or mismatched strengths array is named where the state is
    # built, not by a numpy error in the first stage; lists are taken as
    # arrays, and arrays of the right dtype are kept without a copy
    W = zero_field(grid)
    z = np.array([-1.0 - 6.0j, 1.0 - 6.0j])
    for kwargs in (dict(positions=z), dict(positions=z, strengths=np.array([10.0]))):
        with pytest.raises(ValueError, match="strengths"):
            WaveState(W, W, **kwargs)
    listed = WaveState(W, W, positions=[-1.0 - 6.0j, 1.0 - 6.0j], strengths=[10.0, -10.0])
    assert listed.positions.dtype == np.complex128 and listed.strengths.dtype == np.float64
    lam = np.array([10.0, -10.0])
    assert np.array_equal(state_rhs(listed)[2], state_rhs(flat_pair_state(grid, 1.0, -6.0, 10.0))[2])
    kept = WaveState(W, W, positions=z, strengths=lam)
    assert kept.positions is z and kept.strengths is lam


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
    Z = grid.alpha.astype(complex)
    assert chord_arc_constant(grid, Z) == pytest.approx(1.0, rel=1e-14)
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
    Zp, _, _, _ = reconstructed(sp.W, sp.U)
    Zm, _, _, _ = reconstructed(sm.W, sm.U)
    dZdt = (Zp - Zm) / (2 * dt)
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
    assert b_residual(grid, record_of(state)) <= 1e-6 * (1.0 + d.b.l2_norm())
    after = step_rk4(state, 2e-3)
    assert np.all(np.isfinite(after.W.samples))
    d2 = assemble(after)
    assert np.isfinite(refine_minimum(grid.alpha, d2.A1.samples)[1])
