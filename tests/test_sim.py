"""Integrator, monitor, and trajectory-loop tests.

The expensive canonical runs live in the acceptance suite; here the same
machinery is exercised on short horizons and coarser grids.
"""

import math

import numpy as np
import pytest

from vortexwavelab.acceptance import CANONICAL_LAMBDA, canonical_scenario
from vortexwavelab.config import run_scenario
from vortexwavelab.errors import NonFiniteStateError, PicardDivergedError
from vortexwavelab import sim
from vortexwavelab.gevrey import GevreyParams, energy
from vortexwavelab.grid import Field, GridSpec, zero_field
from vortexwavelab.sim import (IntegratorConfig, make_initial, monitor,
                               reversed_state, run_simulation, step_picard,
                               step_rk4, symmetry_defect)
from vortexwavelab.taylor import PairConfig
from vortexwavelab.waves import WaveState, assemble, rhs

from conftest import canonical_start


@pytest.fixture(scope="module")
def sim_grid():
    return GridSpec(200.0, 2 ** 12)


def canonical_pair(lam=4 * math.pi):
    return PairConfig(1.0, -6.0, lam)


def test_make_initial_variants(sim_grid):
    s0 = make_initial("zero_wave", 0.0, canonical_pair(), sim_grid)
    s1 = make_initial("odd_bump", 0.0, canonical_pair(), sim_grid)
    assert np.array_equal(s0.W.samples, s1.W.samples)
    assert s0.strengths.tolist() == [4 * math.pi, -4 * math.pi]
    s2 = make_initial("odd_bump", 1e-3, canonical_pair(), sim_grid)
    assert symmetry_defect(s2) <= 1e-14
    from types import SimpleNamespace
    with pytest.raises(ValueError):
        # defensive re-check for a pair object that slipped past validation
        make_initial("odd_bump", 1e-3, SimpleNamespace(x=1.0, y=0.5, lam=1.0),
                     sim_grid)
    with pytest.raises(ValueError):
        make_initial("square_bump", 1e-3, canonical_pair(), sim_grid)
    with pytest.raises(ValueError):
        make_initial("odd_bump", -1.0, canonical_pair(), sim_grid)


@pytest.mark.parametrize("kwargs", [dict(scheme="euler"), dict(dt=0.0), dict(t_end=-1.0),
                                    dict(picard_tol=math.inf), dict(picard_tol=0.0),
                                    dict(picard_tol=-1e-9), dict(dt=math.nan),
                                    dict(t_end=math.nan), dict(t_end=math.inf),
                                    dict(dt=math.inf), dict(picard_tol=math.nan)])
def test_integrator_config_validation(kwargs):
    # a bad value fails where the config is built, with an error that
    # names it, not later inside a step (a NaN t_end failed converting the
    # step count to int)
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        IntegratorConfig(**{"dt": 0.01, "t_end": 1.0, **kwargs})


@pytest.mark.parametrize("amplitude", [math.nan, math.inf])
def test_make_initial_rejects_a_non_finite_amplitude(sim_grid, amplitude):
    # a NaN amplitude gave a zero wave (amplitude > 0 is False), inf a NaN wave
    with pytest.raises(ValueError, match="amplitude"):
        make_initial("odd_bump", amplitude, canonical_pair(), sim_grid)


def test_make_initial_gevrey_scales_with_amplitude(sim_grid):
    e1 = energy(*(lambda s: (s.W, s.U))(make_initial("odd_bump", 1e-3, None, sim_grid)), 10.0)
    e2 = energy(*(lambda s: (s.W, s.U))(make_initial("odd_bump", 2e-3, None, sim_grid)), 10.0)
    assert np.isfinite(e1) and e1 > 0
    assert e2 == pytest.approx(4.0 * e1, rel=1e-10)   # quadratic in amplitude


def test_equilibrium_fixed_point(sim_grid):
    s = WaveState(zero_field(sim_grid), zero_field(sim_grid), ())
    s_rk = step_rk4(s, 0.05)
    assert np.max(np.abs(s_rk.W.samples)) <= 1e-14
    cfg = IntegratorConfig(dt=0.05, t_end=0.05, scheme="picard")
    s_pi, iters, _ = step_picard(s, 0.05, cfg)
    assert iters == 1
    assert np.max(np.abs(s_pi.U.samples)) <= 1e-14


def test_pair_rises_one_step(sim_grid):
    s = make_initial("zero_wave", 0.0, canonical_pair(), sim_grid)
    dt = 0.01
    s1 = step_rk4(s, dt)
    dy = s1.positions[0].imag + 6.0
    assert dy == pytest.approx(dt, abs=5e-4)         # zdot = i + O(dt * dU)


def test_rk4_self_convergence_order(sim_grid):
    s = make_initial("odd_bump", 1e-3, canonical_pair(lam=10.0), sim_grid)

    def march(dt, n):
        out = s
        for _ in range(n):
            out = step_rk4(out, dt)
        return out

    ref = march(0.0025, 32)
    errs = []
    for dt, n in ((0.02, 4), (0.01, 8)):
        got = march(dt, n)
        errs.append(math.sqrt(sim_grid.spacing * np.sum(
            np.abs(got.U.samples - ref.U.samples) ** 2)
            + abs(got.positions[0] - ref.positions[0]) ** 2))
    order = math.log2(errs[0] / errs[1])
    assert order >= 3.8


def test_picard_contracts_and_matches_rk4(sim_grid):
    s = make_initial("odd_bump", 1e-3, canonical_pair(lam=10.0), sim_grid)
    cfg = IntegratorConfig(dt=5e-3, t_end=1.0, scheme="picard", picard_tol=1e-9)
    s_pi = s
    for _ in range(10):
        s_pi, iters, hist = step_picard(s_pi, 5e-3, cfg)
        for i in range(1, len(hist)):
            assert hist[i] < hist[i - 1]
    s_rk = s
    for _ in range(10):
        s_rk = step_rk4(s_rk, 5e-3)
    gap = math.sqrt(sim_grid.spacing * np.sum(np.abs(s_rk.W.samples - s_pi.W.samples) ** 2))
    assert gap <= 1e-7


def test_steps_build_one_state(monkeypatch):
    # a run reads each state's Derived record and wraps only what a step
    # returns: one WaveState over two Fields a step, no DerivedFields, with
    # RK4 and with Picard, beyond the Fields of the initial state
    from collections import Counter

    from vortexwavelab.waves import DerivedFields
    built = Counter()
    for cls in (Field, WaveState, DerivedFields):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    for scheme in ("rk4", "picard"):
        built.clear()
        s = canonical_start(2 ** 10)
        initial = built["Field"]
        res = run_simulation(s, IntegratorConfig(dt=2e-3, t_end=0.02, scheme=scheme,
                                                 picard_tol=1e-9), stride=3)
        assert res.exit_reason == "completed"
        assert built["DerivedFields"] == 0 and built["WaveState"] == 1 + 10
        assert built["Field"] <= initial + 2 * 10


def _trapezoid_residual(start, end, dt):
    """H4 distance of ``end`` from start + dt/2 (rhs(start) + rhs(end))."""
    grid, lam = start.grid, start.strengths
    k0, k1 = rhs(grid, start.arrays, lam), rhs(grid, end.arrays, lam)
    target = tuple(y + dt / 2 * (a + b) for y, a, b in zip(start.arrays, k0, k1))
    return sim._h4_distance(grid, sim._h4_weight(grid), target, end.arrays)


def test_picard_carries_the_rhs_of_the_state_it_returns():
    # the step returns the last iterate whose right-hand side it evaluated
    # and carries that slope, so the next step needs no rhs of its start
    s = canonical_start(2 ** 12)
    cfg = IntegratorConfig(dt=2e-3, t_end=1.0, scheme="picard", picard_tol=1e-9)
    prev = None
    for _ in range(3):
        s, _, _ = step_picard(s, 2e-3, cfg)
        fresh = rhs(s.grid, s.arrays, s.strengths)
        assert all(np.array_equal(a, b) for a, b in zip(s.carry.slope, fresh))
        assert s.carry.dt == 2e-3
        assert prev is None or s.carry.start_slope is prev
        prev = s.carry.slope


def test_picard_sweeps_after_the_first_step():
    # C10's inputs at n = 2^12: Euler starts the first step (3 sweeps),
    # the AB2 predictor every later one (2 sweeps, where Euler took 3)
    s = canonical_start(2 ** 12)
    cfg = IntegratorConfig(dt=2e-3, t_end=1.0, scheme="picard", picard_tol=1e-9)
    sweeps = []
    for _ in range(6):
        s, iters, _ = step_picard(s, 2e-3, cfg)
        sweeps.append(iters)
    assert sweeps[0] == 3
    assert max(sweeps[1:]) <= 2


def test_picard_residual_after_a_remainder_step_and_without_a_carry():
    # a shorter last step predicts from the carry with its own dt (its
    # predictor lands closer than a whole step's, which a constant-step
    # AB2 coefficient would not), and a state rebuilt without the carry
    # starts from Euler: either way the returned state solves the
    # trapezoid equations to the tolerance
    s = canonical_start(2 ** 12)
    cfg = IntegratorConfig(dt=2e-3, t_end=1.0, scheme="picard", picard_tol=1e-9)
    for _ in range(2):
        s, _, whole = step_picard(s, 2e-3, cfg)
    bare = WaveState(s.W, s.U, t=s.t, positions=s.positions, strengths=s.strengths)
    assert bare.carry is None
    for start, dt in ((s, 6e-4), (bare, 2e-3)):
        end, iters, hist = step_picard(start, dt, cfg)
        assert end.t == start.t + dt
        if start.carry is None:
            assert iters == 3
        else:
            assert iters == 2 and hist[0] < whole[0]
        assert _trapezoid_residual(start, end, dt) < cfg.picard_tol
        assert _trapezoid_residual(start, end, dt) == pytest.approx(hist[-1], rel=1e-3)


def test_steppers_attach_nothing_to_the_state_they_are_given(sim_grid):
    s = make_initial("odd_bump", 1e-3, canonical_pair(lam=10.0), sim_grid)
    before = dict(vars(s))
    assemble(s)
    assert step_rk4(s, 5e-3).carry is None
    cfg = IntegratorConfig(dt=5e-3, t_end=1.0, scheme="picard", picard_tol=1e-9)
    assert step_picard(s, 5e-3, cfg)[0].carry is not None
    assert vars(s) == before and s.carry is None


def test_picard_run_derives_once_per_sweep(monkeypatch):
    # per step: two sweeps from the carried slope and the AB2 predictor; the
    # CFL guard, the eta1 check and the monitor read the last sweep's record
    import vortexwavelab.waves as waves
    derives = []
    real = waves.derive

    def derive(*args):
        derives.append(1)
        return real(*args)
    monkeypatch.setattr(waves, "derive", derive)
    monkeypatch.setattr(sim, "derive", derive)
    s = canonical_start(2 ** 10)
    res = run_simulation(s, IntegratorConfig(dt=2e-3, t_end=0.02, scheme="picard",
                                             picard_tol=1e-9))
    assert res.exit_reason == "completed"
    sweeps = [r.picard_iters for r in res.records[1:]]
    assert len(sweeps) == 10 and sweeps[1:] == [2] * 9
    assert len(derives) == 1 + sum(sweeps)


@pytest.mark.parametrize("kwargs", [dict(stride=0), dict(stride=-1), dict(stride=1.5),
                                    dict(eta1=-1.0), dict(eta1=math.nan),
                                    dict(eta1=math.inf)])
def test_run_rejects_bad_stride_and_eta1(sim_grid, kwargs):
    # named before the first step: stride 0 divided by zero after it,
    # -1 recorded every step, 1.5 only the last; eta1 = -1 stopped at once
    # as taylor_negative, and a NaN eta1 never stopped the run
    s = make_initial("odd_bump", 1e-3, canonical_pair(), sim_grid)
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        run_simulation(s, IntegratorConfig(dt=5e-3, t_end=0.02), **kwargs)


def test_picard_diverges_with_huge_step(sim_grid, monkeypatch):
    monkeypatch.setattr(sim, "PICARD_MAX_SWEEPS", 8)
    s = make_initial("odd_bump", 1e-2, canonical_pair(lam=40.0), sim_grid)
    cfg = IntegratorConfig(dt=0.5, t_end=1.0, scheme="picard")
    with pytest.raises(PicardDivergedError) as err:
        step_picard(s, 0.5, cfg)
    assert len(err.value.history) == 8


def test_run_ends_picard_diverged_with_earlier_rows(monkeypatch):
    # two sweeps do not reach 1e-10 on the canonical pair: the run ends
    # with a named reason, the error text and the t = 0 row
    monkeypatch.setattr(sim, "PICARD_MAX_SWEEPS", 2)
    s = canonical_start(2 ** 10)
    res = run_simulation(s, IntegratorConfig(dt=0.004, t_end=0.04, scheme="picard"))
    assert res.exit_reason == "picard_diverged"
    assert res.message.startswith("no contraction to 1e-10 after 2 sweeps")
    assert [r.t for r in res.records] == [0.0]
    assert res.final_state is s


def test_monitor_zero_state(sim_grid):
    s = WaveState(zero_field(sim_grid), zero_field(sim_grid), ())
    rep = monitor(s, gevrey_params=GevreyParams(L0=10, delta0=1))
    assert rep.E_gevrey == 0.0
    assert rep.chord_arc == pytest.approx(1.0, rel=1e-14)
    assert all(rep.as_flags.values())
    assert rep.inf_A1 == pytest.approx(1.0, abs=1e-14)


def test_vertical_velocity_sign_follows_strength(sim_grid):
    for lam in (10.0, -10.0):
        s = make_initial("odd_bump", 1e-4, canonical_pair(lam=lam), sim_grid)
        for _ in range(4):
            prev_y = s.positions[0].imag
            s = step_rk4(s, 5e-3)
            dy = s.positions[0].imag - prev_y
            assert math.copysign(1.0, dy) == math.copysign(1.0, lam)


def test_energy_boundedness_short_window(sim_grid):
    # delta0 = 100 * L0: the radius survives only to t = L0/(2 delta0) = 0.005
    p = GevreyParams(L0=10.0, delta0=1000.0)
    s = make_initial("odd_bump", 1e-4, canonical_pair(lam=5.0), sim_grid)
    e0 = energy(s.W, s.U, p.phi(0.0))
    for _ in range(2):
        s = step_rk4(s, 2.5e-3)
    assert energy(s.W, s.U, p.phi(s.t)) <= 2.0 * (e0 + 1.0)


def test_run_constant_trajectory_lambda_zero(sim_grid):
    s = make_initial("zero_wave", 0.0, canonical_pair(lam=0.0), sim_grid)
    res = run_simulation(s, IntegratorConfig(dt=0.01, t_end=0.05), stride=1)
    assert res.exit_reason == "completed"
    assert all(abs(r.inf_A1 - 1.0) <= 1e-12 for r in res.records)
    assert all(r.y1 == -6.0 for r in res.records)
    ts = [r.t for r in res.records]
    assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))


def test_run_stops_on_cfl(sim_grid):
    s = make_initial("zero_wave", 0.0, canonical_pair(lam=10.0), sim_grid)
    res = run_simulation(s, IntegratorConfig(dt=0.5, t_end=1.0))
    assert res.exit_reason == "cfl_violation"
    assert len(res.records) == 1


def test_run_stops_on_proximity(sim_grid):
    close = PairConfig(1.0, -6.5 * sim_grid.spacing, 1.0)
    s = make_initial("zero_wave", 0.0, close, sim_grid)
    res = run_simulation(s, IntegratorConfig(dt=1e-4, t_end=1e-3))
    assert res.exit_reason == "vortex_proximity"
    assert len(res.records) < 11


def test_run_taylor_negative_stop(sim_grid):
    # start just above the crossing depth: inf A1 goes negative quickly
    lam = 2 * math.pi * 6.0 ** 1.5
    s = make_initial("zero_wave", 0.0, PairConfig(1.0, -6.3, lam), sim_grid)
    res = run_simulation(s, IntegratorConfig(dt=2e-3, t_end=0.5),
                         eta1=0.1, stride=1)
    assert res.exit_reason == "taylor_negative"
    assert res.records[-1].inf_A1 <= -0.1


def test_reversed_state_involution(sim_grid):
    s = make_initial("odd_bump", 1e-3, canonical_pair(lam=7.0), sim_grid)
    rr = reversed_state(reversed_state(s))
    assert np.array_equal(rr.U.samples, s.U.samples)
    assert np.array_equal(rr.strengths, s.strengths)


def test_short_time_reversal(sim_grid):
    s = make_initial("odd_bump", 1e-3, canonical_pair(lam=10.0), sim_grid)
    fwd = s
    for _ in range(8):
        fwd = step_rk4(fwd, 5e-3)
    back = reversed_state(fwd)
    for _ in range(8):
        back = step_rk4(back, 5e-3)
    assert abs(back.positions[0].imag - (-6.0)) <= 1e-10
    assert np.max(np.abs(back.W.samples - s.W.samples)) <= 1e-10


def test_radius_exhaustion_marks_energy_nan(sim_grid):
    s = make_initial("zero_wave", 0.0, canonical_pair(lam=1.0), sim_grid)
    res = run_simulation(s, IntegratorConfig(dt=5e-3, t_end=0.02),
                         gevrey_params=GevreyParams(L0=10.0, delta0=1000.0))
    assert res.exit_reason == "completed"
    assert math.isnan(res.records[-1].E_gevrey)
    assert not monitor(res.final_state, gevrey_params=GevreyParams(
        L0=10.0, delta0=1000.0)).as_flags["AS5"]


@pytest.mark.parametrize("dt, t_end", [(0.004, 0.12), (0.004, 0.6), (0.01, 0.03)])
def test_default_schedule_keeps_as5_to_t_end(sim_grid, dt, t_end):
    # without gevrey_params the radius reaches L0/2 at t_end; t adds up
    # past t_end by round-off (0.6000000000000004), which AS5's slack
    # absorbs, and E stays finite on every row
    s = canonical_start(sim_grid.n_points, {"vortex.lambda": -CANONICAL_LAMBDA})
    res = run_simulation(s, IntegratorConfig(dt=dt, t_end=t_end), stride=10)
    assert res.exit_reason == "completed"
    assert res.records[-1].t == pytest.approx(t_end)
    assert res.records[-1].phi == pytest.approx(5.0)
    assert all(r.as_flags["AS5"] and math.isfinite(r.E_gevrey) for r in res.records)


@pytest.mark.parametrize("scheme", ["rk4", "picard"])
@pytest.mark.parametrize("t_end", [0.001, 0.0062, 0.01, 0.0139])
def test_run_ends_at_t_end(scheme, t_end):
    # dt = 0.004: the whole steps that fit, then one step of the remainder,
    # so the last row sits at t_end, also below dt/2 (0.001); with
    # gevrey.delta0 left out phi reaches L0/2 exactly there, so AS5 holds
    cfg = canonical_scenario({"grid.n": 2048, "time.t_end": t_end, "time.scheme": scheme,
                              "gevrey.delta0": None, "monitor.eta1": None,
                              "output.stride": 1})
    res = run_scenario(cfg)
    assert res.exit_reason == "completed"
    assert len(res.records) == 2 + int(t_end / 0.004)
    assert abs(res.records[-1].t - t_end) <= 1e-15
    assert res.records[-1].as_flags["AS5"]


def test_as5_slack_is_round_off_only(sim_grid):
    p = GevreyParams(L0=10.0, delta0=1.0)

    def as5(t):
        return monitor(WaveState(zero_field(sim_grid), zero_field(sim_grid), (), t),
                       p).as_flags["AS5"]
    assert as5(5.0 + 4e-15)                # phi a few ulps below L0/2
    assert not as5(5.0 + 1e-9 * p.L0)      # phi 1e-9 L0 below L0/2


def _nan_W(state):
    state.W.samples[3] = np.nan


def _nan_position(state):
    state.positions[0] = complex(np.nan, -6.0)


def _nan_after(monkeypatch, calls, poison):
    """Make sim.step_rk4 return a state with a NaN put in by ``poison``
    from its ``calls``-th call on."""
    import vortexwavelab.sim as sim
    real = sim.step_rk4
    seen = []

    def step(state, dt, record=None):
        seen.append(1)
        out = real(state, dt, record)
        if len(seen) >= calls:
            poison(out)
        return out
    monkeypatch.setattr(sim, "step_rk4", step)


@pytest.mark.parametrize("poison", [_nan_W, _nan_position], ids=["W", "position"])
def test_run_ends_non_finite_with_earlier_rows(sim_grid, monkeypatch, poison):
    _nan_after(monkeypatch, 3, poison)
    s = make_initial("odd_bump", 1e-3, canonical_pair(lam=10.0), sim_grid)
    res = run_simulation(s, IntegratorConfig(dt=5e-3, t_end=0.05), stride=1)
    assert res.exit_reason == "non_finite"
    assert "non-finite" in res.message
    assert [r.t for r in res.records] == pytest.approx([0.0, 5e-3, 1e-2])
    assert all(math.isfinite(r.inf_A1) for r in res.records)


def test_assemble_rejects_a_non_finite_position(sim_grid):
    s = make_initial("odd_bump", 1e-3, canonical_pair(), sim_grid)
    _nan_position(s)
    with pytest.raises(NonFiniteStateError, match="non-finite vortex position"):
        assemble(s)


def test_run_ends_non_finite_on_nan_b(sim_grid, monkeypatch):
    # a NaN transport coefficient must not slip through the CFL guard
    import vortexwavelab.sim as sim
    real = sim.derive
    seen = []

    def derive(grid, *args):
        d = real(grid, *args)
        seen.append(1)
        if len(seen) == 2:
            d = d._replace(b=np.full(grid.n_points, np.nan))
        return d
    monkeypatch.setattr(sim, "derive", derive)
    s = make_initial("odd_bump", 1e-3, canonical_pair(lam=10.0), sim_grid)
    res = run_simulation(s, IntegratorConfig(dt=5e-3, t_end=0.05), stride=1)
    assert res.exit_reason == "non_finite"
    assert "b or A" in res.message
    assert len(res.records) == 2
