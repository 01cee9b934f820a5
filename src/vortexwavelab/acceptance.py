"""Acceptance suite: every shipped claim as an executable check.

Each check returns a :class:`CheckResult`; ``run_all`` executes the
registry in order and is what the ``verify`` command prints.  Expensive
simulation runs are shared between checks through a :class:`RunCache`.
The checks need numpy only: C02 sets the residue closed form against a
trapezoid rule on the circle, and C07 reads the frequency of one mode
off its three-term recurrence.

The canonical transition scenario, :data:`CANONICAL_SCENARIO`
(``demos/transition.cfg`` without its output path), puts the
counter-rotating pair at depth 12 with strength lam = 2*pi*6.75^1.5
(about 110.19), giving a predicted destabilization depth
(lam^2/4pi^2)^(1/3) = 6.75: deep enough below the start that the
interface begins firmly in the stable regime (inf A1 above 0.8) and is
reached well before the vortices approach the grid scale.  C08 and C09
run it through :func:`config.run_scenario`, the path of ``vwl run``;
whatever else needs the canonical pair builds it from
:func:`canonical_scenario`.
"""

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import ScenarioConfig, build_run_inputs, run_scenario
from .gevrey import gevrey_norm, power_spectrum
from .grid import Field, GridSpec, field_from_function
from .sim import make_initial, reversed_state, step_rk4
from .spectral import hilbert, periodic_cauchy_kernel, sq_diff_integral
from .taylor import (PairConfig, a1_flat_pair, crossing_depth, f_reduced,
                     g_profile, inf_a1_flat_rows, interaction_sum,
                     residue_pair_integral, residue_pair_integral_quad)
from .waves import derive

CANONICAL_LAMBDA = 2.0 * math.pi * 6.75 ** 1.5

CANONICAL_SCENARIO = {   # demos/transition.cfg, without its output.path
    "grid.half_length": 200.0, "grid.n": 2 ** 14,
    "vortex.x0": 1.0, "vortex.y0": -12.0, "vortex.lambda": CANONICAL_LAMBDA,
    "wave.kind": "odd_bump", "wave.amplitude": 1e-3, "gevrey.L0": 10.0, "gevrey.delta0": 5.0,
    "time.dt": 0.004, "time.t_end": 0.85, "time.scheme": "rk4",
    "output.stride": 2, "monitor.eta1": 0.5,
}

WIDE_GRID = (3200.0, 2 ** 18)   # oracle-tolerance grid: same spacing, 16x domain


def canonical_scenario(overrides=None):
    """The canonical scenario as a :class:`config.ScenarioConfig`, with the
    keys of ``overrides`` set to its values; a key set to None is dropped
    (its default applies)."""
    values = {**CANONICAL_SCENARIO, **(overrides or {})}
    return ScenarioConfig({k: v for k, v in values.items() if v is not None})


def measured_crossing(records):
    """|y1| at the first sign change of inf A1 between consecutive rows of
    ``records``, either way (a > 0 >= b or a < 0 <= b), linear in inf A1
    between the two rows; None if inf A1 never changes sign."""
    infs = np.array([r.inf_A1 for r in records])
    a, b = infs[:-1], infs[1:]
    changes = np.flatnonzero(((a > 0.0) & (b <= 0.0)) | ((a < 0.0) & (b >= 0.0)))
    if not changes.size:
        return None
    i = int(changes[0])
    y0, y1 = records[i].y1, records[i + 1].y1
    return abs(y0 + infs[i] / (infs[i] - infs[i + 1]) * (y1 - y0))


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


class RunCache:
    """Lazily built shared state for the expensive checks."""

    @cached_property
    def canonical_inputs(self):
        """:func:`config.build_run_inputs` of the canonical scenario."""
        return build_run_inputs(canonical_scenario())

    @cached_property
    def wide_grid(self):
        return GridSpec(*WIDE_GRID)

    @cached_property
    def transition(self):
        return run_scenario(canonical_scenario())

    @cached_property
    def receding(self):
        return run_scenario(canonical_scenario(
            {"vortex.lambda": -CANONICAL_LAMBDA, "time.t_end": 0.9, "monitor.eta1": None}))


# ----------------------------------------------------------------------
# the criteria

def check_closed_form_trichotomy(cache):
    t0 = time.perf_counter()
    errs = [abs(g_profile(1.0) - 0.25), abs(g_profile(-1.0) - 0.25),
            abs(g_profile(0.0) + 1.0),
            abs(f_reduced(4.0, 1.0)), abs(f_reduced(4.0, -1.0))]
    k = np.linspace(-100.0, 100.0, 400_001)
    gk = g_profile(k)
    in_range = gk.min() >= -1.0 - 1e-15 and gk.max() <= 0.25 + 1e-15
    wall = time.perf_counter() - t0
    passed = max(errs) <= 1e-12 and in_range and wall < 1.0
    return passed, ("extrema/zero errors <= %.2e; g in [-1,1/4] on |k|<=100: %s; "
                    "%.2fs (cap 1s)" % (max(errs), in_range, wall))


def check_residue_oracles(cache):
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(20):
        w1 = complex(rng.uniform(-5, 5), -rng.uniform(1, 6))
        w2 = complex(rng.uniform(-5, 5), -rng.uniform(1, 6))
        exact = residue_pair_integral(w1, w2)
        numeric = residue_pair_integral_quad(w1, w2)
        worst = max(worst, abs(exact - numeric))
    return worst <= 1e-8, "20 random pairs, worst |closed - quadrature| = %.2e" % worst


_INTERACTION_CONFIGS = [
    [(-1.0 - 2.0j, 2 * math.pi), (1.0 - 2.0j, -2 * math.pi)],
    [(-1.0j, 2 * math.pi)],
    [(-0.5 - 3.0j, 5.0), (0.5 - 3.0j, -5.0)],
    [(-2.0 - 4.0j, 10.0), (2.0 - 4.0j, -10.0)],
    [(-2.5j, -4.0)],
]


def check_interaction_identity(cache):
    grid = cache.wide_grid
    worst_spec = worst_quad = 0.0
    for vort in _INTERACTION_CONFIGS:
        samples = np.zeros(grid.n_points, dtype=np.complex128)
        for z, lam in vort:
            samples += (lam * 1j / (2 * math.pi)) * periodic_cauchy_kernel(
                grid.alpha - np.conj(z), grid.half_length)
        qbar = Field(grid, samples)
        oracle = interaction_sum(vort, grid.alpha)
        spec = sq_diff_integral(qbar).samples
        worst_spec = max(worst_spec, float(np.max(np.abs(spec - oracle))))
        quad = sq_diff_integral(qbar, method="quadrature").samples
        worst_quad = max(worst_quad, float(np.max(np.abs(quad - oracle))))
    passed = worst_spec <= 1e-6 and worst_quad <= 1e-6
    return passed, ("5 configs at all %d points: spectral path %.2e, quadrature path %.2e "
                    "vs closed form" % (grid.n_points, worst_spec, worst_quad))


def check_hilbert_calibration(cache):
    grid = cache.canonical_inputs[0]
    one = Field(grid, np.ones(grid.n_points))
    err_one = hilbert(one).sup_norm()
    # 1/(a - i) realized on the periodic domain through its periodization;
    # the mean is removed first since H annihilates the mean mode by design.
    f = field_from_function(
        grid, lambda a: periodic_cauchy_kernel(a - 1j, grid.half_length))
    f0 = Field(grid, f.samples - f.mean())
    err_fixed = float(np.max(np.abs(hilbert(f0).samples - f0.samples)))
    raw = field_from_function(grid, lambda a: 1.0 / (a - 1j))
    raw_gap = float(np.max(np.abs(hilbert(raw).samples - raw.samples)))

    rng = np.random.default_rng(7)
    worst_unit = 0.0
    for _ in range(10):
        spec = np.zeros(grid.n_points // 2 + 1, dtype=np.complex128)
        spec[1:33] = rng.normal(size=32) + 1j * rng.normal(size=32)
        h = Field(grid, np.fft.irfft(spec, grid.n_points))
        for sigma in (1.0, 5.0, 10.0):
            a = gevrey_norm(h, sigma, "X").value
            b = gevrey_norm(hilbert(h), sigma, "X").value
            worst_unit = max(worst_unit, abs(a - b) / a)
    passed = err_one <= 1e-6 and err_fixed <= 1e-6 and worst_unit <= 1e-10
    return passed, ("H1=%.1e; fixed-point error %.1e (raw, unperiodized samples "
                    "would leave a truncation gap of %.1e); unitarity rel dev %.1e"
                    % (err_one, err_fixed, raw_gap, worst_unit))


_DUAL_PATH_CONFIGS = [
    (1.0, -2.0, 2 * math.pi),
    (0.5, -2.0, 2 * math.pi),
    (2.0, -3.0, 4 * math.pi),
    (1.0, -5.0, 10.0),
    (1.0, -2.0, -2 * math.pi),
    (0.7, -4.0, 5.0),
    (1.5, -2.5, 7.0),
]


def check_dual_path_a1(cache):
    grid = cache.wide_grid
    # the quoted headline value first: A1(0) = 1 + 4*10/625 + 21/250 = 1.148
    head = a1_flat_pair(0.0, PairConfig(1.0, -2.0, 2 * math.pi))
    if abs(head - 1.148) > 1e-12:
        return False, "headline closed-form value %.15g != 1.148" % head
    worst = 0.0
    for x, y, lam in _DUAL_PATH_CONFIGS:
        state = make_initial("zero_wave", 0.0, PairConfig(x, y, lam), grid)
        A1 = derive(grid, *state.arrays, state.strengths).A1
        oracle = a1_flat_pair(grid.alpha, PairConfig(x, y, lam))
        worst = max(worst, float(np.max(np.abs(A1 - oracle))))
    return worst <= 1e-6, ("A1(0)=%.6f; 7 configs, worst grid deviation %.2e"
                           % (head, worst))


def check_deep_pair_limit(cache):
    depths = np.array([10.0, 20.0, 40.0, 80.0])
    gaps = np.abs(inf_a1_flat_rows(1.0, -depths, 10.0)[0] - 1.0)
    decreasing = bool(np.all(np.diff(gaps) < 0))
    bounded = bool(np.all(gaps <= 5.0 / depths))
    detail = ", ".join("|y|=%g: %.2e (cap %.2e)" % (d, g, 5.0 / d) for d, g in zip(depths, gaps))
    return decreasing and bounded, detail


def check_linear_dispersion(cache):
    t_start = time.perf_counter()
    grid = GridSpec(200.0, 2 ** 12)
    state = make_initial("odd_bump", 1e-6, None, grid)
    m = int(round(grid.half_length / math.pi))      # grid mode nearest k = 1
    k_mode = grid.wavenumbers[m]
    dt, t_end = 0.04, 25.0
    series = []
    for _ in range(int(round(t_end / dt))):
        state = step_rk4(state, dt)
        series.append(state.W.fft[m].imag)
    # one frequency obeys x[n+1] + x[n-1] = 2 cos(omega dt) x[n]: least squares in c
    x = np.asarray(series)
    c = np.dot(x[1:-1], x[2:] + x[:-2]) / (2.0 * np.dot(x[1:-1], x[1:-1]))
    omega = math.acos(c) / dt
    dev = abs(omega - 1.0)
    wall = time.perf_counter() - t_start
    return dev <= 0.01 and wall < 30.0, (
        "mode k=%.5f: fitted omega=%.5f, |omega-1|=%.4f (cap 0.01); %.0fs (cap 30s)"
        % (k_mode, omega, dev, wall))


def check_transition_experiment(cache):
    t0 = time.perf_counter()
    res = cache.transition
    wall = time.perf_counter() - t0
    infs = np.array([r.inf_A1 for r in res.records])
    start_ok = infs[0] >= 0.8
    decreasing = bool(np.all(np.diff(infs) < 1e-12))
    y_cross = measured_crossing(res.records)
    detail_bits = ["start inf A1 = %.4f" % infs[0]]
    cross_ok = False
    if y_cross is not None:
        y_pred = crossing_depth(CANONICAL_LAMBDA)
        rel = abs(y_cross - y_pred) / y_pred
        cross_ok = rel <= 0.15
        detail_bits.append("crossing |y|=%.3f vs predicted %.3f (dev %.1f%%)"
                           % (y_cross, y_pred, 100 * rel))
    detail_bits.append("exit=%s" % res.exit_reason)
    passed = (start_ok and decreasing and cross_ok
              and res.exit_reason == "taylor_negative" and wall < 300.0)
    return passed, "; ".join(detail_bits) + "; run wall %.0fs (cap 300s)" % wall


def check_receding_pair(cache):
    res = cache.receding
    rows = res.records
    lam = abs(CANONICAL_LAMBDA)
    d0 = rows[0].d_I
    bound_ok = all(r.d_I >= d0 + lam * r.t / (8 * math.pi) - 1e-9 for r in rows)
    infs = np.array([r.inf_A1 for r in rows])
    increasing = bool(np.all(np.diff(infs) > -1e-3))
    final_ok = infs[-1] >= 0.95
    passed = bound_ok and increasing and final_ok and res.exit_reason == "completed"
    return passed, ("d_I bound "
                    "%s; inf A1 %.4f -> %.4f (final >= 0.95: %s)"
                    % ("held" if bound_ok else "violated", infs[0], infs[-1], final_ok))


def _gap(a, b):
    """The larger L2 distance of W and of U of two states, from their spectra."""
    return max(math.sqrt(np.sum(power_spectrum(a.grid, f.fft - g.fft)))
               for f, g in ((a.W, b.W), (a.U, b.U)))


def check_rk4_order(cache):
    # RK4's observed order: from the canonical state at n = 2^12, the gap
    # between the states at T = 0.1 of dt and dt/2 falls by 2^4 per halving,
    # in W and U and in the positions (whose second gap is at round-off)
    finals, start = [], build_run_inputs(canonical_scenario({"grid.n": 2 ** 12}))[1]
    for dt in (0.02, 0.01, 0.005, 0.0025):
        finals.append(start)
        for _ in range(round(0.1 / dt)):
            finals[-1] = step_rk4(finals[-1], dt)
    pairs = list(zip(finals, finals[1:]))
    gaps = [_gap(a, b) for a, b in pairs]
    z_gaps = [np.max(np.abs(a.positions - b.positions)) for a, b in pairs[:2]]
    orders = [a / b for a, b in zip(gaps, gaps[1:])] + [z_gaps[0] / z_gaps[1]]
    passed = all(14.0 <= r <= 18.0 for r in orders)
    return passed, ("gap ratios per dt halving: W/U %.2f and %.2f, positions %.2f "
                    "(each in [14, 18])" % tuple(orders))


def check_symmetry_structure(cache):
    rows = cache.transition.records + cache.receding.records
    sym = max(r.symmetry_defect for r in rows)
    xsum = max(abs(r.x1 + r.x2) for r in rows)
    bres = max(r.b_residual for r in rows)
    passed = sym <= 1e-8 and xsum <= 1e-8 and bres <= 1e-6
    return passed, ("max oddness defect %.1e, max |x1+x2| %.1e, max b_residual %.1e"
                    % (sym, xsum, bres))


def check_time_reversal(cache):
    _, state, integrator = cache.canonical_inputs[:3]
    dt = integrator.dt
    y_path = [state.positions[0].imag]
    for _ in range(20):
        state = step_rk4(state, dt)
        y_path.append(state.positions[0].imag)
    back, worst = reversed_state(state), 0.0
    for y in y_path[-2::-1]:  # the forward path, back from its last step
        back = step_rk4(back, dt)
        worst = max(worst, abs(back.positions[0].imag - y))
    return worst <= 1e-4, ("max |y_return - y_forward| over the window = %.2e "
                           "(cap 1e-4)" % worst)


REGISTRY = [
    ("C01 closed-form trichotomy", check_closed_form_trichotomy),
    ("C02 residue oracles", check_residue_oracles),
    ("C03 interaction identity", check_interaction_identity),
    ("C04 Hilbert calibration", check_hilbert_calibration),
    ("C05 dual-path Taylor coefficient", check_dual_path_a1),
    ("C06 deep-pair limit", check_deep_pair_limit),
    ("C07 linear dispersion", check_linear_dispersion),
    ("C08 transition experiment", check_transition_experiment),
    ("C09 receding pair", check_receding_pair),
    ("C10 RK4 observed order", check_rk4_order),
    ("C11 symmetry and structure", check_symmetry_structure),
    ("C12 time reversal", check_time_reversal),
]


def run_all(names=None):
    """Execute the registry (the checks whose name contains one of ``names``)
    on one :class:`RunCache`; returns a list of CheckResult."""
    cache = RunCache()
    results = []
    for name, fn in REGISTRY:
        if names is not None and not any(s in name for s in names):
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn(cache)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
        results.append(CheckResult(name, bool(passed), detail, time.perf_counter() - t0))
    return results
