"""The four workloads of the vortexwavelab benchmark.

Each workload turns ``--seed`` into its inputs; seed 0 gives exactly the
shipped configuration (``demos/transition.cfg``, the C05/C03/C10
parameters of ``vortexwavelab.acceptance`` and the quadrature fixtures
of ``tests/``), other seeds perturb amplitudes, positions or ranges by a
few percent without changing the amount of work.  ``setup`` builds the
grid and the initial state, which is what the set-up probe times; ``rep``
runs the workload once from inputs it builds afresh (so no cached
spectrum carries over) and returns its correctness gates.  Every package call goes
through a module attribute looked up at call time, so the tracer's
rebinding reaches it.

Run as a script (``python3 perfbench/workloads.py <workload> <seed>``) it
prints the reference-scaled seconds one set-up takes in a fresh
interpreter: package import, input generation, grid and initial state.
"""

import contextlib
import csv
import io
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def import_package():
    """Import vortexwavelab from the checkout's ``src``, never from
    anywhere else on the path."""
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import vortexwavelab
    import vortexwavelab.cli  # noqa: F401  (binds every module the tracer rebinds)
    if not Path(vortexwavelab.__file__).resolve().is_relative_to(src):
        raise ImportError("vortexwavelab imported from %s, not from %s"
                          % (vortexwavelab.__file__, src))
    return vortexwavelab


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _jitter(rng, rel):
    """1 + u*rel with u uniform in [-1, 1)."""
    return 1.0 + rel * (2.0 * rng.random() - 1.0)


@dataclass
class Rep:
    """Outcome of one repetition: the gates it checked as (name, passed,
    detail), timings it took itself, and what the command line printed."""

    gates: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    note: str = ""

    def gate(self, name, passed, detail):
        self.gates.append((name, bool(passed), detail))


def _quiet(fn, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fn(*args)
    return code, out.getvalue().strip()


# ----------------------------------------------------------------------
# transition: `vwl run demos/transition.cfg`, in process

TRANSITION_CFG = {
    "grid.half_length": 200.0,
    "grid.n": 16384,
    "vortex.x0": 1.0,
    "vortex.y0": -12.0,
    "vortex.lambda": 110.18831137722873,
    "wave.kind": "odd_bump",
    "wave.amplitude": 1e-3,
    "gevrey.L0": 10.0,
    "gevrey.delta0": 5.0,
    "time.dt": 0.004,
    "time.t_end": 0.85,
    "time.scheme": "rk4",
    "output.stride": 2,
    "monitor.eta1": 0.5,
}


def wave_amplitude(seed):
    """The canonical 1e-3 odd bump, within +-10% for seeds other than 0."""
    return 1e-3 if seed == 0 else 1e-3 * _jitter(_rng(seed, 1), 0.1)


class Transition:
    """The headline run: the rising pair drives inf A1 through zero."""

    name = "transition"

    def __init__(self, seed):
        self.values = dict(TRANSITION_CFG, **{"wave.amplitude": wave_amplitude(seed)})

    def config_text(self, output_path):
        lines = ["%s = %s" % (k, v if isinstance(v, str) else repr(v))
                 for k, v in self.values.items()]
        lines.append("output.path = %s" % output_path)
        return "\n".join(lines) + "\n"

    def setup(self, workdir):
        vwl = import_package()
        cfg_path = Path(workdir) / "transition.cfg"
        csv_path = Path(workdir) / "transition_trajectory.csv"
        cfg_path.write_text(self.config_text(csv_path))
        cfg = vwl.config.ScenarioConfig.from_file(cfg_path)
        vwl.config.build_run_inputs(cfg)
        return {"vwl": vwl, "cfg": cfg_path, "csv": csv_path, "lam": cfg.lam}

    def rep(self, ctx):
        vwl = ctx["vwl"]
        r = Rep()
        code, r.note = _quiet(vwl.cli.main, ["run", str(ctx["cfg"])])
        with open(ctx["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        col = {k: np.array([float(row[k]) for row in rows]) for k in
               ("t", "x1", "x2", "y1", "inf_A1", "symmetry_defect", "b_residual")}
        infs, ys = col["inf_A1"], col["y1"]
        r.gate("exit taylor_negative", code == 2, "exit code %d" % code)
        r.gate("inf A1 starts >= 0.8", infs[0] >= 0.8, "%.4f" % infs[0])
        r.gate("inf A1 decreasing", np.all(np.diff(infs) < 1e-12), "")
        crossed = bool(np.any(infs <= 0.0))
        detail = "no crossing"
        if crossed:
            i = int(np.argmax(infs <= 0.0))
            frac = infs[i - 1] / (infs[i - 1] - infs[i])
            y_cross = abs(ys[i - 1] + frac * (ys[i] - ys[i - 1]))
            y_pred = vwl.taylor.crossing_depth(ctx["lam"])
            crossed = abs(y_cross - y_pred) <= 0.15 * y_pred
            detail = "|y| %.3f vs predicted %.3f" % (y_cross, y_pred)
        r.gate("crossing depth within 15%", crossed, detail)
        sym = max(np.max(col["symmetry_defect"]), np.max(np.abs(col["x1"] + col["x2"])))
        r.gate("symmetry defect <= 1e-8", sym <= 1e-8, "%.1e" % sym)
        bres = np.max(col["b_residual"])
        r.gate("b_residual <= 1e-6", bres <= 1e-6, "%.1e" % bres)
        return r


# ----------------------------------------------------------------------
# crosscheck: C10, RK4 against Picard-trapezoid, every step timed

class Crosscheck:
    """50 RK4 and 50 Picard steps at dt = 2e-3 from the canonical state."""

    name = "crosscheck"
    dt = 2e-3
    steps = 50
    picard_tol = 1e-9

    def __init__(self, seed):
        self.amplitude = wave_amplitude(seed)

    def setup(self, workdir):
        vwl = import_package()
        ctx = {"vwl": vwl, "grid": vwl.grid.GridSpec(200.0, 2 ** 14)}
        self.initial(ctx)
        return ctx

    def initial(self, ctx):
        vwl = ctx["vwl"]
        pair = vwl.taylor.PairConfig(1.0, -12.0, TRANSITION_CFG["vortex.lambda"])
        return vwl.sim.make_initial("odd_bump", self.amplitude, pair, ctx["grid"])

    def rep(self, ctx):
        vwl = ctx["vwl"]
        grid = ctx["grid"]
        r = Rep()
        start = self.initial(ctx)
        integ = vwl.sim.IntegratorConfig(dt=self.dt, t_end=self.steps * self.dt,
                                         scheme="picard", picard_tol=self.picard_tol)
        rk4_ms, picard_ms, sweeps = [], [], []
        s_rk = start
        for _ in range(self.steps):
            t0 = time.perf_counter()
            s_rk = vwl.sim.step_rk4(s_rk, self.dt)
            rk4_ms.append(1e3 * (time.perf_counter() - t0))
        s_pi = start
        worst = 0.0
        for _ in range(self.steps):
            t0 = time.perf_counter()
            s_pi, iters, hist = vwl.sim.step_picard(s_pi, self.dt, integ)
            picard_ms.append(1e3 * (time.perf_counter() - t0))
            sweeps.append(iters)
            for a, b in zip(hist, hist[1:]):
                worst = max(worst, b / a if a > 0 else 0.0)
        gap = max(math.sqrt(grid.spacing * np.sum(np.abs(a.samples - b.samples) ** 2))
                  for a, b in ((s_rk.W, s_pi.W), (s_rk.U, s_pi.U)))
        r.samples.update(rk4_ms=rk4_ms, picard_ms=picard_ms)
        r.gate("Picard sweep ratios < 1", worst < 1.0, "worst %.3f" % worst)
        r.gate("final L2 gap <= 1e-6", gap <= 1e-6, "%.2e" % gap)
        r.note = "picard sweeps per step %.3f" % np.mean(sweeps)
        return r


# ----------------------------------------------------------------------
# oracles: C05 and C03 on the wide grid, PV quadratures on a small one

DUAL_PATH_CONFIGS = [        # C05 (x, y, lambda)
    (1.0, -2.0, 2 * math.pi),
    (0.5, -2.0, 2 * math.pi),
    (2.0, -3.0, 4 * math.pi),
    (1.0, -5.0, 10.0),
    (1.0, -2.0, -2 * math.pi),
    (0.7, -4.0, 5.0),
    (1.5, -2.5, 7.0),
]

INTERACTION_CONFIGS = [      # C03 [(position, strength), ...]
    [(-1.0 - 2.0j, 2 * math.pi), (1.0 - 2.0j, -2 * math.pi)],
    [(-1.0j, 2 * math.pi)],
    [(-0.5 - 3.0j, 5.0), (0.5 - 3.0j, -5.0)],
    [(-2.0 - 4.0j, 10.0), (2.0 - 4.0j, -10.0)],
    [(-2.5j, -4.0)],
]


def band_limited(field_cls, grid, rng, modes):
    """Random real mean-zero field on grid modes 1..modes (as in tests/)."""
    spec = np.zeros(grid.n_points, dtype=np.complex128)
    coef = rng.normal(size=modes) + 1j * rng.normal(size=modes)
    spec[1:modes + 1] = coef
    spec[-modes:] = np.conj(coef[::-1])
    return field_cls(grid, np.fft.ifft(spec).real)


class Oracles:
    """Discrete operators against closed forms on the 2^18 oracle grid."""

    name = "oracles"
    quadrature_rows = 64     # per C03 config, evenly spaced
    pv_pairs = 3

    def __init__(self, seed):
        self.seed = seed
        if seed == 0:
            self.dual = list(DUAL_PATH_CONFIGS)
            self.interaction = [list(c) for c in INTERACTION_CONFIGS]
        else:
            rng = _rng(seed, 2)
            self.dual = [(x * _jitter(rng, 0.05), y * _jitter(rng, 0.05),
                          lam * _jitter(rng, 0.05)) for x, y, lam in DUAL_PATH_CONFIGS]
            self.interaction = [[(complex(z.real * _jitter(rng, 0.05), z.imag * _jitter(rng, 0.05)),
                                  lam * _jitter(rng, 0.05)) for z, lam in c]
                                for c in INTERACTION_CONFIGS]

    def setup(self, workdir):
        vwl = import_package()
        ctx = {"vwl": vwl,
               "wide": vwl.grid.GridSpec(3200.0, 2 ** 18),
               "small": vwl.grid.GridSpec(200.0, 2 ** 10)}
        self.inputs(ctx)
        return ctx

    def inputs(self, ctx):
        """Fresh input fields, so no cached spectrum carries between reps."""
        vwl = ctx["vwl"]
        wide, small = ctx["wide"], ctx["small"]
        Field = vwl.grid.Field
        states = []
        for x, y, lam in self.dual:
            vort = (vwl.waves.Vortex(complex(-x, y), lam), vwl.waves.Vortex(complex(x, y), -lam))
            states.append(vwl.waves.WaveState(vwl.grid.zero_field(wide),
                                              vwl.grid.zero_field(wide), vort, 0.0))
        qbars = []
        for vort in self.interaction:
            samples = np.zeros(wide.n_points, dtype=np.complex128)
            for z, lam in vort:
                samples += (lam * 1j / (2 * math.pi)) * vwl.spectral.periodic_cauchy_kernel(
                    wide.alpha - np.conj(z), wide.half_length)
            qbars.append(Field(wide, samples))
        seeds = (3, 5) if self.seed == 0 else ([self.seed, 3], [self.seed, 5])
        hq_field = band_limited(Field, small, np.random.default_rng(seeds[0]), 20)
        rng = np.random.default_rng(seeds[1])
        pv_pairs = [(band_limited(Field, small, rng, 24), band_limited(Field, small, rng, 24))
                    for _ in range(self.pv_pairs)]
        return states, qbars, hq_field, pv_pairs

    def rep(self, ctx):
        vwl = ctx["vwl"]
        wide = ctx["wide"]
        r = Rep()
        states, qbars, hq_field, pv_pairs = self.inputs(ctx)
        for (x, y, lam), state in zip(self.dual, states):
            derived = vwl.waves.assemble(state)
            oracle = vwl.taylor.a1_flat_pair(wide.alpha, vwl.taylor.PairConfig(x, y, lam))
            dev = float(np.max(np.abs(derived.A1.samples.real - oracle)))
            r.gate("C05 A1 vs closed form <= 1e-6", dev <= 1e-6, "%.2e" % dev)
        sub = np.arange(0, wide.n_points, wide.n_points // self.quadrature_rows)
        for vort, qbar in zip(self.interaction, qbars):
            oracle = vwl.taylor.interaction_sum(vort, wide.alpha)
            spec = vwl.spectral.sq_diff_integral(qbar).samples.real
            dev = float(np.max(np.abs(spec - oracle)))
            r.gate("C03 spectral path <= 1e-6", dev <= 1e-6, "%.2e" % dev)
            quad, idx = vwl.spectral.sq_diff_integral(qbar, method="quadrature", out_indices=sub)
            dev = float(np.max(np.abs(quad.samples.real[idx] - oracle[idx])))
            r.gate("C03 quadrature path <= 1e-6", dev <= 1e-6, "%.2e" % dev)
        hq = vwl.spectral.hilbert_quadrature(hq_field)
        dev = float(np.max(np.abs(hq.samples - vwl.spectral.hilbert(hq_field).samples)))
        tol = 1e-10 * hq_field.sup_norm()
        r.gate("hilbert_quadrature vs multiplier", dev <= tol, "%.1e (tol %.1e)" % (dev, tol))
        for f, g in pv_pairs:
            direct = vwl.spectral.pv_commutator(f, g)
            dev = float(np.max(np.abs(direct.samples - vwl.spectral.commutator_hilbert(f, g).samples)))
            r.gate("pv_commutator vs multiplier <= 1e-8", dev <= 1e-8, "%.1e" % dev)
        return r


# ----------------------------------------------------------------------
# sweep: `vwl sweep` over gamma around the threshold 4, in process

@contextlib.contextmanager
def _env(name, value):
    """Set the environment variable ``name`` to ``value`` for the block."""
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = old


class Sweep:
    """Closed-form stability scan across the gamma = 4 threshold.

    ``vwl sweep`` runs with ``VWL_THREADS`` = ``workers`` = 1.  With the
    default pool of two threads on two shared cores its time follows how
    many cores the host leaves free (0.95 s to 1.8 s a repetition on one
    machine, run to run), which the single-threaded reference clock does
    not see; and the pool is to be replaced by a vectorized scan, whose
    base is the serial sweep.  The traced run still times the default
    pool against one worker (``config.sweep_rows.pooled_s``/``serial_s``).
    """

    name = "sweep"
    steps = 2001
    x, y = 1e-3, -10.0
    workers = 1

    def __init__(self, seed):
        self.gamma_min, self.gamma_max = 3.9, 4.1
        if seed != 0:
            rng = _rng(seed, 3)
            self.gamma_min += 0.02 * (2.0 * rng.random() - 1.0)
            self.gamma_max += 0.02 * (2.0 * rng.random() - 1.0)

    def setup(self, workdir):
        vwl = import_package()
        return {"vwl": vwl, "csv": Path(workdir) / "sweep.csv"}

    def argv(self, out):
        return ["sweep", "--gamma-min", repr(self.gamma_min), "--gamma-max", repr(self.gamma_max),
                "--steps", str(self.steps), "--x", repr(self.x), "--y", repr(self.y),
                "--out", str(out)]

    def rep(self, ctx):
        vwl = ctx["vwl"]
        r = Rep()
        with _env("VWL_THREADS", str(self.workers)):
            code, r.note = _quiet(vwl.cli.main, self.argv(ctx["csv"]))
        with open(ctx["csv"], newline="") as fh:
            rows = [(float(row["gamma"]), float(row["inf_A1"])) for row in csv.DictReader(fh)]
        gam = np.array([g for g, _ in rows])
        inf = np.array([v for _, v in rows])
        r.gate("exit 0 with every row", code == 0 and len(rows) == self.steps,
               "exit %d, %d rows" % (code, len(rows)))
        r.gate("rows finite", np.all(np.isfinite(inf)), "")
        below, above = inf[gam < 4.0 - 1e-6], inf[gam > 4.0 + 1e-6]
        r.gate("inf_A1 changes sign across gamma = 4",
               below.size and above.size and np.all(below > 0) and np.all(above < 0),
               "%d rows below, %d above" % (below.size, above.size))
        return r

    def rows(self, ctx, workers):
        """The same rows from ``config.sweep_rows`` with ``workers`` workers."""
        return ctx["vwl"].config.sweep_rows(self.gamma_min, self.gamma_max, self.steps,
                                            self.x, self.y, max_workers=workers)


WORKLOADS = {w.name: w for w in (Transition, Crosscheck, Oracles, Sweep)}


def _probe(name, seed):
    """Reference-scaled seconds of one set-up in this interpreter."""
    import tempfile
    from refclock import RefClock
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed)
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        _, scaled, _ = RefClock().measure(lambda: workload.setup(workdir))
    return scaled


if __name__ == "__main__":
    print(repr(_probe(sys.argv[1], int(sys.argv[2]))))
