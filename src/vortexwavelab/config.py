"""Scenario configuration files and trajectory output.

Configs are flat ``key = value`` text with ``#`` comments, one namespaced
key per line (``_KEYS`` lists them all; ``demos/transition.cfg`` is the
canonical scenario)::

    grid.n        = 16384
    vortex.y0     = -12.0
    vortex.lambda = 110.188
    wave.kind     = odd_bump
    time.dt       = 0.004
    time.t_end    = 0.85
    output.path   = trajectory.csv

Exactly one of vortex.gamma / vortex.lambda must appear; gamma sets the
strength through lambda = pi * sqrt(gamma) * |y0|^(3/2).  A nonzero
wave.amplitude needs wave.kind = odd_bump.  Without gevrey.delta0 the
radius decays at L0 / (2 t_end).  time.scheme is rk4, a run's one
stepper.  A dict's values are typed by key (``_TYPES``).  Trajectories
are written as CSV with a fixed 15-column header and 17-significant-digit
floats.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .gevrey import DEFAULT_L0, GevreyParams
from .grid import GridSpec
from .sim import IntegratorConfig, StepRecord, make_initial, run_simulation
from .taylor import PairConfig, inf_a1_flat_rows

REQUIRED = object()  # the default of a key that every config must set

# key -> (type, default or REQUIRED, test, requirement).  Each value set is
# checked here, so that a bad one is named by its key; the objects built
# from these keys check them again.  A key with default None is optional.
_KEYS = {
    "grid.half_length": (float, 200.0, lambda v: v > 0, "positive"),
    "grid.n": (int, 16384, lambda v: v >= 16 and v & (v - 1) == 0, "a power of two >= 16"),
    "vortex.x0": (float, 1.0, lambda v: v > 0, "positive"),
    "vortex.y0": (float, REQUIRED, lambda v: v < 0, "negative (below the interface)"),
    "vortex.gamma": (float, None, lambda v: v >= 0, "nonnegative"),
    "vortex.lambda": (float, None, None, None),
    "wave.kind": (str, "zero_wave", lambda v: v in ("zero_wave", "odd_bump"),
                  "zero_wave or odd_bump"),
    "wave.amplitude": (float, 0.0, lambda v: v >= 0, "nonnegative"),
    "gevrey.L0": (float, DEFAULT_L0, lambda v: v >= 4, "at least 4"),
    "gevrey.delta0": (float, None, lambda v: v > 0, "positive"),
    "time.dt": (float, REQUIRED, lambda v: v > 0, "positive"),
    "time.t_end": (float, REQUIRED, lambda v: v >= 0, "nonnegative"),
    "time.scheme": (str, "rk4", lambda v: v == "rk4", "rk4"),
    "output.path": (str, "trajectory.csv", None, None),
    "output.stride": (int, 1, lambda v: v >= 1, "at least 1"),
    "monitor.eta1": (float, None, lambda v: v >= 0, "nonnegative"),
}

# the values a key of each type takes, bools excepted, in a config built from a dict
_TYPES = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number"),
          str: (str, "a string")}


@dataclass
class ScenarioConfig:
    """Validated scenario: a dict of the namespaced keys actually set."""

    values: dict

    def __post_init__(self):
        self.validate()

    # --- accessors -----------------------------------------------------
    def get(self, key):
        default = _KEYS[key][1]
        return self.values.get(key, None if default is REQUIRED else default)

    @property
    def lam(self):
        """Vortex strength, derived from gamma when given that way."""
        if "vortex.lambda" in self.values:
            return self.values["vortex.lambda"]
        gamma = self.values["vortex.gamma"]
        return math.pi * math.sqrt(gamma) * abs(self.get("vortex.y0")) ** 1.5

    # --- validation ----------------------------------------------------
    def validate(self):
        for key, v in self.values.items():
            if key not in _KEYS:
                raise ConfigError("unknown key %r" % key, key=key)
            kind, name = _TYPES[_KEYS[key][0]]
            if isinstance(v, bool) or not isinstance(v, kind):
                raise ConfigError("%s must be %s, got %r" % (key, name, v), key=key)
        for key, (_, default, _, _) in _KEYS.items():
            if default is REQUIRED and key not in self.values:
                raise ConfigError("missing required key %r" % key, key=key)
        has_gamma = "vortex.gamma" in self.values
        has_lambda = "vortex.lambda" in self.values
        if has_gamma == has_lambda:
            raise ConfigError(
                "exactly one of vortex.gamma / vortex.lambda must be set "
                "(got %s)" % ("both" if has_gamma else "neither"),
                key="vortex.gamma" if has_gamma else "vortex.lambda")
        for key, v in self.values.items():
            if isinstance(v, (float, np.floating)) and not math.isfinite(v):
                raise ConfigError("value of %r is not finite" % key, key=key)
        for key, (_, _, ok, requirement) in _KEYS.items():
            if key in self.values and ok is not None and not ok(self.values[key]):
                raise ConfigError("%s must be %s, got %r" % (key, requirement, self.values[key]),
                                  key=key)
        if self.get("wave.amplitude") != 0 and self.get("wave.kind") != "odd_bump":
            raise ConfigError("wave.amplitude must be 0 unless wave.kind = odd_bump, got %r"
                              % self.get("wave.amplitude"), key="wave.amplitude")
        x0, half_length = self.get("vortex.x0"), self.get("grid.half_length")
        if x0 >= half_length:
            raise ConfigError("vortex.x0 must be below grid.half_length = %r (the pair "
                              "must sit inside the periodic cell), got %r"
                              % (half_length, x0), key="vortex.x0")

    # --- text form -----------------------------------------------------
    @classmethod
    def parse(cls, text):
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("line %d is not 'key = value': %r" % (lineno, raw))
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in _KEYS:
                raise ConfigError("unknown key %r (line %d)" % (key, lineno), key=key)
            if key in values:
                raise ConfigError("duplicate key %r (line %d)" % (key, lineno), key=key)
            try:
                values[key] = _KEYS[key][0](val)
            except ValueError:
                raise ConfigError("bad value %r for key %r (line %d)"
                                  % (val, key, lineno), key=key)
        return cls(values)

    @classmethod
    def from_file(cls, path):
        with open(path, "r") as fh:
            return cls.parse(fh.read())


def build_run_inputs(cfg):
    """(grid, initial state, integrator, gevrey params, eta1, stride)."""
    grid = GridSpec(cfg.get("grid.half_length"), cfg.get("grid.n"))
    pair = PairConfig(cfg.get("vortex.x0"), cfg.get("vortex.y0"), cfg.lam)
    state = make_initial(cfg.get("wave.kind"), cfg.get("wave.amplitude"),
                         pair, grid)
    integrator = IntegratorConfig(dt=cfg.get("time.dt"),
                                  t_end=cfg.get("time.t_end"),
                                  scheme=cfg.get("time.scheme"))
    L0, delta0 = cfg.get("gevrey.L0"), cfg.get("gevrey.delta0")
    gevrey = (GevreyParams.halving_at(integrator.t_end, L0) if delta0 is None
              else GevreyParams(L0, delta0))
    eta1 = cfg.get("monitor.eta1")
    return grid, state, integrator, gevrey, eta1, cfg.get("output.stride")


def run_scenario(cfg):
    """Run a scenario end to end; returns the RunResult."""
    _, state, integrator, gevrey, eta1, stride = build_run_inputs(cfg)
    return run_simulation(state, integrator, gevrey_params=gevrey,
                          eta1=eta1, stride=stride)


def write_trajectory(path, records):
    with open(path, "w") as fh:
        fh.write(",".join(StepRecord.COLUMNS) + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def write_sweep(path, rows):
    """Sweep CSV of the 6-tuples ``rows`` (see :func:`sweep_rows`): gamma, x,
    y, lambda, inf_A1, argmin_alpha, each with 17 significant digits."""
    with open(path, "w") as fh:
        fh.write("gamma,x,y,lambda,inf_A1,argmin_alpha\n")
        for row in rows:
            fh.write("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % row)


def sweep_rows(gamma_min, gamma_max, steps, x, y, max_workers=None):
    """Closed-form stability scan over gamma in [gamma_min, gamma_max].

    lambda = pi*sqrt(gamma)*|y|^(3/2) is derived for every row, and the
    minima of all rows come from one :func:`taylor.inf_a1_flat_rows` call.
    ``max_workers`` is ignored; it is still accepted because the benchmark
    passes it, until the next benchmark change deletes it.  A bad argument
    raises ValueError naming its ``vwl sweep`` option.
    """
    for option, value in (("--gamma-min", gamma_min), ("--gamma-max", gamma_max),
                          ("--x", x), ("--y", y)):
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (option, value))
    if gamma_min < 0:
        raise ValueError("--gamma-min must be nonnegative, got %r" % gamma_min)
    if not gamma_min < gamma_max:
        raise ValueError("need --gamma-min < --gamma-max")
    if not isinstance(steps, numbers.Integral) or steps < 2:
        raise ValueError("--steps must be an int >= 2, got %r" % (steps,))
    if x <= 0:
        raise ValueError("--x must be positive, got %r" % x)
    if y >= 0:
        raise ValueError("--y must be negative (below the interface), got %r" % y)
    gammas = np.linspace(gamma_min, gamma_max, steps)
    lams = np.pi * np.sqrt(gammas) * abs(y) ** 1.5
    infs, argmins = inf_a1_flat_rows(x, y, lams)
    return [(g, x, y, lam, v, a) for g, lam, v, a in
            zip(gammas.tolist(), lams.tolist(), infs.tolist(), argmins.tolist())]
