#!/usr/bin/env python3
"""RK4 against the Picard-iterated implicit trapezoid stepper.

Every run steps with classical RK4.  The benchmark's cross-check
stepper, ``sim.step_picard``, which no run takes, freezes the
right-hand side on the previous sweep's endpoint and iterates the
trapezoid update to its fixed point; the sweep residuals must contract
geometrically, and after 50 steps the two integrators must agree far
below the bound the benchmark's ``crosscheck`` gate holds them to (1e-6
in L2 of W and U).

Each Picard step returns the last iterate whose right-hand side it
evaluated and carries that slope to the next step, which starts from
the second-order Adams-Bashforth predictor on it.  The first step has
no carry and starts from Euler: it takes 3 sweeps, and every later step
2, so the run prints "sweeps per step: min 2, max 3".
"""

import math

import numpy as np

from vortexwavelab.acceptance import canonical_scenario
from vortexwavelab.config import build_run_inputs
from vortexwavelab.sim import IntegratorConfig, step_picard, step_rk4

grid, start = build_run_inputs(canonical_scenario({"grid.n": 2 ** 13}))[:2]

dt, steps = 2e-3, 50
cfg = IntegratorConfig(dt=dt, t_end=steps * dt, scheme="picard", picard_tol=1e-9)

s_rk = start
for _ in range(steps):
    s_rk = step_rk4(s_rk, dt)

s_pi = start
iters_seen = []
print("first few steps, sweep residual histories (H4 change per sweep):")
for n in range(steps):
    s_pi, iters, hist = step_picard(s_pi, dt, cfg)
    iters_seen.append(iters)
    if n < 4:
        print("  step %2d: %s" % (n, "  ".join("%.2e" % h for h in hist)))

gap_w = math.sqrt(grid.spacing * np.sum(np.abs(s_rk.W.samples - s_pi.W.samples) ** 2))
gap_u = math.sqrt(grid.spacing * np.sum(np.abs(s_rk.U.samples - s_pi.U.samples) ** 2))
gap_z = abs(s_rk.positions[0] - s_pi.positions[0])
print("\nafter %d steps of the transition scenario at dt = %g:" % (steps, dt))
print("  |W_rk4 - W_picard|_L2 = %.3e" % gap_w)
print("  |U_rk4 - U_picard|_L2 = %.3e" % gap_u)
print("  vortex position gap   = %.3e" % gap_z)
print("  sweeps per step: min %d, max %d" % (min(iters_seen), max(iters_seen)))
