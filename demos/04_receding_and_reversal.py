#!/usr/bin/env python3
"""Receding pair and time reversal.

Flipping the pair's strength sends it downward: the interface relaxes
toward A1 = 1 and the vortex-interface distance grows at least at rate
|lam|/(8 pi).  The dynamics is also time-reversible -- mapping
(W, U, lam) -> (W, -U, -lam) and marching forward retraces the original
trajectory -- which doubles as a stringent integrator check.
"""

import math

import numpy as np

from vortexwavelab.acceptance import CANONICAL_LAMBDA, canonical_scenario
from vortexwavelab.config import build_run_inputs, run_scenario
from vortexwavelab.sim import reversed_state, step_rk4

N = 2 ** 13

print("== receding pair (lam < 0) ==")
res = run_scenario(canonical_scenario({"grid.n": N, "vortex.lambda": -CANONICAL_LAMBDA,
                                       "time.t_end": 0.6, "output.stride": 10,
                                       "monitor.eta1": None}))
print("   t      y(t)      d_I     d_I bound   inf A1")
d0 = res.records[0].d_I
for r in res.records:
    bound = d0 + CANONICAL_LAMBDA * r.t / (8 * math.pi)
    print("%6.3f  %8.3f  %8.3f  %9.3f  %+.4f" % (r.t, r.y1, r.d_I, bound, r.inf_A1))

print("\n== time reversal ==")
state = build_run_inputs(canonical_scenario({"grid.n": N}))[1]
dt, steps = 0.004, 25
path = [state.positions[0].imag]
s = state
for _ in range(steps):
    s = step_rk4(s, dt)
    path.append(s.positions[0].imag)
back = reversed_state(s)
errs = []
for i in range(steps):
    back = step_rk4(back, dt)
    errs.append(abs(back.positions[0].imag - path[steps - 1 - i]))
print("forward %d steps to y = %.6f, reversed back to y = %.12f"
      % (steps, path[-1], back.positions[0].imag))
print("max retrace error over the window: %.2e" % max(errs))
print("wave field retrace error: %.2e"
      % np.max(np.abs(back.W.samples - state.W.samples)))
