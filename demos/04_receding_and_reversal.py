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

from vortexwavelab.grid import GridSpec
from vortexwavelab.sim import (IntegratorConfig, make_initial, reversed_state,
                               run_simulation, step_rk4)
from vortexwavelab.taylor import PairConfig

LAM = 2 * math.pi * 6.75 ** 1.5
grid = GridSpec(200.0, 2 ** 13)

print("== receding pair (lam < 0) ==")
pair = PairConfig(1.0, -12.0, -LAM)
state = make_initial("odd_bump", 1e-3, pair, grid)
res = run_simulation(state, IntegratorConfig(dt=0.004, t_end=0.6), stride=10)
print("   t      y(t)      d_I     d_I bound   inf A1")
d0 = res.records[0].d_I
for r in res.records:
    bound = d0 + abs(LAM) * r.t / (8 * math.pi)
    print("%6.3f  %8.3f  %8.3f  %9.3f  %+.4f" % (r.t, r.y1, r.d_I, bound, r.inf_A1))

print("\n== time reversal ==")
state = make_initial("odd_bump", 1e-3, PairConfig(1.0, -12.0, LAM), grid)
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
