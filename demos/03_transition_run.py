#!/usr/bin/env python3
"""The transition experiment: a rising vortex pair destabilizes the surface.

A counter-rotating pair (strength lam = 2 pi 6.75^1.5, predicted crossing
depth 6.75) starts at depth 12 under an odd 1e-3 wave.  The pair
self-propels upward at lam/(4 pi x); as it rises, the minimum of the
Taylor coefficient A1 falls from ~0.82 through zero -- the interface
leaves the Rayleigh-Taylor-stable regime -- and the run stops once
inf A1 <= -0.5.  The scenario is the shipped `transition.cfg` beside
this script, the one `vwl run` executes and acceptance check C08 runs;
here it is driven through the library API.

Runs in 3 to 7 s on a 2-core host, depending on its load.
"""

from pathlib import Path

import numpy as np

from vortexwavelab.config import ScenarioConfig, build_run_inputs, write_trajectory
from vortexwavelab.sim import run_simulation
from vortexwavelab.taylor import crossing_depth

cfg = ScenarioConfig.from_file(Path(__file__).resolve().with_name("transition.cfg"))
LAM = cfg.lam
_, state, integrator, gevrey, eta1, stride = build_run_inputs(cfg)
print("running: pair at y0 = -12, lam = %.3f, crossing depth %.3f"
      % (LAM, crossing_depth(LAM)))
result = run_simulation(state, integrator, gevrey_params=gevrey,
                        eta1=eta1, stride=stride)
write_trajectory(cfg.get("output.path"), result.records)
print("exit: %s (%s); %d records -> %s"
      % (result.exit_reason, result.message, len(result.records),
         cfg.get("output.path")))

rows = result.records
print("\n   t      y(t)    inf A1    E(phi)      b_resid   odd defect")
for r in rows[:: max(1, len(rows) // 12)]:
    print("%6.3f  %7.3f  %+8.4f  %9.3e  %8.1e  %8.1e"
          % (r.t, r.y1, r.inf_A1, r.E_gevrey, r.b_residual, r.symmetry_defect))

infs = np.array([r.inf_A1 for r in rows])
ys = np.array([r.y1 for r in rows])
i = int(np.argmax(infs <= 0.0))
frac = infs[i - 1] / (infs[i - 1] - infs[i])
y_cross = abs(ys[i - 1] + frac * (ys[i] - ys[i - 1]))
print("\nmeasured zero crossing at |y| = %.3f vs closed-form prediction %.3f (%+.1f%%)"
      % (y_cross, crossing_depth(LAM), 100 * (y_cross / crossing_depth(LAM) - 1)))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    pass
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(-ys, infs, "o-", ms=3)
    ax.axhline(0, ls="--", c="gray")
    ax.axvline(crossing_depth(LAM), ls=":", c="tab:red", label="predicted crossing depth")
    ax.invert_xaxis()
    ax.set_xlabel("pair depth |y(t)|"); ax.set_ylabel("inf A1"); ax.legend()
    fig.tight_layout(); fig.savefig("transition_run.png", dpi=120)
    print("saved transition_run.png")
