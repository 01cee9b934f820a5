#!/usr/bin/env python3
"""The closed-form stability landscape of a submerged vortex pair.

For a flat interface with a counter-rotating pair at depth |y| and
strength lam, the normal-pressure (Taylor) coefficient is known in
closed form.  In the rescaled variable a = k|y| it collapses onto

    f(gamma, k) = 1 - gamma * g(k),        gamma = lam^2 / (pi^2 |y|^3),

and since g peaks at 1/4 (k = +-1), the interface destabilizes exactly
when gamma exceeds 4 -- i.e. when the pair rises past the crossing depth
(lam^2/4pi^2)^(1/3).  This script prints the extrema, sweeps gamma
through the threshold, and tabulates the exact minimum against the
reduced profile.  With matplotlib installed it also saves a figure.
"""

import math

import numpy as np

from vortexwavelab.acceptance import CANONICAL_LAMBDA
from vortexwavelab.config import sweep_rows
from vortexwavelab.taylor import (PairConfig, a1_flat_pair, crossing_depth,
                                  g_profile, inf_a1_flat_rows)

print("g(k) extrema: g(0) = %g (min), g(+-1) = %g (max)" % (g_profile(0.0), g_profile(1.0)))
print("threshold: f(4, +-1) = 0, so gamma = 4 is the sign boundary\n")

print("gamma sweep at x = 1e-3, y = -10 (near the reduced-profile limit):")
for gamma, x, y, lam, inf_v, argmin in sweep_rows(3.0, 5.0, 9, 1e-3, -10.0):
    reduced = 1.0 - gamma / 4.0
    print(f"  gamma = {gamma:4.2f}  inf A1 = {inf_v:+.4f}  (reduced profile {reduced:+.4f})"
          f"  argmin near |a| = {abs(argmin):.2f}")

print("\ncrossing depths: lam -> (lam^2/4pi^2)^(1/3)")
for lam in (2 * math.pi, 4 * math.pi, CANONICAL_LAMBDA):
    print(f"  lam = {lam:8.3f}: |y_c| = {crossing_depth(lam):.4f}")

print("\nfinite-separation correction at x = 1 (exact minimum vs reduced):")
lam = CANONICAL_LAMBDA
depths = np.array([-12.0, -9.0, -6.75, -6.0])
for y, inf_v in zip(depths, inf_a1_flat_rows(1.0, depths, lam)[0]):
    gamma = lam ** 2 / (math.pi ** 2 * abs(y) ** 3)
    print(f"  y = {y:6.2f}: inf A1 = {inf_v:+.4f}, 1 - gamma/4 = {1 - gamma/4:+.4f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\n(matplotlib not available; skipping the figure)")
else:
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    k = np.linspace(-4, 4, 801)
    ax1.plot(k, g_profile(k))
    ax1.axhline(0.25, ls="--", c="gray")
    ax1.set_xlabel("k"); ax1.set_ylabel("g(k)"); ax1.set_title("reduced profile kernel")
    alpha = np.linspace(-30, 30, 1201)
    for y in (-12.0, -6.75, -6.0):
        ax2.plot(alpha, a1_flat_pair(alpha, PairConfig(1.0, y, lam)),
                 label="y = %g" % y)
    ax2.axhline(0.0, ls="--", c="gray")
    ax2.set_xlabel("alpha"); ax2.set_ylabel("A1"); ax2.legend()
    ax2.set_title("exact A1 while the pair rises")
    fig.tight_layout()
    fig.savefig("stability_profile.png", dpi=120)
    print("\nsaved stability_profile.png")
