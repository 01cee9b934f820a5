#!/usr/bin/env python3
"""Gevrey-2 norm diagnostics and the shrinking-radius energy.

The wave fields live in Gevrey-2 classes: squared norms are weighted
sums sigma^(2n)/(n!)^4 ||d^n f||^2 over derivative orders, optionally
with an n^2 factor (the Y family), computed per Fourier mode as the
power spectrum times a closed-form weight over the resolved band.  The
energy of a state pairs the homogeneous Y norm of U with the X norm of
dW/da at a radius phi(t) = L0 - delta0*t that shrinks linearly in time
-- the decay is what pays for the half-derivative the evolution loses.

Shown here: norms and band edges at two radii, the unitarity of the
Hilbert transform in these norms, the band edge of an under-resolved
field, and the energy along a short forced run.
"""

import numpy as np

from vortexwavelab.gevrey import GevreyParams, gevrey_norm
from vortexwavelab.grid import Field, GridSpec, field_from_function
from vortexwavelab.sim import IntegratorConfig, make_initial, run_simulation
from vortexwavelab.spectral import hilbert, periodic_cauchy_kernel
from vortexwavelab.taylor import PairConfig

grid = GridSpec(200.0, 2 ** 13)

print("== X norm of 1/(a - w)^2 (analytic in a strip) ==")
f = field_from_function(grid, lambda a: periodic_cauchy_kernel(a + 2j, grid.half_length) ** 2)
for sigma in (3.0, 12.0):
    rep = gevrey_norm(f, sigma, "X")
    print(f"sigma = {sigma:5.1f}: value = {rep.value:.5e}, band edge at mode "
          f"{rep.band_edge} of {grid.n_points // 2 + 1}, summed up to k = "
          f"{grid.wavenumbers[rep.band_edge - 1]:.2f}")

print("\n== Hilbert unitarity in the four norms ==")
rng = np.random.default_rng(0)
spec = np.zeros(grid.n_points // 2 + 1, complex)
spec[1:25] = rng.normal(size=24) + 1j * rng.normal(size=24)
h = Field(grid, np.fft.irfft(spec, grid.n_points))
for kind in ("X", "Xd", "Y", "Yd"):
    a = gevrey_norm(h, 5.0, kind).value
    b = gevrey_norm(hilbert(h), 5.0, kind).value
    print(f"  {kind:2s}: |H f| / |f| - 1 = {b/a - 1:+.2e}")

print("\n== band edge of an under-resolved field ==")
noisy = Field(grid, h.samples.real + 1e-7 * rng.normal(size=grid.n_points))
for name, g in (("clean", h), ("1e-7 noise", noisy)):
    rep = gevrey_norm(g, 10.0, "X")
    print(f"  {name:10s}: band edge at mode {rep.band_edge} of {grid.n_points // 2 + 1}"
          + (" (not resolved)" if rep.band_edge == grid.n_points // 2 + 1 else ""))

print("\n== energy along a forced run (phi = 10 - 5 t) ==")
params = GevreyParams(L0=10.0, delta0=5.0)
state = make_initial("odd_bump", 1e-3, PairConfig(1.0, -12.0, 60.0), grid)
res = run_simulation(state, IntegratorConfig(dt=0.005, t_end=0.3),
                     gevrey_params=params, stride=10)
print("   t     phi(t)    E")
for r in res.records:
    print("%6.3f  %6.3f  %.5e" % (r.t, r.phi, r.E_gevrey))
print("initial energy %.3e; the vortex forcing pumps the wave while the"
      " shrinking radius discounts high orders" % res.records[0].E_gevrey)
