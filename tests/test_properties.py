"""Property tests of the operator algebra and the assembly on small grids.

H is the multiplier -sgn(k), so H^2 = I on mean-zero fields (the
H^2 = -I of the -i sgn(k) convention does not apply here).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexwavelab.grid import Field, GridSpec
from vortexwavelab.spectral import apply_multiplier, hilbert
from vortexwavelab.waves import Vortex, WaveState, assemble, reconstruct

from conftest import band_limited

SETTINGS = settings(max_examples=25, deadline=None)
GRIDS = st.sampled_from([GridSpec(50.0, 2 ** p) for p in (8, 9, 10)])
SEEDS = st.integers(0, 2 ** 32 - 1)


def random_field(grid, rng, amplitude=1.0):
    """Real mean-zero field on the lowest eighth of the grid's modes,
    scaled to the given sup norm."""
    f = band_limited(grid, rng, modes=int(rng.integers(1, grid.n_points // 8)))
    return Field(grid, amplitude * f.samples.real / f.sup_norm())


@SETTINGS
@given(GRIDS, SEEDS, st.booleans())
def test_hilbert_squared_is_identity(grid, seed, complex_valued):
    rng = np.random.default_rng(seed)
    f = random_field(grid, rng)
    if complex_valued:
        f = f + 1j * random_field(grid, rng)
    assert np.max(np.abs(hilbert(hilbert(f)).samples - f.samples)) <= 1e-12 * f.sup_norm()


@SETTINGS
@given(GRIDS, SEEDS)
def test_holomorphic_projection_is_idempotent(grid, seed):
    f = random_field(grid, np.random.default_rng(seed))
    plus_half = 0.5 * (1.0 - np.sign(grid.wavenumbers))   # (I + H)/2
    once = apply_multiplier(f, plus_half)
    twice = apply_multiplier(once, plus_half)
    assert np.max(np.abs(twice.samples - once.samples)) <= 1e-12 * f.sup_norm()


@SETTINGS
@given(GRIDS, SEEDS)
def test_reconstruct_keeps_the_real_parts(grid, seed):
    rng = np.random.default_rng(seed)
    W = random_field(grid, rng, 0.1)
    U = random_field(grid, rng, 0.1)
    Z, F, _ = reconstruct(W, U)
    assert np.max(np.abs((Z.samples - grid.alpha).real - W.samples.real)) <= 1e-14
    assert np.max(np.abs(F.samples.real - U.samples.real)) <= 1e-14


@SETTINGS
@given(GRIDS, SEEDS, st.floats(0.5, 2.0), st.floats(-10.0, -3.0), st.floats(-20.0, 20.0),
       st.floats(0.0, 1e-2))
def test_b_residual_small_with_a_pair(grid, seed, x, y, lam, amplitude):
    rng = np.random.default_rng(seed)
    state = WaveState(random_field(grid, rng, amplitude), random_field(grid, rng, amplitude),
                      (Vortex(complex(-x, y), lam), Vortex(complex(x, y), -lam)))
    d = assemble(state)
    assert d.b_residual <= 1e-6 * (1.0 + d.b.l2_norm())
