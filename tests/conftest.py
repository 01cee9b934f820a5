import sys
from collections import Counter

import numpy as np
import pytest

from vortexwavelab.acceptance import canonical_scenario
from vortexwavelab.config import build_run_inputs
from vortexwavelab.grid import GridSpec, Field
from vortexwavelab.spectral import periodic_cauchy_kernel, periodic_square_kernel
from vortexwavelab.waves import derive, rhs


@pytest.fixture(scope="session")
def grid():
    """Default working grid."""
    return GridSpec(200.0, 2 ** 14)


@pytest.fixture(scope="session")
def small_grid():
    """Cheap grid for the quadrature cross-checks."""
    return GridSpec(200.0, 2 ** 10)


def per_pole(grid, w, order=1):
    """Field sampling the periodization of 1/(a - w)**order (order 1 or 2).

    This is how a rational function of the line is faithfully realized on
    the periodic interval; raw samples of the unperiodized function differ
    from any periodic function by O(1/L) and would drown spectral tests.
    """
    if order == 1:
        return Field(grid, periodic_cauchy_kernel(grid.alpha - w, grid.half_length))
    if order == 2:
        return Field(grid, periodic_square_kernel(grid.alpha - w, grid.half_length))
    raise ValueError(order)


def mean_zero(f):
    return Field(f.grid, f.samples - f.mean())


def band_limited(grid, rng, modes=32, scale=1.0):
    """Random real mean-zero field supported on grid modes 1..modes."""
    spec = np.zeros(grid.n_points // 2 + 1, dtype=np.complex128)
    spec[1:modes + 1] = rng.normal(size=modes) + 1j * rng.normal(size=modes)
    return Field(grid, np.fft.irfft(spec, grid.n_points) * scale)


def canonical_start(n, overrides=None):
    """The initial state of the canonical scenario on n points (with
    ``overrides`` of :func:`acceptance.canonical_scenario`)."""
    return build_run_inputs(canonical_scenario({"grid.n": n, **(overrides or {})}))[1]


def record_of(state):
    """The :class:`waves.Derived` record of a state."""
    return derive(state.grid, *state.arrays, state.strengths)


def state_rhs(state, record=None):
    """(dW/dt, dU/dt, dz/dt) at a state, given its Derived record or not:
    the samples of the half spectra rhs returns."""
    dw_hat, du_hat, zdots = rhs(state.grid, state.arrays, state.strengths, record)
    dw, du = np.fft.irfft((dw_hat, du_hat), state.grid.n_points)
    return dw, du, zdots


@pytest.fixture
def count_transforms(monkeypatch):
    """A Counter of np.fft's rfft, irfft, fft and ifft from here on: each call
    in counts["transform_calls"], and its real transforms in
    counts["transforms"] and counts[name], one per row for rfft and irfft and
    two per row for fft and ifft, whose n-point complex row costs about two
    real rows.  ``counts.clear()`` starts a new count."""
    counts = Counter()
    for name, weight in (("rfft", 1), ("irfft", 1), ("fft", 2), ("ifft", 2)):
        def transform(x, *args, _fn=getattr(np.fft, name), _name=name, _weight=weight,
                      **kwargs):
            rows = _weight * int(np.prod(np.shape(x)[:-1]))
            counts["transform_calls"] += 1
            counts["transforms"] += rows
            counts[_name] += rows
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, transform)
    return counts


def count_calls(monkeypatch, counts, fn):
    """Count each call of the package function ``fn`` in counts[fn.__name__],
    rebinding it in every vortexwavelab module that holds it."""
    def counted(*args, **kwargs):
        counts[fn.__name__] += 1
        return fn(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.startswith("vortexwavelab") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
