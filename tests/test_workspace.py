"""The stage workspace of a grid: what a stage hands out is its own memory,
and stepping through the Python API does not fault the stage's memory back
in on every stage.

Each grid keeps one buffer for the stacked transform passes and the pole
kernel stacks of a right-hand-side stage (`GridSpec.workspace`).  A stage
that wrote a result into it, or returned a view of it, would have that
result overwritten by the next stage, while `_advance` still needs the
earlier ones; so every array a stage returns must survive later stages bit
for bit.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vortexwavelab import config, sim
from vortexwavelab.acceptance import canonical_scenario
from vortexwavelab.grid import Field, GridSpec
from vortexwavelab.sim import IntegratorConfig, step_picard, step_rk4
from vortexwavelab.spectral import (analytic_projection, derivative, hilbert,
                                    hilbert_quadrature, lambda_op, low_pass, pv_commutator,
                                    sq_diff_integral)
from vortexwavelab.waves import Vortex, WaveState, assemble, b_residual, derive, rhs

from conftest import band_limited, canonical_start

ROOT = Path(__file__).resolve().parents[1]


def derived_arrays(derived):
    """The arrays of an assembly's record (all but d_I); its Fields are over them."""
    record = derived.record
    assert all(getattr(derived, name).samples is a for name, a in zip(record._fields[:-2], record))
    return record[:-1]


def test_stage_results_survive_later_stages(monkeypatch):
    # every stage's rhs result (the stage layout: the half spectra of dW/dt
    # and dU/dt, and dz/dt) and every array of an assembly's record are
    # unchanged, bit for bit, after the remaining stages of an RK4 and a
    # Picard step and after an assembly of another state, and none of them
    # is memory of the grid's workspace; the slopes a Picard step carries
    # also survive the next step, which reads them
    start = canonical_start(2 ** 10)
    grid = start.grid
    kept = []

    def recording_rhs(grid, y, lam, record=None):
        result = rhs(grid, y, lam, record)
        kept.append((result, [a.tobytes() for a in result]))
        return result
    monkeypatch.setattr(sim, "rhs", recording_rhs)
    derived = assemble(start)
    derived_bytes = [a.tobytes() for a in derived_arrays(derived)]
    config = IntegratorConfig(dt=4e-3, t_end=4e-3, scheme="picard", picard_tol=1e-9)
    after_rk4 = step_rk4(start, 4e-3)
    step_picard(step_picard(start, 4e-3, config)[0], 4e-3, config)
    assemble(after_rk4)
    assert len(kept) >= 4 + 3 + 1               # RK4's stages, Picard's k0 and sweeps
    workspace = grid.workspace(0)
    for arrays, saved in kept + [(derived_arrays(derived), derived_bytes)]:
        for a, b in zip(arrays, saved):
            assert a.tobytes() == b
            assert not np.shares_memory(a, workspace)


def test_quadratures_and_stages_keep_each_others_results():
    # the quadratures' circulant pass writes into the same workspace as a
    # stage: a quadrature result survives a later assembly and rhs, and an
    # assembly made before the quadratures survives them, bit for bit
    start = canonical_start(2 ** 10)
    grid = start.grid
    derived = assemble(start)
    derived_bytes = [a.tobytes() for a in derived_arrays(derived)]
    results = [sq_diff_integral(derived.F, method="quadrature"),
               pv_commutator(start.W, derived.F), hilbert_quadrature(derived.Z_alpha)]
    saved = [r.samples.tobytes() for r in results]
    assert [a.tobytes() for a in derived_arrays(derived)] == derived_bytes
    rhs(grid, start.arrays, start.strengths, assemble(start).record)
    workspace = grid.workspace(0)
    for r, b in zip(results, saved):
        assert r.samples.tobytes() == b
        assert not np.shares_memory(r.samples, workspace)


def test_a_two_vortex_grid_allocates_its_workspace_once(monkeypatch):
    # the first stage asks for its largest block, the pole-kernel stacks,
    # before its first pass, and nothing after it needs more: a buffer that
    # grew would free the old one, which raises glibc's mmap threshold
    buffers = []
    workspace = GridSpec.workspace

    def recorded(self, size):
        buffers.append(workspace(self, size))
        return buffers[-1]
    monkeypatch.setattr(GridSpec, "workspace", recorded)
    grid = GridSpec(200.0, 2 ** 10)
    rng = np.random.default_rng(7)
    state = WaveState(band_limited(grid, rng, scale=1e-3), band_limited(grid, rng, scale=1e-3),
                      (Vortex(-1.0 - 6.0j, 10.0), Vortex(1.0 - 6.0j, -10.0)))
    record = derive(grid, *state.arrays, state.strengths)
    rhs(grid, state.arrays, state.strengths)
    b_residual(grid, record)
    for method in ("spectral", "quadrature"):
        sq_diff_integral(Field(grid, record.DtZ), method=method)
    assert len(buffers) > 5
    assert all(b is buffers[0] for b in buffers)


def test_a_run_sizes_the_workspace_once():
    # building a run's inputs leaves the workspace alone (the initial
    # low-pass is a product of half spectra); the first step allocates it at
    # the stage's largest block, and later steps and the monitor keep it
    n = 2 ** 10
    grid, state, _, params = config.build_run_inputs(canonical_scenario({"grid.n": n}))[:4]
    assert grid._workspace is None
    state = step_rk4(state, 2e-3)
    workspace = grid._workspace
    assert len(workspace) == max(3 * len(state.positions) * n, 4 * (n + 1))
    for _ in range(3):
        state = step_rk4(state, 2e-3)
    sim.monitor(state, params, derive(grid, *state.arrays, state.strengths))
    assert grid._workspace is workspace


def test_one_field_operators_hand_out_their_own_memory():
    # on a real and on a complex field, no operator's result shares memory
    # with the workspace, and every result survives a later stage bit for
    # bit (the first stage sizes the workspace, which then stays put)
    start = canonical_start(2 ** 10)
    grid = start.grid
    rhs(grid, start.arrays, start.strengths)
    fields = (start.W, Field(grid, start.W.samples + 1j * start.U.samples))
    results = [op(f) for f in fields
               for op in (hilbert, derivative, lambda_op, low_pass, analytic_projection,
                          sq_diff_integral)]
    saved = [r.samples.tobytes() for r in results]
    rhs(grid, start.arrays, start.strengths)
    workspace = grid.workspace(0)
    for r, b in zip(results, saved):
        assert r.samples.tobytes() == b
        assert not np.shares_memory(r.samples, workspace)


# Minor faults per RK4 step at n = 2^14 through the Python API, with glibc's
# default heap policy, 30 steps after one warm-up step.
# Measured on Linux/glibc 2.36 with numpy 2.4: 120-300 per step with the
# stage workspace (215 in each of eight runs of the stage on plain arrays,
# 132 on the same host for the stage that wrapped every state in Fields
# before it; the heap layout moves it, 265-281 with two more temporaries
# per stage, 913 when RK4 sums its stages as they come), and 1,500-2,600
# without it (each stage's transform and pole-kernel arrays handed back to
# the kernel and faulted in again).  With W and U carried as half spectra
# only: 40-260 over twelve environment sizes (110-230 when the layout also
# carried their samples), and 300-720 when each rhs returned its two slopes
# as one (2, n/2 + 1) block.  With no samples made for unmonitored states:
# 324 in four runs on one host, where the steps that made them took 347.
# What remains comes from the arrays a step must own (its four rhs results
# and stage layouts, every stage's derived arrays) and from np.fft's
# per-call buffers: glibc trims the heap top once more than about 1 MB is
# free there, and a step frees several.
MAX_FAULTS_PER_STEP = 600

CHILD = """
import resource
from vortexwavelab import acceptance, config, sim
start = config.build_run_inputs(acceptance.canonical_scenario())[1]
state = sim.step_rk4(start, 2e-3)  # warm-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(%d):
    state = sim.step_rk4(state, 2e-3)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.system() != "Linux", reason="minor-fault counts of Linux")
def test_library_steps_keep_their_memory():
    steps = 30
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD % steps],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    per_step = int(proc.stdout.split()[-1]) / steps
    assert per_step <= MAX_FAULTS_PER_STEP, "%.0f minor faults per RK4 step" % per_step
