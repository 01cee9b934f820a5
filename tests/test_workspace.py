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

from vortexwavelab import sim
from vortexwavelab.sim import IntegratorConfig, step_picard, step_rk4
from vortexwavelab.spectral import hilbert_quadrature, pv_commutator, sq_diff_integral
from vortexwavelab.waves import assemble, rhs

from conftest import canonical_start

ROOT = Path(__file__).resolve().parents[1]


def derived_arrays(derived):
    """The arrays of an assembly's record (all but d_I); its Fields are over them."""
    record = derived.record
    assert all(getattr(derived, name).samples is a for name, a in zip(record._fields[:-2], record))
    return record[:-1]


def test_stage_results_survive_later_stages(monkeypatch):
    # every stage's rhs result (the stage layout of dW/dt, dU/dt, their half
    # spectra and dz/dt) and every array of an assembly's record are
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
    workspace = grid.workspace()
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
    workspace = grid.workspace()
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
# the kernel and faulted in again).
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
