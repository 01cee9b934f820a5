"""Smoke test of the narrative demos: each runs to completion.

Demo 06 (about 3 s) also runs ``step_picard`` and the RK4 stage
combinations end to end.  Demos 03 and 04 (full runs of 3 to 7 s and 2
to 4 s on a 2-core host, depending on its load) are left to be run by
hand; the scenario demo 03 reads is checked against acceptance check
C08's run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vortexwavelab import acceptance
from vortexwavelab.config import ScenarioConfig, build_run_inputs

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_hilbert_and_kernels.py", "02_stability_profile.py",
                                  "05_gevrey_diagnostics.py", "06_scheme_crosscheck.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_shipped_config_is_the_canonical_run(monkeypatch):
    # demos/transition.cfg (read by demo 03 and `vwl run`) is C08's run:
    # the acceptance constants, and the literals RunCache passes
    cfg = ScenarioConfig.from_file(ROOT / "demos" / "transition.cfg")
    grid, state, integrator, gevrey, eta1, stride = build_run_inputs(cfg)
    assert (cfg.get("vortex.x0"), cfg.get("vortex.y0"), cfg.lam) == (
        acceptance.CANONICAL_X0, acceptance.CANONICAL_Y0, acceptance.CANONICAL_LAMBDA)
    assert (grid.half_length, grid.n_points) == acceptance.DEFAULT_GRID
    assert (integrator.dt, eta1) == (acceptance.CANONICAL_DT, acceptance.CANONICAL_ETA1)
    calls = []
    monkeypatch.setattr(acceptance, "run_simulation", lambda *a, **kw: calls.append((a, kw)))
    acceptance.RunCache().transition()
    [((c08_state, c08_integrator), kwargs)] = calls
    assert c08_integrator == integrator
    assert kwargs == dict(gevrey_params=gevrey, eta1=eta1, stride=stride)
    assert np.array_equal(c08_state.positions, state.positions)
    assert np.array_equal(c08_state.strengths, state.strengths)
    assert np.array_equal(c08_state.W.samples, state.W.samples)
    assert np.array_equal(c08_state.U.samples, state.U.samples)
