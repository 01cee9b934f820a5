"""Smoke test of the narrative demos: each runs to completion, with a
RuntimeWarning an error as in CI's demo step.

Demos 03 and 04, full runs of 3 to 7 s and 2 to 4 s on a 2-core host,
run in CI's "Library demos" step instead; the scenario demo 03 reads is
checked here to be the canonical scenario that acceptance check C08 runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from vortexwavelab.acceptance import canonical_scenario
from vortexwavelab.config import ScenarioConfig

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_hilbert_and_kernels.py", "02_stability_profile.py",
                                  "05_gevrey_diagnostics.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_shipped_config_is_the_canonical_run():
    # demos/transition.cfg, read by demo 03 and `vwl run`, is the scenario
    # C08 runs through the same config.run_scenario
    shipped = ScenarioConfig.from_file(ROOT / "demos" / "transition.cfg").values
    del shipped["output.path"]
    assert shipped == canonical_scenario().values
