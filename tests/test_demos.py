"""Smoke test of the narrative demos: each runs to completion.

Demo 06 (about 3 s) also runs ``step_picard`` and the RK4 stage
combinations end to end.  Demos 03 and 04 (full runs of 4 to 14 s) are
left to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
