"""The `vwl` entry point's heap policy: the process keeps the memory it
frees, which changes page faults and nothing else.

One child process runs a short canonical run through `cli.main`, another
through `config.run_scenario` and `write_trajectory` with the default
policy; the CSVs must match byte for byte, and the entry-point child must
stay under a page-fault bound its default-policy run is far above.
Without a usable ``mallopt`` the commands run as before, and the policy
is set once per process, by `run` and `verify` only.
"""

import ctypes
import os
import platform
import subprocess
import sys
import types
from pathlib import Path

import pytest

from vortexwavelab import cli

ROOT = Path(__file__).resolve().parents[1]

# canonical pair and bump on the canonical grid, 30 RK4 steps, a row per step
SHORT_CANONICAL = """
grid.half_length = 200
grid.n = 16384
vortex.x0 = 1.0
vortex.y0 = -12.0
vortex.lambda = 110.18831137722873
wave.kind = odd_bump
wave.amplitude = 1e-3
gevrey.L0 = 10
gevrey.delta0 = 5
time.dt = 0.004
time.t_end = 0.12
output.stride = 1
"""

CHILD = """
import resource, sys
from vortexwavelab import cli, config
path, via_entry_point = sys.argv[1], sys.argv[2] == "entry"
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
if via_entry_point:
    code = cli.main(["run", path])
else:
    cfg = config.ScenarioConfig.from_file(path)
    config.write_trajectory(cfg.get("output.path"), config.run_scenario(cfg).records)
    code = 0
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

# Minor faults of the whole 30-step run in the entry-point child.  Measured
# on Linux/glibc 2.36: about 3,000 with the heap kept, 83,000-108,000 with
# the default policy (the pages of each stage's freed temporaries, faulted
# back in by the next stage).  The bound leaves room for first-touch
# faults of a larger heap and sits well below the default-policy count.
MAX_ENTRY_POINT_FAULTS = 15_000


def _run_child(tmp_path, mode):
    cfg = tmp_path / ("%s.cfg" % mode)
    csv = tmp_path / ("%s.csv" % mode)
    cfg.write_text(SHORT_CANONICAL + "output.path = %s\n" % csv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(cfg), mode], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, faults = map(int, proc.stdout.split()[-2:])
    assert code == 0
    return csv.read_bytes(), faults


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is glibc's mallopt")
def test_entry_point_keeps_freed_heap(tmp_path):
    entry_csv, entry_faults = _run_child(tmp_path, "entry")
    plain_csv, plain_faults = _run_child(tmp_path, "plain")
    assert entry_csv == plain_csv
    assert len(entry_csv.splitlines()) == 32        # header, t = 0 and 30 steps
    assert entry_faults < MAX_ENTRY_POINT_FAULTS, (
        "%d minor faults through cli.main (%d without the heap policy)"
        % (entry_faults, plain_faults))


MINI_RUN = """
grid.half_length = 200
grid.n = 1024
vortex.x0 = 1.0
vortex.y0 = -6.0
vortex.lambda = 30.0
time.dt = 0.01
time.t_end = 0.03
output.stride = 1
"""


@pytest.fixture
def fresh_policy():
    """Forget whether this process already set the heap policy."""
    cli._keep_freed_heap.cache_clear()
    yield
    cli._keep_freed_heap.cache_clear()


@pytest.mark.parametrize("cdll", ["raises", "no_mallopt"])
def test_entry_point_runs_without_mallopt(tmp_path, monkeypatch, fresh_policy, cdll):
    opened = []

    def fake_cdll(name):
        opened.append(name)
        if cdll == "raises":
            raise OSError("no C library")
        return types.SimpleNamespace()
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_RUN + "output.path = %s\n" % (tmp_path / "libc.csv"))
    assert cli.main(["run", str(cfg)]) == 0
    cli._keep_freed_heap.cache_clear()

    monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
    cfg.write_text(MINI_RUN + "output.path = %s\n" % (tmp_path / "fallback.csv"))
    assert cli.main(["run", str(cfg)]) == 0
    assert (tmp_path / "fallback.csv").read_bytes() == (tmp_path / "libc.csv").read_bytes()
    assert cli.main(["run", str(cfg)]) == 0
    assert opened == [None]


def test_entry_point_sets_policy_once_for_runs(tmp_path, monkeypatch, fresh_policy):
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    assert cli.main(["sweep", "--gamma-min", "3.9", "--gamma-max", "4.1", "--steps", "3",
                     "--x", "1e-3", "--y", "-10", "--out", str(tmp_path / "s.csv")]) == 0
    assert calls == []                               # a sweep steps no state
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_RUN + "output.path = %s\n" % (tmp_path / "t.csv"))
    assert cli.main(["run", str(cfg)]) == 0
    assert calls == list(cli._HEAP_POLICY)
    assert cli.main(["run", str(cfg)]) == 0
    assert calls == list(cli._HEAP_POLICY)
