"""Checks of the benchmark itself; outside the tier-1 ``testpaths``.

    python3 -m pytest -q perfbench/test_bench.py

The count test runs every workload traced twice at seed 0, about four
minutes on two cores.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (TRANSITION_CFG, WORKLOADS, Crosscheck, Oracles,  # noqa: E402
                       Transition, import_package)

EXACT_UNITS = ("count", "ratio", "B")


def run(workload, trace, cwd=ROOT, bench=HERE):
    return subprocess.run([sys.executable, str(bench / "run.py"), "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_seed0_inputs_are_the_shipped_ones(tmp_path):
    vwl = import_package()
    acc = vwl.acceptance
    mine = vwl.config.ScenarioConfig.parse(Transition(0).config_text(tmp_path / "t.csv")).values
    shipped = vwl.config.ScenarioConfig.from_file(ROOT / "demos" / "transition.cfg").values
    mine.pop("output.path")
    shipped.pop("output.path")
    assert mine == shipped
    assert TRANSITION_CFG["vortex.lambda"] == acc.CANONICAL_LAMBDA
    assert (Crosscheck.dt, Crosscheck.steps, Crosscheck.picard_tol) == (2e-3, 50, 1e-9)
    assert Crosscheck(0).amplitude == 1e-3
    oracles = Oracles(0)
    assert oracles.dual == acc._DUAL_PATH_CONFIGS
    assert oracles.interaction == acc._INTERACTION_CONFIGS
    assert Oracles.quadrature_rows <= 512  # a subsample of C03's rows


def test_other_seeds_change_inputs_not_work():
    for seed in (1, 2):
        t = Transition(seed).values
        assert t["wave.amplitude"] != 1e-3
        assert abs(t["wave.amplitude"] / 1e-3 - 1.0) <= 0.1
        assert {k: v for k, v in t.items() if k != "wave.amplitude"} == \
            {k: v for k, v in TRANSITION_CFG.items() if k != "wave.amplitude"}
        o = Oracles(seed)
        assert len(o.dual) == 7 and all(y < 0 for _, y, _ in o.dual)
        assert all(math.isfinite(lam) for c in o.interaction for _, lam in c)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = result(run("sweep", 0))
    traced = result(run("sweep", 1))
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(untraced["metrics"])
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(traced["metrics"])
    for kind, out in (("end_to_end", untraced), ("per_layer", traced)):
        for m in spec[kind]:
            assert out["metrics"][m["name"]]["unit"] == m["unit"]
    assert all(v["value"] > 0 for v in untraced["metrics"].values())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_and_match_seed_baseline(workload):
    baseline = json.loads((HERE / "baseline.json").read_text())[workload]
    runs = [result(run(workload, 1)) for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] in EXACT_UNITS}
              for r in runs]
    assert all(r["correct"] and r["failed"] == 0 for r in runs)
    assert counts[0] == counts[1]
    assert counts[0] == baseline


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("sweep", 0, cwd=tmp_path, bench=tmp_path / "perfbench")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
