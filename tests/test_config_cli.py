"""Scenario-config parsing, trajectory files, sweeps, and the CLI contract."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vortexwavelab.acceptance import canonical_scenario
from vortexwavelab.cli import main
from vortexwavelab.config import (ScenarioConfig, build_run_inputs, run_scenario, sweep_rows,
                                  write_sweep, write_trajectory)
from vortexwavelab.errors import ConfigError
from vortexwavelab.grid import Field
from vortexwavelab.sim import IntegratorConfig, StepRecord, run_simulation

MINI_RUN = """
# coarse, short, strength zero: nothing moves
grid.half_length = 200
grid.n = 4096
vortex.x0 = 1.0
vortex.y0 = -6.0
vortex.lambda = 0.0
time.dt = 0.01
time.t_end = 0.03
output.stride = 1
"""

TRANSITION_MINI = """
grid.half_length = 200
grid.n = 4096
vortex.x0 = 1.0
vortex.y0 = -6.3
vortex.lambda = %.17g
gevrey.delta0 = 5
time.dt = 0.002
time.t_end = 0.5
monitor.eta1 = 0.1
""" % (2 * math.pi * 6.0 ** 1.5)


def test_parse_and_defaults():
    cfg = ScenarioConfig.parse(MINI_RUN)
    assert cfg.get("grid.n") == 4096
    assert cfg.get("gevrey.L0") == 10.0           # default
    assert cfg.get("wave.kind") == "zero_wave"    # default
    assert cfg.lam == 0.0


def test_lambda_from_gamma():
    text = MINI_RUN.replace("vortex.lambda = 0.0", "vortex.gamma = 8.0")
    cfg = ScenarioConfig.parse(text)
    assert cfg.lam == pytest.approx(math.pi * math.sqrt(8.0) * 6.0 ** 1.5, rel=1e-15)


def test_roundtrip():
    cfg = ScenarioConfig.parse(TRANSITION_MINI)
    again = ScenarioConfig.parse(cfg.serialize())
    assert again.values == cfg.values


def test_parse_errors_name_the_key():
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.parse(MINI_RUN + "\nvortex.spin = 3\n")
    assert err.value.key == "vortex.spin"
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.parse(MINI_RUN + "\ngrid.n = twelve\n")
    assert err.value.key == "grid.n"
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.parse(MINI_RUN + "\nvortex.gamma = 1.0\n")
    assert "both" in str(err.value)
    with pytest.raises(ConfigError):
        ScenarioConfig.parse(MINI_RUN.replace("vortex.lambda = 0.0", ""))
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.parse(MINI_RUN + "\ntime.dt = 0.01\n")
    assert err.value.key == "time.dt"             # duplicate
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.parse(MINI_RUN.replace("-6.0", "inf"))
    assert err.value.key == "vortex.y0"
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.parse(MINI_RUN.replace("-6.0", "6.0"))
    assert err.value.key == "vortex.y0"


@pytest.mark.parametrize("key, value", [
    ("grid.n", 4096.0), ("vortex.y0", "-12"), ("output.stride", 2.5),
    ("vortex.x0", True), ("grid.half_length", True), ("output.path", 3),
    ("vortex.lambda", np.float32("nan"))])
def test_dict_config_is_typed_by_key(key, value):
    # a value of the wrong type, or a non-finite numpy float, is named by
    # its key where the config is built, not met later as a bare TypeError
    # or a ValueError that names no key
    with pytest.raises(ConfigError) as err:
        canonical_scenario({key: value})
    assert err.value.key == key


def test_dict_config_takes_integral_and_real_numbers():
    cfg = canonical_scenario({"grid.n": np.int64(4096), "grid.half_length": 200,
                              "vortex.y0": np.float64(-12.0), "output.stride": np.int32(2)})
    assert build_run_inputs(cfg)[0] == build_run_inputs(canonical_scenario({"grid.n": 4096}))[0]


@pytest.mark.parametrize("overrides", [{"wave.kind": "zero_wave"}, {"wave.kind": None}])
def test_amplitude_needs_the_odd_bump(overrides):
    # an amplitude with the zero wave (the default kind) ran a flat wave
    with pytest.raises(ConfigError) as err:
        canonical_scenario(overrides)
    assert err.value.key == "wave.amplitude"
    assert canonical_scenario({**overrides, "wave.amplitude": 0.0}).get("wave.amplitude") == 0.0


def test_trajectory_file_format(tmp_path):
    cfg = ScenarioConfig.parse(MINI_RUN)
    result = run_scenario(cfg)
    path = tmp_path / "traj.csv"
    write_trajectory(path, result.records)
    assert all(set(r.as_flags) == {"AS1", "AS2", "AS3", "AS4", "AS5"} for r in result.records)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(StepRecord.COLUMNS)
    assert len(lines[0].split(",")) == 15
    ts = []
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 15
        assert all(cells)                         # no blank cell
        ts.append(float(cells[0]))
        # 17 significant digits survive a round trip
        assert float("%.17g" % float(cells[5])) == float(cells[5])
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_cmd_run_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "ok.cfg"
    cfg_path.write_text(MINI_RUN + "output.path = %s\n" % (tmp_path / "t.csv"))
    assert main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "t.csv").exists()

    stop_path = tmp_path / "stop.cfg"
    stop_path.write_text(TRANSITION_MINI + "output.path = %s\n" % (tmp_path / "s.csv"))
    assert main(["run", str(stop_path)]) == 2

    bad = tmp_path / "bad.cfg"
    bad.write_text(MINI_RUN + "vortex.gamma = 1.0\n")
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "vortex.gamma" in err or "both" in err

    assert main(["run", str(tmp_path / "missing.cfg")]) == 1


@pytest.mark.parametrize("key, value", [
    ("output.stride", "0"), ("grid.n", "1000"), ("grid.half_length", "-5"),
    ("time.dt", "0"), ("time.t_end", "-1"), ("gevrey.L0", "2"), ("gevrey.delta0", "0"),
    ("vortex.x0", "-1"), ("vortex.x0", "200"), ("vortex.x0", "300"),
    ("vortex.gamma", "-1"), ("wave.amplitude", "-1"), ("wave.amplitude", "0.5"),
    ("monitor.eta1", "-2"), ("wave.kind", "square_bump"), ("time.scheme", "euler"),
    ("time.scheme", "picard")])
def test_cmd_run_out_of_range_value_names_the_key(tmp_path, capsys, key, value):
    lines = [line for line in MINI_RUN.splitlines() if not line.startswith(key + " ")]
    if key == "vortex.gamma":
        lines.remove("vortex.lambda = 0.0")
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("\n".join(lines + ["%s = %s" % (key, value),
                                           "output.path = %s" % (tmp_path / "t.csv")]) + "\n")
    assert main(["run", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "config error: (key: %s)" % key in err
    assert "Traceback" not in err
    assert not (tmp_path / "t.csv").exists()


def test_cli_and_library_write_the_same_csv(tmp_path):
    # `vwl run` adds nothing to the library path: the canonical scenario at
    # n = 1024, 30 RK4 steps with a row each, gives the same bytes through
    # cli.main as through run_scenario and write_trajectory
    cfg = canonical_scenario({"grid.n": 1024, "time.t_end": 0.12, "output.stride": 1,
                              "monitor.eta1": None})
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text(cfg.serialize() + "output.path = %s\n" % (tmp_path / "cli.csv"))
    assert main(["run", str(cfg_path)]) == 0
    write_trajectory(tmp_path / "library.csv", run_scenario(cfg).records)
    cli_csv = (tmp_path / "cli.csv").read_bytes()
    assert len(cli_csv.splitlines()) == 32          # header, t = 0 and 30 steps
    assert cli_csv == (tmp_path / "library.csv").read_bytes()


def test_cmd_output_in_missing_directory_fails_before_the_work(tmp_path, monkeypatch, capsys):
    import vortexwavelab.cli as cli
    started = []
    monkeypatch.setattr(cli, "run_scenario", lambda cfg: started.append("run"))
    monkeypatch.setattr(cli, "sweep_rows", lambda *a, **k: started.append("sweep"))
    out = tmp_path / "missing" / "out.csv"
    cfg_path = tmp_path / "ok.cfg"
    cfg_path.write_text(MINI_RUN + "output.path = %s\n" % out)
    assert main(["run", str(cfg_path)]) == 1
    assert main(["sweep", "--gamma-min", "3.9", "--gamma-max", "4.1", "--steps", "5",
                 "--x", "1e-3", "--y", "-10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("cannot write output:") == 2 and "Traceback" not in err
    assert started == []
    assert not out.parent.exists()


def test_cmd_run_proximity_writes_partial_file(tmp_path):
    # vortex starting within the fatal window: exit 1 but the truncated
    # trajectory is still written, over the CSV an earlier run left at the path
    near = MINI_RUN.replace("vortex.y0 = -6.0", "vortex.y0 = -0.6")
    out = tmp_path / "partial.csv"
    out.write_text("an earlier run's rows\n")
    cfg_path = tmp_path / "near.cfg"
    cfg_path.write_text(near + "output.path = %s\n" % out)
    assert main(["run", str(cfg_path)]) == 1
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(StepRecord.COLUMNS)
    assert len(lines) >= 2                      # header + at least one record


def test_cmd_run_non_finite_writes_partial_file(tmp_path, monkeypatch, capsys):
    import vortexwavelab.sim as sim
    real = sim.step_rk4
    seen = []

    def step(state, dt, record=None):
        out = real(state, dt, record)
        seen.append(1)
        if len(seen) == 2:
            u = out.U.samples.copy()
            u[0] = np.inf
            out.U = Field(out.grid, u)
        return out
    monkeypatch.setattr(sim, "step_rk4", step)
    out = tmp_path / "partial.csv"
    cfg_path = tmp_path / "blowup.cfg"
    cfg_path.write_text(MINI_RUN + "output.path = %s\n" % out)
    assert main(["run", str(cfg_path)]) == 1
    assert "non-finite" in capsys.readouterr().err
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3                      # header + the two finite records


def test_library_and_cli_share_the_default_radius():
    # a config without gevrey keys gets the schedule that run_simulation
    # takes without gevrey_params, from the one DEFAULT_L0
    from vortexwavelab.gevrey import DEFAULT_L0, GevreyParams
    cfg = ScenarioConfig.parse(MINI_RUN)
    assert not any(key.startswith("gevrey.") for key in cfg.values)
    library = GevreyParams.halving_at(cfg.get("time.t_end"))
    assert build_run_inputs(cfg)[3] == library
    assert cfg.get("gevrey.L0") == library.L0 == DEFAULT_L0


def test_derived_delta0_keeps_the_radius_to_t_end():
    cfg = ScenarioConfig.parse(MINI_RUN)        # no gevrey.delta0
    assert "gevrey.delta0" not in cfg.serialize()
    result = run_scenario(cfg)
    assert result.exit_reason == "completed"
    assert result.records[-1].t == pytest.approx(cfg.get("time.t_end"))
    assert all(math.isfinite(r.E_gevrey) for r in result.records)
    assert result.records[-1].phi == pytest.approx(cfg.get("gevrey.L0") / 2.0)
    assert build_run_inputs(ScenarioConfig.parse(TRANSITION_MINI))[3].delta0 == 5.0
    at_rest = ScenarioConfig.parse(MINI_RUN.replace("time.t_end = 0.03", "time.t_end = 0"))
    delta0 = build_run_inputs(at_rest)[3].delta0
    assert math.isfinite(delta0) and delta0 > 0
    assert run_scenario(at_rest).exit_reason == "completed"


def test_run_simulation_defaults_to_the_config_schedule():
    # run_simulation without gevrey_params and a config without
    # gevrey.delta0 share one schedule: phi reaches L0/2 at t_end
    cfg = ScenarioConfig.parse(TRANSITION_MINI.replace("gevrey.delta0 = 5\n", "")
                               .replace("time.t_end = 0.5", "time.t_end = 0.04"))
    _, state, integrator, _, _, _ = build_run_inputs(cfg)
    lib = run_simulation(state, IntegratorConfig(integrator.dt, integrator.t_end))
    rows = run_scenario(cfg).records
    assert len(rows) == 21
    assert [r.phi for r in lib.records] == [r.phi for r in rows]
    assert all(math.isfinite(r.E_gevrey) for r in lib.records)


def test_sweep_rows_and_threshold():
    rows = sweep_rows(3.9, 4.1, 5, 1e-3, -10.0)
    assert len(rows) == 5
    infs = [r[4] for r in rows]
    assert infs[0] > 0 > infs[-1]                 # sign change brackets gamma = 4
    rows2 = sweep_rows(1.0, 2.0, 2, 1.0, -10.0)
    assert len(rows2) == 2
    with pytest.raises(ValueError):
        sweep_rows(2.0, 1.0, 5, 1.0, -10.0)
    with pytest.raises(ValueError):
        sweep_rows(1.0, 2.0, 1, 1.0, -10.0)


def test_sweep_rows_ignore_max_workers():
    assert sweep_rows(3.9, 4.1, 7, 1e-3, -10.0, max_workers=2) == sweep_rows(3.9, 4.1, 7, 1e-3, -10.0)


def test_write_sweep_formats_each_value_to_17_digits(tmp_path):
    # one format string per row writes what per-value "%.17g" did
    rows = sweep_rows(3.9, 4.1, 21, 1e-3, -10.0)
    out = tmp_path / "sweep.csv"
    write_sweep(out, rows)
    expected = "gamma,x,y,lambda,inf_A1,argmin_alpha\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in rows)
    assert out.read_text() == expected


@pytest.mark.parametrize("option,value", [
    ("--gamma-min", "inf"), ("--gamma-min", "nan"), ("--gamma-max", "inf"),
    ("--gamma-max", "nan"), ("--x", "inf"), ("--x", "nan"), ("--y", "-inf"), ("--y", "nan"),
])
def test_cmd_sweep_non_finite_option_is_named(tmp_path, capsys, option, value):
    args = {"--gamma-min": "3.9", "--gamma-max": "4.1", "--x": "1e-3", "--y": "-10"}
    args[option] = value
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--steps", "3", "--out", str(out)] + ["%s=%s" % kv for kv in args.items()]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "sweep error: %s must be finite" % option in err
    assert out.read_text() == ""


@pytest.mark.parametrize("option,value", [
    ("gamma_min", -1.0), ("x", 0.0), ("x", -1.0), ("y", 0.0), ("y", 2.0),
    ("steps", 2.5), ("steps", math.nan),
])
def test_sweep_rows_out_of_range_names_the_option(option, value):
    args = dict(gamma_min=3.9, gamma_max=4.1, steps=3, x=1e-3, y=-10.0)
    args[option] = value
    with pytest.raises(ValueError, match="--%s" % option.replace("_", "-")):
        sweep_rows(**args)


def test_sweep_depth_trend():
    # frozen strength: same gamma at |y| = 10 defines lam; at |y| = 100 the
    # pair with that lam is far in the stable regime
    lam = math.pi * math.sqrt(6.0) * 10.0 ** 1.5
    from vortexwavelab.taylor import PairConfig, inf_a1_flat
    shallow, _ = inf_a1_flat(PairConfig(1.0, -10.0, lam))
    deep, _ = inf_a1_flat(PairConfig(1.0, -100.0, lam))
    assert abs(deep - 1.0) < abs(shallow - 1.0)
    assert deep > 0.99


def test_cmd_sweep_cli(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--gamma-min", "3.9", "--gamma-max", "4.1",
                 "--steps", "5", "--x", "1e-3", "--y", "-10", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "gamma,x,y,lambda,inf_A1,argmin_alpha"
    assert len(lines) == 6
    gammas = [float(l.split(",")[0]) for l in lines[1:]]
    assert gammas == sorted(gammas)


def test_threads_is_the_one_worker_whatever_the_environment(monkeypatch):
    # the sweep is one array computation: no environment variable sets its
    # worker count (the parent read VWL_THREADS: 7 for "7", and
    # min(8, cpu_count) for "x", 2 on a 2-core host)
    from vortexwavelab.cli import _threads
    for raw in ("7", "x"):
        monkeypatch.setenv("VWL_THREADS", raw)
        assert _threads() == 1


def test_verify_plumbing_and_mutation(monkeypatch, capsys):
    # determinism: the same check twice gives the identical detail line
    from vortexwavelab import acceptance
    r1 = acceptance.run_all(names=["C02"])[0]
    r2 = acceptance.run_all(names=["C02"])[0]
    assert r1.detail == r2.detail and r1.passed

    # injected sign flip in the Hilbert multiplier (-H for H): the
    # calibration check must fail and be named
    import vortexwavelab.spectral as sp
    from vortexwavelab.grid import Field

    def flipped(f):
        return Field(f.grid, -sp.hilbert(f).samples)
    monkeypatch.setattr("vortexwavelab.acceptance.hilbert", flipped)
    res = acceptance.run_all(names=["C04"])[0]
    assert not res.passed
    assert "Hilbert" in res.name


NO_SCIPY = """
import sys
sys.modules["scipy"] = None     # every import of scipy now raises ImportError
import vortexwavelab, vortexwavelab.cli
from vortexwavelab.cli import main
sweep, cfg = sys.argv[1:]
assert main(["sweep", "--gamma-min", "3.9", "--gamma-max", "4.1", "--steps", "5",
             "--x", "1e-3", "--y", "-10", "--out", sweep]) == 0
assert main(["run", cfg]) == 0
"""


def test_run_and_sweep_load_no_scipy(tmp_path):
    # scipy serves only the tests: with it blocked, the package, its CLI, a
    # sweep and a 2^10-point run with a pair still work, and the acceptance
    # checks need no scipy either (test_acceptance.py::test_criterion runs
    # each of them with scipy blocked)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TRANSITION_MINI.replace("grid.n = 4096", "grid.n = 1024")
                   .replace("time.t_end = 0.5", "time.t_end = 0.02")
                   + "wave.kind = odd_bump\nwave.amplitude = 1e-3\n"
                   + "output.path = %s\n" % (tmp_path / "run.csv"))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path / "sweep.csv"), str(cfg)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "run.csv").read_text().splitlines()) == 12   # header + 11 rows
