"""The benchmark (perfbench/) still finds the package's names: a refactor
that renames or bypasses them would silently empty the per-layer trace,
and one that deletes a name the benchmark reads would break every run.
The benchmark's sweep repetition is cheap enough to run here with its
gates."""

import importlib.util
import json
import sys
from pathlib import Path

import vortexwavelab
import vortexwavelab.cli
from vortexwavelab import sim, waves
from vortexwavelab.grid import Field

from conftest import canonical_start

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_a_stage_and_uninstalls():
    tracing = load("tracing")
    originals = {key: getattr(sys.modules["vortexwavelab." + key[0]], key[1])
                 for key in tracing.TARGETS}
    field_members = {name: Field.__dict__[name] for name in ("fft", "__init__")}
    # Fields built from samples, so that the assembly transforms them
    start = canonical_start(2 ** 8)
    state = waves.WaveState(*(Field(start.grid, f.samples) for f in (start.W, start.U)),
                            positions=start.positions, strengths=start.strengths)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        waves.assemble(state)
        sim.step_rk4(state, 1e-3)
    finally:
        tracer.uninstall()
    names = {span[1] for span in tracer.spans}
    stage = {"waves.reconstruct", "spectral.apply_multiplier", "waves.compute_b",
             "waves.compute_A1", "waves.compute_Q", "waves.compute_DtQ",
             "waves.vortex_velocity"}
    assert {"grid.fft", "waves.assemble", "waves.rhs", "sim.step_rk4"} | stage <= names
    # the stage runs inside each of the four rhs calls of the step, and
    # inside the assembly
    _, under = tracer.summarize()
    for name in stage - {"spectral.apply_multiplier"}:
        assert (under["waves.assemble", name], under["waves.rhs", name]) == (1, 4), name
    assert tracer.counts["grid.fields_built"] > 0
    for (module, name), original in originals.items():
        assert getattr(sys.modules["vortexwavelab." + module], name) is original
    assert {name: Field.__dict__[name] for name in field_members} == field_members


def test_benchmark_environment_record(monkeypatch):
    # run.py puts perfbench/ on sys.path and imports its siblings by name
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = load("run")
    env = run.environment(vortexwavelab, run.WORKLOADS["sweep"](0))
    assert env["sweep_workers"] == 1
    assert env["sweep_default_workers"] == vortexwavelab.cli._threads() >= 1
    json.dumps(env)


def test_benchmark_sweep_gates_pass(tmp_path, monkeypatch):
    # the benchmarked `vwl sweep` repetition, with the gates the benchmark checks
    monkeypatch.setattr(sys, "path", list(sys.path))
    workloads = load("workloads")
    sweep = workloads.Sweep(0)
    rep = sweep.rep(sweep.setup(tmp_path))
    assert len(rep.gates) == 3
    assert [gate for gate in rep.gates if not gate[1]] == []
