"""Benchmark of vortexwavelab: four workloads, end-to-end metrics and a
traced run that times each layer from outside the package.

    python3 perfbench/run.py --workload {transition,crosscheck,oracles,sweep}
                             [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` the workload repeats while another repetition still
fits in ``--seconds`` (at least once) and the end-to-end metrics are
reported: ``setup_s`` (median of five set-ups, each in a fresh
interpreter), the median over repetitions of ``wall_s``, and
``peak_rss_mb``.  Times are reference-scaled seconds (see refclock.py).
With ``--trace 1`` the workload runs untraced for half of ``--seconds``
(at least once) and then once traced, and the per-layer metrics are
reported: span times in measured seconds, the tracing overhead and the
sweep's serial and pooled times in reference-scaled seconds; the spans
go to ``perfbench/out/``.  Every repetition
checks its outputs against the shipped tolerances.  The last line of
standard output is the JSON result; the lines before it record the
environment, the gates of the last repetition and every repetition's
time.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from refclock import RefClock  # noqa: E402
from workloads import ROOT, WORKLOADS, Rep, import_package  # noqa: E402

OUT = HERE / "out"
SETUP_PROBES = 5
SWEEP_PAIRS = 5        # serial and pooled sweep_rows timings, alternated
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VWL_THREADS")


def environment(vwl, workload):
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches["L%s" % level] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fft_backend": "numpy.fft (pocketfft, single-threaded)",
        "blas": blas,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "sweep_workers": getattr(workload, "workers", None),
        "sweep_default_workers": vwl.cli._threads(),
    }


def setup_seconds(workload, seed):
    """Median reference-scaled set-up time over fresh interpreters,
    package import included."""
    probe = str(HERE / "workloads.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, workload, str(seed)],
                              capture_output=True, text=True, timeout=150, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_rep(workload, ctx):
    try:
        return workload.rep(ctx)
    except Exception as exc:  # a crashed repetition is a failed gate, still timed
        traceback.print_exc(file=sys.stderr)
        rep = Rep()
        rep.gate("repetition completes", False, "%s: %s" % (type(exc).__name__, exc))
        return rep


def timed_rep(workload, ctx, clock):
    """(rep, reference-scaled seconds, measured seconds)."""
    return clock.measure(lambda: run_rep(workload, ctx))


def repeat(workload, ctx, seconds, clock):
    """Repetitions while the next one is expected to fit in ``seconds``;
    at least one."""
    reps = []
    begin = time.perf_counter()
    while True:
        reps.append(timed_rep(workload, ctx, clock))
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(raw for _, _, raw in reps) > seconds:
            return reps


def end_to_end(args, workload, ctx):
    """Reference-scaled repetitions and the end-to-end metrics."""
    setup_s = setup_seconds(args.workload, args.seed)
    reps = repeat(workload, ctx, args.seconds, RefClock())
    return reps, {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(w for _, w, _ in reps), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def per_layer(args, workload, ctx):
    """Untraced repetitions for half the time, one traced repetition, and
    the per-layer metrics; the spans are written to OUT.  The traced
    repetition is scaled like the others, so the reference-kernel calls
    made inside it (3 % of its time) add to the spans they land in."""
    clock = RefClock()
    reps = repeat(workload, ctx, args.seconds / 2, clock)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reps.append(timed_rep(workload, ctx, clock))
    finally:
        tracer.uninstall()
    rows_s = {"serial": [], "pooled": []}
    if hasattr(workload, "rows"):
        workers = {"serial": 1, "pooled": ctx["vwl"].cli._threads()}
        for _ in range(SWEEP_PAIRS):
            for kind, times in rows_s.items():
                times.append(clock.measure(lambda: workload.rows(ctx, workers[kind]))[1])
    wall0 = statistics.median(w for _, w, _ in reps[:-1])
    metrics = layer_metrics(tracer, reps[-2][0], wall0, reps[-1][1],
                            {k: statistics.median(v) if v else 0.0 for k, v in rows_s.items()})
    write_spans(tracer, OUT / ("spans-%s-seed%d.csv" % (args.workload, args.seed)))
    return reps, metrics


def _ratio(num, den):
    return num / den if den else 0.0


def _pct(samples, q):
    return float(np.percentile(samples, q)) if samples else 0.0


def layer_metrics(tracer, rep0, wall0, wall1, rows_s):
    """The per-layer metrics of one traced repetition (see BENCHMARK.json);
    rep0 is the last untraced repetition, wall0 the median untraced wall
    time, wall1 the traced one, rows_s the median untraced seconds of
    ``sweep_rows`` with one worker ("serial") and the default ("pooled")."""
    stats, under = tracer.summarize()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "note": 0, "noted_s": 0.0}

    def st(name):
        return stats.get(name, empty)

    calls = {n: st(n)["calls"] for n in
             ("grid.fft", "waves.assemble", "waves.rhs", "sim.step_rk4", "sim.step_picard")}
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def per_stage(names):
        """Events under assemble per assemble plus events under rhs (outside
        assemble) per rhs: the cost of one RHS evaluation."""
        return sum(_ratio(sum(under[(p, n)] for n in names), calls[p])
                   for p in ("waves.assemble", "waves.rhs"))

    hits = tracer.counts["grid.fft.hits"]
    put("grid.fft.computed", calls["grid.fft"], "count")
    put("grid.fft.hit_ratio", _ratio(hits, hits + calls["grid.fft"]), "ratio")
    put("grid.fft.self_s", st("grid.fft")["self_s"], "s")
    put("grid.fields_built", tracer.counts["grid.fields_built"], "count")
    put("grid.computed_bytes_per_assembly",
        _ratio(tracer.counts["grid.bytes_built_in_assemble"], calls["waves.assemble"]), "B")

    put("spectral.apply_multiplier.calls", st("spectral.apply_multiplier")["calls"], "count")
    put("spectral.apply_multiplier.self_s", st("spectral.apply_multiplier")["self_s"], "s")
    put("spectral.transforms_per_stage",
        per_stage(("grid.fft", "spectral.apply_multiplier")), "count")
    for kern in ("periodic_cauchy_kernel", "periodic_square_kernel"):
        s = st("spectral." + kern)
        put("spectral.%s.calls" % kern, s["calls"], "count")
        put("spectral.%s.points" % kern, s["note"], "count")
        put("spectral.%s.self_s" % kern, s["self_s"], "s")
    put("spectral.kernel_evals_per_stage",
        per_stage(("spectral.periodic_cauchy_kernel", "spectral.periodic_square_kernel")), "count")
    quad = [st("spectral." + n) for n in ("sq_diff_integral", "pv_commutator", "hilbert_quadrature")]
    put("spectral.quadrature_rows_per_s",
        _ratio(sum(s["note"] for s in quad), sum(s["noted_s"] for s in quad)), "1/s")
    for fn in ("cauchy_velocity", "sq_diff_integral", "pv_commutator", "hilbert_quadrature"):
        put("spectral.%s.self_s" % fn, st("spectral." + fn)["self_s"], "s")

    for fn in ("assemble", "reconstruct", "compute_Q", "vortex_velocity", "compute_DtQ",
               "compute_b", "compute_A1", "rhs"):
        put("waves.%s.self_s" % fn, st("waves." + fn)["self_s"], "s")
    put("waves.assembles_per_step",
        _ratio(calls["waves.assemble"], calls["sim.step_rk4"] + calls["sim.step_picard"]), "count")
    put("waves.chord_arc_constant.calls", st("waves.chord_arc_constant")["calls"], "count")
    put("waves.chord_arc_constant.self_s", st("waves.chord_arc_constant")["self_s"], "s")

    for fn in ("step_rk4", "step_picard"):
        put("sim.%s.total_s" % fn, st("sim." + fn)["total_s"], "s")
        put("sim.%s.self_s" % fn, st("sim." + fn)["self_s"], "s")
    put("sim.picard_sweeps_per_step", _ratio(st("sim.step_picard")["note"],
                                             calls["sim.step_picard"]), "count")
    for scheme in ("rk4", "picard"):
        samples = rep0.samples.get(scheme + "_ms", [])
        put("sim.%s_step_ms.p50" % scheme, _pct(samples, 50), "ms")
        put("sim.%s_step_ms.p80" % scheme, _pct(samples, 80), "ms")
    put("sim.cfl_limit.self_s", st("sim.cfl_limit")["self_s"], "s")
    put("sim.monitor.calls", st("sim.monitor")["calls"], "count")
    put("sim.monitor.self_s", st("sim.monitor")["self_s"], "s")
    put("sim.run_simulation.self_s", st("sim.run_simulation")["self_s"], "s")

    put("gevrey.energy.self_s", st("gevrey.energy")["self_s"], "s")
    put("gevrey.gevrey_norm.self_s", st("gevrey.gevrey_norm")["self_s"], "s")

    put("taylor.inf_a1_flat.calls", st("taylor.inf_a1_flat")["calls"], "count")
    put("taylor.inf_a1_flat.self_s", st("taylor.inf_a1_flat")["self_s"], "s")
    put("taylor.interaction_sum.self_s", st("taylor.interaction_sum")["self_s"], "s")

    sweep = st("config.sweep_rows")
    put("config.sweep_rows.total_s", sweep["total_s"], "s")
    put("config.sweep_rows.workers", _ratio(sweep["note"], sweep["calls"]), "count")
    put("config.sweep_rows.serial_s", rows_s["serial"], "s")
    put("config.sweep_rows.pooled_s", rows_s["pooled"], "s")
    for fn in ("write_trajectory", "write_sweep"):
        put("config.%s.s" % fn, st("config." + fn)["total_s"], "s")
        put("config.%s.bytes" % fn, st("config." + fn)["note"], "B")

    for layer in tracing.LAYERS:
        put("%s.self_s" % layer, sum(s["self_s"] for n, s in stats.items()
                                     if n.startswith(layer + ".")), "s")
    put("trace.spans", len(tracer.spans), "count")
    put("trace.untraced_wall_s", wall0, "s")
    put("trace.traced_wall_s", wall1, "s")
    put("trace.overhead_s", wall1 - wall0, "s")
    put("trace.span_cost_s", len(tracer.spans) * tracing.span_cost(), "s")
    return m


def write_spans(tracer, path):
    with open(path, "w") as fh:
        fh.write("id,name,start,end,parent\n")
        for sid, name, start, end, parent, _ in tracer.spans:
            fh.write("%d,%s,%.9f,%.9f,%s\n" % (sid, name, start, end,
                                              "" if parent is None else parent))


def seed_arg(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=seed_arg, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        vwl = import_package()
    except ImportError as exc:
        print("perfbench: cannot import vortexwavelab from %s: %s" % (ROOT / "src", exc),
              file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload](args.seed)
    print("env " + json.dumps(environment(vwl, workload), sort_keys=True))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        ctx = workload.setup(workdir)
        reps, metrics = (per_layer if args.trace else end_to_end)(args, workload, ctx)

    gates = [g for rep, _, _ in reps for g in rep.gates]
    failed = sum(1 for _, ok, _ in gates if not ok)
    last = reps[-1][0]
    for name, ok, detail in last.gates:
        print("gate %-4s %s %s" % ("ok" if ok else "FAIL", name, detail))
    if last.note:
        print("note " + " | ".join(last.note.splitlines()))
    print("reps %d, measured s %s, reference-scaled s %s"
          % (len(reps), " ".join("%.3f" % raw for _, _, raw in reps),
             " ".join("%.3f" % w for _, w, _ in reps)))
    print(json.dumps({"correct": failed == 0, "attempted": len(gates), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
