"""Command-line entry point: `vwl run|sweep|verify`.

run    executes a scenario config and writes its trajectory CSV.
       Exit status: 0 on normal completion, 2 when the monitor stopped
       the run because inf A1 reached -eta1 (the destabilization outcome
       the transition experiment looks for), 1 on any error (a malformed
       config is reported with the offending key; a run stopped by a
       fatal vortex-interface approach, the stability limit, a
       non-finite state or a Picard step that does not converge still
       writes the partial trajectory; an output
       path that cannot be written ends it before the run).
sweep  scans the closed-form stability profile over a gamma range and
       writes gamma,x,y,lambda,inf_A1,argmin_alpha rows (argmin_alpha
       >= 0); a non-finite or out-of-range option is named in the error,
       exit 1.
verify runs the acceptance checks and prints one line per check;
       exit 0 only if all pass.

The environment variable VWL_THREADS is ignored: the sweep is one array
computation.

On glibc, `run` and `verify` make the process keep the heap it frees
(`mallopt`, once per process), so each RK4 stage reuses the pages the last
one released instead of faulting them back in; `sweep`, which steps no
state, and the Python API keep the default policy.
"""

import argparse
import ctypes
import functools
import os
import sys

from .acceptance import RunCache, run_all
from .config import ScenarioConfig, run_scenario, sweep_rows, write_sweep, write_trajectory
from .errors import ConfigError, VortexWaveError


def _threads():
    """Worker count read from VWL_THREADS.  Nothing in the package uses it:
    it stays only because the benchmark records it, until the next
    benchmark change deletes it."""
    raw = os.environ.get("VWL_THREADS", "")
    try:
        n = int(raw)
        return max(1, n)
    except ValueError:
        return min(8, os.cpu_count() or 1)


# glibc's mallopt parameters (malloc.h) and the values `run` and `verify`
# give them.  By default glibc returns the free top of the heap to the
# kernel once it exceeds a threshold that adapts to the largest block
# freed so far (a few hundred KiB here), so each RHS stage's temporaries,
# about 5 MB at n = 2^14, are unmapped and then faulted back in by the
# next stage.  Setting either parameter turns that adaptation off, so both
# are set: no trimming below 1 GiB, and blocks up to glibc's 32 MiB cap (a
# 2^21-point complex array) come from the heap rather than a fresh mapping.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_POLICY = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 1 << 30))


@functools.cache
def _keep_freed_heap():
    """Set `_HEAP_POLICY` for this process, once; a C library without
    ``mallopt`` (or refusing a value) keeps its default policy.  Only the
    commands that step a state call this: allocator policy is
    process-wide, and a library should not set it for its host."""
    try:  # Windows has no process-wide handle: CDLL(None) is a TypeError there
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _HEAP_POLICY:
        mallopt(param, value)


def _writable(path):
    """Create ``path`` if missing, keeping what it holds; on failure print
    why and return False."""
    try:
        open(path, "a").close()
    except OSError as exc:
        print("cannot write output: %s" % exc, file=sys.stderr)
        return False
    return True


def cmd_run(args):
    _keep_freed_heap()
    try:
        cfg = ScenarioConfig.from_file(args.config)
    except ConfigError as exc:
        key = " (key: %s)" % exc.key if exc.key else ""
        print("config error:%s %s" % (key, exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print("cannot read config: %s" % exc, file=sys.stderr)
        return 1
    out = cfg.get("output.path")
    if not _writable(out):
        return 1
    try:
        result = run_scenario(cfg)
    except VortexWaveError as exc:
        print("run failed: %s" % exc, file=sys.stderr)
        return 1
    write_trajectory(out, result.records)
    print("wrote %d records to %s (%s)" % (len(result.records), out, result.exit_reason))
    if result.exit_reason == "taylor_negative":
        print(result.message)
        return 2
    if result.exit_reason == "completed":
        return 0
    print("run stopped early: %s" % result.message, file=sys.stderr)
    return 1


def cmd_sweep(args):
    if not _writable(args.out):
        return 1
    try:
        rows = sweep_rows(args.gamma_min, args.gamma_max, args.steps, args.x, args.y)
    except ValueError as exc:
        print("sweep error: %s" % exc, file=sys.stderr)
        return 1
    write_sweep(args.out, rows)
    signs = {v > 0 for v in (r[4] for r in rows)}
    note = "sign change inside range" if len(signs) == 2 else ""
    print("wrote %d rows to %s %s" % (len(rows), args.out, note))
    return 0


def cmd_verify(args):
    _keep_freed_heap()
    results = run_all(RunCache())
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok = all_ok and r.passed
        print("%-*s  %s  [%6.1fs]  %s" % (width, r.name, status, r.seconds, r.detail))
    print("verify:", "all checks passed" if all_ok else "FAILURES present")
    return 0 if all_ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="vwl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="closed-form stability sweep over gamma")
    p_sweep.add_argument("--gamma-min", type=float, required=True)
    p_sweep.add_argument("--gamma-max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--x", type=float, required=True)
    p_sweep.add_argument("--y", type=float, required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
