"""Command-line entry point: `vwl run|sweep|verify`.

run    executes a scenario config and writes its trajectory CSV.
       Exit status: 0 on normal completion, 2 when the monitor stopped
       the run because inf A1 reached -eta1 (the destabilization outcome
       the transition experiment looks for), 1 on any error (a malformed
       config is reported with the offending key, ``time.scheme``
       among them unless it is rk4, the one stepper of a run; a run
       stopped by a fatal vortex-interface approach, the stability
       limit or a non-finite state still writes the partial trajectory;
       an output path that cannot be written ends it before the run).
sweep  scans the closed-form stability profile over a gamma range and
       writes gamma,x,y,lambda,inf_A1,argmin_alpha rows (argmin_alpha
       >= 0); a non-finite or out-of-range option is named in the error,
       exit 1.
verify runs the acceptance checks and prints one line per check;
       exit 0 only if all pass.
"""

import argparse
import sys

from .acceptance import run_all
from .config import ScenarioConfig, run_scenario, sweep_rows, write_sweep, write_trajectory
from .errors import ConfigError, VortexWaveError


def _threads():
    """The sweep's one worker: the sweep is one array computation.  Nothing
    in the package calls it; it stays only because the benchmark records
    it, until the next benchmark change deletes it."""
    return 1


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
    results = run_all()
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
