"""Acceptance gate: one test per shipped criterion.

Each test executes the corresponding registry check at its stated
tolerance and prints the measured one-line summary; `vwl verify` runs
the same registry from the command line.  The checks time themselves on
a monotonic clock, which a stepped wall clock does not move.
"""

import itertools
import sys
import time
from types import SimpleNamespace

import pytest

from vortexwavelab.acceptance import REGISTRY, RunCache, measured_crossing, run_all


@pytest.fixture(scope="module")
def cache():
    return RunCache()


@pytest.mark.parametrize("name,fn", REGISTRY, ids=[n for n, _ in REGISTRY])
def test_criterion(name, fn, cache, monkeypatch):
    # the checks need numpy only: with every scipy module blocked, any
    # import of scipy raises ImportError
    for module in {"scipy", *(m for m in sys.modules if m.startswith("scipy."))}:
        monkeypatch.setitem(sys.modules, module, None)
    passed, detail = fn(cache)
    print("%s: %s  [%s]" % (name, "PASS" if passed else "FAIL", detail))
    assert passed, "%s failed: %s" % (name, detail)


def test_canonical_as2_holds_until_t_0_192(cache):
    # README: on the canonical run AS2 holds through t = 0.184 and first
    # goes false at t = 0.192, when 2 E_gevrey passes its cap of 1
    rows = cache.transition().records
    first = next(i for i, r in enumerate(rows) if not r.as_flags["AS2"])
    assert rows[first - 1].t == pytest.approx(0.184)
    assert rows[first].t == pytest.approx(0.192)
    assert 2.0 * rows[first - 1].E_gevrey <= 1.0 < 2.0 * rows[first].E_gevrey


def test_check_times_ignore_wall_clock_steps(monkeypatch):
    # a wall clock stepping an hour per read (say, NTP correcting it) moves
    # neither C01's 1 s cap nor the seconds run_all reports
    clock = itertools.count(0.0, 3600.0)
    monkeypatch.setattr(time, "time", lambda: next(clock))
    result = run_all(RunCache(), names=["C01"])[0]
    assert result.passed, result.detail
    assert 0.0 <= result.seconds < 1.0


def test_measured_crossing_either_direction():
    def rows(*pairs):
        return [SimpleNamespace(inf_A1=a, y1=y) for a, y in pairs]
    # a receding pair starts below 0 and rises through it
    assert measured_crossing(rows((-0.4, -6.0), (-0.3, -6.1), (0.1, -6.3))) \
        == pytest.approx(6.25, rel=1e-14)
    assert measured_crossing(rows((0.4, -6.4), (0.2, -6.3), (-0.2, -6.1))) \
        == pytest.approx(6.2, rel=1e-14)
    assert measured_crossing(rows((-0.4, -6.0), (-0.3, -6.2), (-0.1, -6.4))) is None
    assert measured_crossing(rows((0.4, -6.0))) is None
