"""Span tracing of vortexwavelab from outside the package.

A :class:`Tracer` wraps the public functions named in :data:`TARGETS`,
plus the ``Field.fft`` property and ``Field.__init__``, by rebinding each
name in every ``vortexwavelab`` module that holds it.  Every call becomes
a span (name, start, end, parent, note) kept in memory; :meth:`uninstall`
restores the originals.  Self time is a span's duration minus the part of
its interval covered by its children.

Spans of a worker thread with no open span of its own take the main
thread's innermost open span as parent, so the rows that
``config.sweep_rows`` hands to its thread pool count as its children.
"""

import functools
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np


def _first_size(args, kwargs, result):
    return int(np.size(args[0]))


def _quadrature_rows(args, kwargs, result):
    """Rows an O(n^2) quadrature evaluates (0 for the spectral path)."""
    if kwargs.get("method", args[1] if len(args) > 1 else "spectral") != "quadrature":
        return 0
    idx = kwargs.get("out_indices", args[2] if len(args) > 2 else None)
    return int(args[0].grid.n_points if idx is None else np.size(idx))


def _grid_rows(args, kwargs, result):
    return int(args[0].grid.n_points)


def _sweeps(args, kwargs, result):
    return int(result[1])


def _workers(args, kwargs, result):
    return int(kwargs.get("max_workers", args[5] if len(args) > 5 else None) or 1)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# (module, function) -> note taken from a call that returned, as
# note(args, kwargs, result), or None.  The layer of a span is its module.
TARGETS = {
    ("spectral", "apply_multiplier"): None,
    ("spectral", "periodic_cauchy_kernel"): _first_size,
    ("spectral", "periodic_square_kernel"): _first_size,
    ("spectral", "cauchy_velocity"): None,
    ("spectral", "sq_diff_integral"): _quadrature_rows,
    ("spectral", "pv_commutator"): _grid_rows,
    ("spectral", "hilbert_quadrature"): _grid_rows,
    ("waves", "assemble"): None,
    ("waves", "reconstruct"): None,
    ("waves", "compute_Q"): None,
    ("waves", "vortex_velocity"): None,
    ("waves", "compute_DtQ"): None,
    ("waves", "compute_b"): None,
    ("waves", "compute_A1"): None,
    ("waves", "chord_arc_constant"): None,
    ("waves", "rhs"): None,
    ("sim", "run_simulation"): None,
    ("sim", "step_rk4"): None,
    ("sim", "step_picard"): _sweeps,
    ("sim", "cfl_limit"): None,
    ("sim", "monitor"): None,
    ("gevrey", "energy"): None,
    ("gevrey", "gevrey_norm"): None,
    ("taylor", "inf_a1_flat"): None,
    ("taylor", "interaction_sum"): None,
    ("config", "sweep_rows"): _workers,
    ("config", "write_trajectory"): _file_bytes,
    ("config", "write_sweep"): _file_bytes,
}

LAYERS = ("grid", "spectral", "waves", "sim", "gevrey", "taylor", "config")


class Tracer:
    """In-memory span recorder; install() wraps the package, uninstall()
    puts it back."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, note)
        self.counts = Counter()  # events too frequent to be spans
        self._ids = itertools.count()
        self._local = threading.local()  # .stack: open (id, name), innermost last
        self._main_stack = []
        self._lock = threading.Lock()
        self._undo = []

    # --- recording -----------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _call(self, name, fn, note, args, kwargs):
        stack = self._stack()
        parent = None
        if stack:
            parent = stack[-1][0]
        elif threading.current_thread() is not threading.main_thread():
            try:
                parent = self._main_stack[-1][0]
            except IndexError:  # the main thread has no open span
                pass
        sid = next(self._ids)
        stack.append((sid, name))
        returned = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            returned = True
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent,
                               note(args, kwargs, result) if returned and note else None))
        return result

    def _count(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, note, args, kwargs)
        return traced

    # --- installation --------------------------------------------------
    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "vortexwavelab" or n.startswith("vortexwavelab."))]
        for (mod, attr), note in TARGETS.items():
            original = getattr(sys.modules["vortexwavelab." + mod], attr)
            traced = self.wrap("%s.%s" % (mod, attr), original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, traced)
        self._wrap_field(sys.modules["vortexwavelab.grid"].Field)

    def _rebind(self, owner, key, value):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def _wrap_field(self, field_cls):
        compute = field_cls.__dict__["fft"].fget
        init = field_cls.__dict__["__init__"]
        tracer = self

        def fft(field):
            if field._fft is not None:
                tracer._count("grid.fft.hits")
                return field._fft
            return tracer._call("grid.fft", compute, None, (field,), {})

        def __init__(field, grid, samples):
            init(field, grid, samples)
            tracer._count("grid.fields_built")
            if any(name == "waves.assemble" for _, name in tracer._stack()):
                tracer._count("grid.bytes_built_in_assemble", field.samples.nbytes)

        self._rebind(field_cls, "fft", property(fft, doc=field_cls.__dict__["fft"].__doc__))
        self._rebind(field_cls, "__init__", __init__)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # --- analysis ------------------------------------------------------
    def summarize(self):
        """Per span name: calls, inclusive and self time, the sum of its
        notes and the time of the calls that left a nonzero note; and the
        count of spans per (nearest ``assemble`` or ``rhs`` ancestor, name)."""
        children = defaultdict(list)
        name_of = {}
        parent_of = {}
        for sid, name, start, end, parent, _ in self.spans:
            name_of[sid] = name
            parent_of[sid] = parent
            if parent is not None:
                children[parent].append((start, end))
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                     "note": 0, "noted_s": 0.0})
        under = Counter()
        for sid, name, start, end, parent, note in self.spans:
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += (end - start) - _covered(children.get(sid, ()), start, end)
            if note:
                s["note"] += note
                s["noted_s"] += end - start
            anc = parent
            while anc is not None:
                if name_of[anc] in ("waves.assemble", "waves.rhs"):
                    under[(name_of[anc], name)] += 1
                    break
                anc = parent_of[anc]
        return stats, under


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_cost(calls=20000, tries=3):
    """Seconds a traced call adds to a bare one, timed on a no-op; the
    fastest of ``tries`` loops of ``calls`` calls each."""
    def loop(fn):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    bare = min(loop(noop) for _ in range(tries))
    return max(0.0, min(loop(traced) for _ in range(tries)) - bare) / calls
