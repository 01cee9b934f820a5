"""Reference-scaled seconds.

The machine this benchmark was defined on runs its vCPUs at a speed that
drifts by +-25 % over seconds, as other tenants load the host; a step of
the same state takes 65 ms in one second and 120 ms in the next.  A fixed
reference kernel with no vortexwavelab code in it slows down by nearly
the same factor when it is timed in the same interval.  So every timed
interval is scaled by ``nominal / kernel time``, measured around and
inside the interval.  The kernel never changes, so the scale stays
comparable across commits of the package.

The kernel has two parts, like the package: array work (an FFT pair, a
complex tan, products and a reduction on 2^14 points) and interpreter
work (200 small-array evaluations in a Python loop, like the objective
that the sweep's scalar minimizer calls).  Its nominal time is 3 ms.  It
runs in a burst before and after the interval and, where the workload
allows it, every 100 ms inside it, from SIGALRM in the main thread.
"""

import signal
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.1         # interleave one kernel call every 100 ms
NOMINAL_S = 3e-3
BURST = 5              # kernel calls before and after each interval


class RefClock:
    def __init__(self):
        rng = np.random.default_rng(20071384)
        self._x = rng.normal(size=2 ** 14) + 1j * rng.normal(size=2 ** 14)
        self._mult = np.abs(np.fft.fftfreq(2 ** 14))
        self._small = rng.normal(size=64)
        self._scales = np.linspace(0.1, 2.0, 200)
        self.samples = []  # (start, wall seconds, CPU seconds) of each kernel call
        self._kernel()  # plan the FFT outside any measurement

    def _kernel(self):
        y = np.fft.ifft(np.fft.fft(self._x) * self._mult)
        z = np.tan(0.01 * y)
        total = float(np.sum((z * np.conj(y)).real))
        for c in self._scales:
            total += float(np.sum((self._small - 0.5 * c) ** 2))
        return total

    def sample(self, count=1):
        for _ in range(count):
            t0, c0 = time.perf_counter(), time.thread_time()
            self._kernel()
            self.samples.append((t0, time.perf_counter() - t0, time.thread_time() - c0))

    @contextmanager
    def interleaved(self):
        """Run one kernel call every PERIOD_S of wall time, from SIGALRM in
        the main thread, until the block ends."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, fn):
        """(result, reference-scaled seconds, measured seconds) of fn().

        The kernel calls made during fn split it into segments; each
        segment is scaled by the mean CPU time of the calls on either side
        of it (a burst of calls at each end), and the calls themselves are
        not counted as fn's time.  CPU time, not wall time: a call made
        while the workload's own threads hold the interpreter lock waits
        for it, and the wait says nothing about the machine's speed.
        """
        self.sample(BURST)
        before = float(np.mean([c for _, _, c in self.samples[-BURST:]]))
        first = len(self.samples)
        t0 = time.perf_counter()
        with self.interleaved():
            result = fn()
        t1 = time.perf_counter()
        during = self.samples[first:]
        self.sample(BURST)
        after = float(np.mean([c for _, _, c in self.samples[-BURST:]]))
        refs = [before] + [c for _, _, c in during] + [after]
        measured = scaled = 0.0
        cursor = t0
        for k, (start, duration, _) in enumerate(during + [(t1, 0.0, 0.0)]):
            segment = start - cursor
            measured += segment
            scaled += segment * NOMINAL_S / (0.5 * (refs[k] + refs[k + 1]))
            cursor = start + duration
        return result, scaled, measured
