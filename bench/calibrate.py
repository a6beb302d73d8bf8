"""Host-speed calibration for the usinv benchmark.

The benchmark runs on a few cores of a shared host whose speed changes by tens
of percent from one second to the next and from one minute to the next, so
even a command's best time over a run depends on when the run happened.  A
fixed kernel, written here and independent of `usinv`, is therefore timed
every INTERVAL_S while the commands run, from a SIGALRM handler in the same
thread.  A command's time, less the time its handler calls took, divided by
the median kernel time sampled during the command (and within one interval of
it), is its time in kernel units: adjacent samples of the kernel and of a
command slow down together (their log times correlate at about 0.8), so the
quotient keeps the command's own cost and drops most of the host's drift.
The benchmark multiplies by REFERENCE_KERNEL_S to report seconds of the
reference host.

The kernel does the kind of work `usinv` does: fraction-free elimination of
sparse integer rows held in dicts, and `Fraction` sums.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter, process_time

# About the median time of one `kernel()` call on the reference host (2-vCPU
# 2.1 GHz Xeon) while it runs the benchmark, which measured 1.7 to 2.5 ms
# across the workloads; a time in kernel units times this is in seconds of
# that host.
REFERENCE_KERNEL_S = 0.0022
INTERVAL_S = 0.05


def kernel() -> Fraction:
    """Fraction-free elimination of a fixed 22 x 26 integer matrix."""
    n, x = 22, 12345
    work = []
    for _ in range(n):
        row = {}
        for j in range(n + 4):
            x = (x * 1103515245 + 12345) % 2147483648
            v = (x >> 16) % 7 - 3
            if v:
                row[j] = v
        work.append(row)
    prev, total = 1, Fraction(0)
    for col in range(n + 4):
        piv = next((r for r in work if r.get(col)), None)
        if piv is None:
            continue
        p = piv[col]
        rest = []
        for r in work:
            if r is piv:
                continue
            a = r.get(col, 0)
            new = {}
            for c in set(piv) | set(r):
                if c != col:
                    val = p * r.get(c, 0) - a * piv.get(c, 0)
                    if val:
                        new[c] = val // prev
            if new:
                rest.append(new)
        work = rest
        total += Fraction(1, abs(p) % 97 + 1)
        prev = p
    return total


class Calibration:
    """Kernel samples taken every INTERVAL_S between `start` and `stop`.

    `spent` and `spent_cpu` add up the wall and CPU time the samples took, so
    a caller reading them before and after a command can take them out of the
    command's time."""

    def __init__(self):
        self.at = []  # midpoints of the samples, perf_counter seconds
        self.took = []  # wall seconds of each sample
        self.spent = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def sample(self, *_) -> None:
        t0, c0 = perf_counter(), process_time()
        kernel()
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.spent += t1 - t0
        self.spent_cpu += process_time() - c0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def local(self, t0: float, t1: float) -> float:
        """Median kernel time over the samples taken within INTERVAL_S of
        the interval [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0 - INTERVAL_S)
        hi = bisect.bisect_right(self.at, t1 + INTERVAL_S)
        if lo == hi:  # no sample near: the nearest one
            lo = max(0, min(lo, len(self.at)) - 1)
            hi = lo + 1
        return statistics.median(self.took[lo:hi])


def probe(count: int) -> float:
    """Median of `count` kernel times, for a process that times one interval
    of its own, such as a set-up probe, and samples the host right after."""
    took = []
    for _ in range(count):
        t0 = perf_counter()
        kernel()
        took.append(perf_counter() - t0)
    return statistics.median(took)
