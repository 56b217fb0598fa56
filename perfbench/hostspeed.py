"""Host speed, sampled while a workload runs, to rescale its CPU time.

On a shared virtual machine the same command list runs up to 1.5x slower
while neighbouring machines are busy, in phases that last from about a
second to minutes, and at times the hypervisor does not run the machine at
all (steal time).  Wall time holds both; the process's CPU time leaves out
steal but still slows with the host, so no median over a run of tens of
seconds averages a slow phase out.

`HostSpeed` interrupts the process every `INTERVAL_S` seconds (SIGALRM)
and times a fixed pure-Python reference loop in CPU time, which is
`REF_LOOP_S` seconds on an unloaded host.  The loop's mean time over a
measured block, divided by `REF_LOOP_S`, is the host's slowdown over that
block; `rescale` removes the loop's own CPU time from the block's and
divides by the slowdown, which gives the CPU seconds the block would have
taken at the reference speed.  The loop never calls into laff, so a change
to laff cannot move it.
"""

from __future__ import annotations

import signal
import statistics
from time import thread_time

INTERVAL_S = 0.1
# The loop's time on an unloaded 2-core Intel Xeon VM, Python 3.11.
REF_LOOP_S = 6.0e-4


def reference_loop():
    """Dict, tuple and float work, like an interpreter-bound program."""
    table = {}
    total = 0.0
    for i in range(1500):
        key = (i & 63, i & 7)
        table[key] = table.get(key, 0.0) * 0.9 + i
        total += table[key] * 1e-9
    return total


class HostSpeed:
    """Samples the reference loop while its `with` block runs."""

    def __init__(self):
        self.samples = []    # CPU seconds per reference loop
        self.spent = 0.0     # CPU seconds the block spent sampling
        self._previous = None

    def __enter__(self):
        self.samples.clear()
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:          # a block shorter than one interval
            t0 = thread_time()
            reference_loop()
            self.samples.append(thread_time() - t0)
        return False

    def _tick(self, signum, frame):
        t0 = thread_time()
        reference_loop()
        t1 = thread_time()
        self.samples.append(t1 - t0)
        self.spent += thread_time() - t0

    def slowdown(self) -> float:
        """Mean reference-loop time over the block, relative to an unloaded host."""
        return statistics.fmean(self.samples) / REF_LOOP_S

    def rescale(self, seconds: float) -> float:
        """CPU `seconds` measured over the block, less sampling, at the reference speed."""
        return (seconds - self.spent) / self.slowdown()
