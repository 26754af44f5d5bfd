"""How fast this process runs right now.

The benchmark runs on machines that share their cores with other
tenants.  Their load switches the benchmarked process between a fast
and a slow state (up to 1.8x apart, in CPU time as well as in wall
time) every few seconds, so how long a run spends slow, and with it
every time the run reports, changes from run to run by more than a
program change worth catching.  So every phase keeps a
:class:`HostProbe`, which times a fixed pure-Python kernel in the
phase's own process.  The phase samples it just before and just after
each timed interval (an op, or several short ops in a row, and each
set-up), and :mod:`run` reports every time in *reference seconds*: the
measured seconds times ``REFERENCE_PROBE_S`` over the mean probe time
at the interval's two ends.  A program that does more work reads
slower in reference seconds just as in seconds; a process that runs
everything slower for a while does not.

The probe runs in the benchmarked process, on its main thread and
never while an op does: the same kernel run in a child process, even
one pinned to the same CPU, did not follow the slowdowns the ops saw,
while the in-process kernel did.  The garbage collector is off while
the kernel runs, so the size of the program's heap does not change the
probe's time.  A program that kept a thread busy between ops would
slow the probe too; ``bench.host_slowdown`` shows such a shift.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

#: The kernel's seconds on an uncontended core of a 2-vCPU KVM guest
#: (CPython 3.11): the unit that reported times are scaled to.
REFERENCE_PROBE_S = 0.032
KERNEL_ITERATIONS = 200_000


def kernel_seconds() -> float:
    """Seconds of one run of a fixed pure-Python kernel: dictionary and
    integer work, the same kind the interpreter does in the program."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(KERNEL_ITERATIONS):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        acc ^= key
    sorted(table.items())
    return time.perf_counter() - start


class HostProbe:
    """The timeline of probe points taken in this process."""

    def __init__(self) -> None:
        #: ``perf_counter()`` at each probe point, and its probe time.
        self.times: list[float] = []
        self.seconds: list[float] = []

    def sample(self, count: int = 3) -> None:
        """One probe point: the median of ``count`` kernel runs."""
        at = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            runs = [kernel_seconds() for _ in range(count)]
        finally:
            if collecting:
                gc.enable()
        self.times.append(at)
        self.seconds.append(statistics.median(runs))

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per measured second over ``[start, end]``:
        from the last probe point before ``start`` and the first after
        ``end`` (``perf_counter()`` readings)."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        if before < 0 or after >= len(self.times):
            raise ValueError("interval not bracketed by probe points")
        probe_s = (self.seconds[before] + self.seconds[after]) / 2.0
        return REFERENCE_PROBE_S / probe_s
