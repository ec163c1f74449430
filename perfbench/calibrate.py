"""Host-speed calibration: a fixed reference kernel timed alongside the job.

The machines this benchmark runs on are shared: the same pass of the
same job reads 2.0 s in one minute and 3.1 s in the next, and a plain
arithmetic loop swings by as much.  A host-time metric therefore moves
with the neighbours' load more than with the program.  The benchmark
times a fixed kernel every :data:`INTERVAL_S` of job time and scales
each stretch of host time between two calibrations by
``REFERENCE_MS / kernel time``, the kernel time being the mean of the
timings within :data:`WINDOW_S` of the stretch.  The result is
*normalised host time*: the time the stretch would have taken on a host
where the kernel runs in :data:`REFERENCE_MS`.  The window follows the
host's multi-second swings while averaging out the jitter of single
few-millisecond kernel timings.

The kernel is a small discrete-event loop in pure Python (a heap of
timestamped closures that allocate tuples and update a dict), because
that shape of work tracks the simulator's speed under contention far
better than an arithmetic loop.  It uses nothing from the program, so a
slower program is never hidden by a slower kernel.  Calibration time is
excluded from every measured interval.
"""

from __future__ import annotations

import bisect
import heapq
import time

#: Kernel time, in ms, that defines normalised time: the kernel's typical
#: time on the 2-CPU container the benchmark was written on.
REFERENCE_MS = 6.0
#: Job time between calibrations.
INTERVAL_S = 0.2
#: Kernel timings within this many seconds of a stretch set its scale.
WINDOW_S = 1.0
#: Events per kernel run.
EVENTS = 4000


def kernel() -> int:
    """One fixed run of the reference discrete-event loop."""
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    table: dict = {}

    def event(key: int, now: int) -> None:
        table[key & 255] = (now, key)
        if key < EVENTS:
            push(heap, (now + (key * 7919) % 97 + 1, key + 1000, event))

    for key in range(1000):
        push(heap, ((key * 31) % 101, key, event))
    count = 0
    while heap:
        now, key, fn = pop(heap)
        fn(key, now)
        count += 1
    return count


def measure() -> float:
    """Seconds one kernel run takes now (the best of two runs)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Calibrator:
    """Kernel timings taken along a timed loop, and the scaling they give."""

    def __init__(self) -> None:
        #: ``(start, end, kernel seconds)`` per calibration.
        self.marks: list[tuple[float, float, float]] = []

    def mark(self) -> None:
        start = time.perf_counter()
        ref = measure()
        self.marks.append((start, time.perf_counter(), ref))

    def due(self) -> bool:
        return time.perf_counter() - self.marks[-1][1] >= INTERVAL_S

    def segments(self) -> list[tuple[float, float, float]]:
        """``(start, end, scale)`` of each stretch between calibrations."""
        times = [(start + end) / 2 for start, end, _ in self.marks]
        out = []
        for (_, begin, _), (end, _, _) in zip(self.marks, self.marks[1:]):
            lo = bisect.bisect_left(times, begin - WINDOW_S)
            hi = bisect.bisect_right(times, end + WINDOW_S)
            refs = [ref for _, _, ref in self.marks[lo:hi]]
            out.append((begin, end, REFERENCE_MS / 1e3 / (sum(refs) / len(refs))))
        return out
