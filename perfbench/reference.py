"""A fixed reference workload that measures how fast the host is right now.

The benchmark's hosts change speed by 10-30% over minutes (other tenants,
clock frequency): the same simulated case, run again a minute later,
takes that much longer or shorter.  :func:`run` times a small
discrete-event loop written here, independent of the simulator, with the
same kind of work (heap pushes and pops, bound-method callbacks,
attribute updates).  The measured run interleaves it with its cases; the
ratio of its nominal to its measured time is the host-speed index that
turns requests per host second into requests per reference second.
"""

from __future__ import annotations

import heapq
import time

#: host seconds per reference job on the machine the benchmark was
#: calibrated on (an index of 1.0 means "as fast as that machine")
JOB_SECONDS = 3.7e-5
#: reference time per case, as a share of the case's own nominal cost
SHARE = 0.2


class _Job:
    __slots__ = ("left", "steps")

    def __init__(self, left: int):
        self.left = left
        self.steps = 0


class _Loop:
    def __init__(self) -> None:
        self.heap: list = []
        self.seq = 0
        self.now = 0
        self.steps = 0

    def at(self, when: int, callback, *args) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (when, self.seq, callback, args))

    def tick(self, job: _Job) -> None:
        job.steps += 1
        job.left -= 3
        if job.left > 0:
            self.at(self.now + 1 + job.left % 7, self.tick, job)
        else:
            self.steps += job.steps

    def run(self) -> int:
        while self.heap:
            self.now, _seq, callback, args = heapq.heappop(self.heap)
            callback(*args)
        return self.steps


def jobs_for(case_seconds: float) -> int:
    """Reference jobs to run beside one case of this nominal cost."""
    return max(1, round(SHARE * case_seconds / JOB_SECONDS))


def run(jobs: int) -> float:
    """Host seconds the reference loop takes for ``jobs`` jobs."""
    t0 = time.perf_counter()
    loop = _Loop()
    for i in range(jobs):
        loop.at(i, loop.tick, _Job(40 + i % 50))
    steps = loop.run()
    elapsed = time.perf_counter() - t0
    if steps != expected_steps(jobs):
        raise RuntimeError(f"reference loop ran {steps} steps")
    return elapsed


def expected_steps(jobs: int) -> int:
    """Steps the loop must take: job ``i`` ticks ceil((40 + i % 50) / 3)
    times."""
    return sum(-(-(40 + i % 50) // 3) for i in range(jobs))
