"""Offline SRTF oracle (Shortest Remaining Time First).

The paper's upper baseline: a clairvoyant preemptive scheduler that
always runs the ``c`` tasks with the smallest remaining CPU demand.
It is *offline* — it reads ``Task.cpu_remaining`` directly, knowledge no
real scheduler has — which is exactly why the paper uses it as the
bound SFS tries to approximate.

Implemented as a machine with the standard API so drivers can swap it
in for CFS/SFS transparently: it inherits :class:`MachineBase`'s task
lifecycle and supplies only placement.  ``set_policy`` is a no-op (the
oracle ignores user-space hints — it already knows everything).  It reports
the task lifecycle through the probe like the engines do, with core -1
(the oracle places no task on a particular core), so ``repro why``
explains its runs too.
"""

from __future__ import annotations

import heapq
import itertools
import math
from operator import itemgetter
from typing import Optional

from repro.machine.base import MachineBase, MachineParams
from repro.sim.engine import Simulator
from repro.sim.task import SchedPolicy, Task, TaskState
from repro.trace import events as tev


class SRTFMachine(MachineBase):
    """Clairvoyant preemptive shortest-remaining-time-first on c cores
    (``unbounded``: on as many cores as there are runnable tasks)."""

    def __init__(self, sim: Simulator, params: Optional[MachineParams] = None,
                 unbounded: bool = False):
        super().__init__(sim, params)
        self._ready: list[tuple[int, int, Task]] = []  # (cpu_remaining, seq, task)
        #: tid -> (the instant its CPU demand runs out, task)
        self._running: dict[int, tuple[int, Task]] = {}
        self._seq = itertools.count()
        #: how many tasks may run at once
        self._limit = math.inf if unbounded else self.n_cores

    # ------------------------------------------------------------------
    def set_policy(self, task: Task, policy: SchedPolicy, rt_priority: int = 1) -> None:
        """The oracle ignores policy hints."""

    def kill(self, task: Task, reason: str = "crash") -> bool:
        if task.state is TaskState.FINISHED:
            return False
        if self._probe_on:
            off = tev.DESCHED_KILL if task.tid in self._running else None
            self._probe.kill(task, reason, -1, off)
        if task.tid in self._running:
            self._stop(task)
        # READY tasks: the heap entry goes stale and _scrub drops it
        self._finish_killed(task, reason)
        self._fill_cores()
        return True

    def idle_cores(self) -> int:
        if self._limit == math.inf:  # a core per runnable task: none idles
            return 0
        return self.n_cores - len(self._running)

    def runnable_count(self) -> int:
        # a killed task's stale entry may sit anywhere in the heap
        return sum(1 for _rem, _seq, task in self._ready
                   if task.state is TaskState.READY)

    # ------------------------------------------------------------------
    def _enqueue(self, task: Task, wakeup: bool) -> None:
        """A task became runnable: run it now, preempt, or queue."""
        if len(self._running) < self._limit:
            self._start(task)
            return
        end, victim = max(self._running.values(), key=itemgetter(0))
        if task.cpu_remaining < end - self.sim.now:
            if self._probe_on:
                self._probe.preempt("srtf", task, victim, -1)
            self._preempt(victim)
            self._start(task)
        else:
            heapq.heappush(self._ready, (task.cpu_remaining, next(self._seq), task))

    def _start(self, task: Task) -> None:
        self._begin_run(task)
        task.timer = self.sim.schedule(
            task.burst_remaining, self._on_burst_done, task
        )
        self._running[task.tid] = (self.sim.now + task.cpu_remaining, task)
        if self._probe_on:
            self._probe.run(task, -1)

    def _stop(self, task: Task) -> None:
        """Take a running ``task`` off its core, mid-burst or at the
        burst's end, and charge it for the CPU it received."""
        self._cancel_timer(task)
        served = min(self.sim.now - task.since,
                     task.burst_remaining)
        task.consume_cpu(served)
        self.busy_time += served
        del self._running[task.tid]

    def _preempt(self, task: Task) -> None:
        self._stop(task)
        task.ctx_involuntary += 1
        self._make_ready(task)
        heapq.heappush(self._ready, (task.cpu_remaining, next(self._seq), task))

    def _fill_cores(self) -> None:
        self._scrub()
        while self._ready and len(self._running) < self._limit:
            _rem, _seq, task = heapq.heappop(self._ready)
            self._start(task)

    def _scrub(self) -> None:
        # drop stale heap entries (tasks that were re-pushed or started)
        while self._ready and (
            self._ready[0][2].state is not TaskState.READY
            or self._ready[0][0] != self._ready[0][2].cpu_remaining
        ):
            heapq.heappop(self._ready)

    # ------------------------------------------------------------------
    def _on_burst_done(self, task: Task) -> None:
        self._stop(task)
        self._end_burst(task)
        self._fill_cores()
