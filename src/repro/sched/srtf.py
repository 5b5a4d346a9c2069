"""Offline SRTF oracle (Shortest Remaining Time First).

The paper's upper baseline: a clairvoyant preemptive scheduler that
always runs the ``c`` tasks with the smallest remaining CPU demand.
It is *offline* — it reads ``Task.cpu_remaining`` directly, knowledge no
real scheduler has — which is exactly why the paper uses it as the
bound SFS tries to approximate.

Implemented as a machine with the standard API so drivers can swap it
in for CFS/SFS transparently; ``set_policy`` is a no-op (the oracle
ignores user-space hints — it already knows everything).  It reports
the task lifecycle through the probe like the engines do, with core -1
(the oracle places no task on a particular core), so ``repro why``
explains its runs too.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

from repro.machine.base import MachineBase, MachineParams
from repro.sim.engine import EventHandle, Simulator
from repro.sim.task import BurstKind, SchedPolicy, Task, TaskState
from repro.trace import events as tev


class SRTFMachine(MachineBase):
    """Clairvoyant preemptive shortest-remaining-time-first on c cores."""

    def __init__(self, sim: Simulator, params: Optional[MachineParams] = None):
        super().__init__(sim, params)
        self._ready: list[tuple[int, int, Task]] = []  # (cpu_remaining, seq, task)
        self._running: dict[int, Task] = {}
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    def spawn(self, task: Task) -> None:
        if task.state is not TaskState.CREATED:
            raise RuntimeError(f"task {task.tid} already spawned")
        task.dispatch_time = self.sim.now
        self.tasks_spawned += 1
        first = task.current_burst
        assert first is not None
        if self._probe_on:
            self._probe.spawn(task, blocked=first.kind is BurstKind.IO)
        if first.kind is BurstKind.IO:
            task.state = TaskState.BLOCKED
            task._io_handle = self.sim.schedule(  # type: ignore[attr-defined]
                first.duration, self._on_io_done, task, first.duration
            )
        else:
            self._make_ready(task)
            self._admit(task)

    def set_policy(self, task: Task, policy: SchedPolicy, rt_priority: int = 1) -> None:
        """The oracle ignores policy hints."""

    def kill(self, task: Task, reason: str = "crash") -> bool:
        if task.state is TaskState.FINISHED:
            return False
        if self._probe_on:
            off = tev.DESCHED_KILL if task.tid in self._running else None
            self._probe.kill(task, reason, -1, off)
        if task.tid in self._running:
            handle: Optional[EventHandle] = getattr(task, "_end_handle", None)
            if handle is not None:
                handle.cancel()
                task._end_handle = None  # type: ignore[attr-defined]
            served = min(self.sim.now - task._run_start,  # type: ignore[attr-defined]
                         task.burst_remaining)
            task.consume_cpu(served)
            self.busy_time += served
            del self._running[task.tid]
        elif task.state is TaskState.BLOCKED:
            io_handle = getattr(task, "_io_handle", None)
            if io_handle is not None:
                io_handle.cancel()
                task._io_handle = None  # type: ignore[attr-defined]
        # READY tasks: the heap entry goes stale and _scrub drops it
        self._finish_killed(task, reason)
        self._fill_cores()
        return True

    def idle_cores(self) -> int:
        return self.n_cores - len(self._running)

    def runnable_count(self) -> int:
        self._scrub()
        return len(self._ready)

    # ------------------------------------------------------------------
    def _make_ready(self, task: Task) -> None:
        task.state = TaskState.READY
        task._ready_since = self.sim.now  # type: ignore[attr-defined]

    def _live_remaining(self, task: Task) -> int:
        """Remaining CPU demand *right now*, accounting for time a
        running task has accrued since its last charge event."""
        rem = task.cpu_remaining
        if task.state is TaskState.RUNNING:
            rem -= self.sim.now - task._run_start  # type: ignore[attr-defined]
        return rem

    def _admit(self, task: Task) -> None:
        """A task became runnable: run it now, preempt, or queue."""
        if len(self._running) < self.n_cores:
            self._start(task)
            return
        victim = max(self._running.values(), key=self._live_remaining)
        if task.cpu_remaining < self._live_remaining(victim):
            if self._probe_on:
                self._probe.preempt("srtf", task, victim, -1)
            self._preempt(victim)
            self._start(task)
        else:
            heapq.heappush(self._ready, (task.cpu_remaining, next(self._seq), task))

    def _start(self, task: Task) -> None:
        now = self.sim.now
        task.wait_time += now - getattr(task, "_ready_since", now)
        if task.first_run_time is None:
            task.first_run_time = now
        task.state = TaskState.RUNNING
        task._run_start = now  # type: ignore[attr-defined]
        task._end_handle = self.sim.schedule(  # type: ignore[attr-defined]
            task.burst_remaining, self._on_burst_done, task
        )
        self._running[task.tid] = task
        if self._probe_on:
            self._probe.run(task, -1)

    def _preempt(self, task: Task) -> None:
        handle: Optional[EventHandle] = getattr(task, "_end_handle", None)
        if handle is not None:
            handle.cancel()
            task._end_handle = None  # type: ignore[attr-defined]
        served = self.sim.now - task._run_start  # type: ignore[attr-defined]
        served = min(served, task.burst_remaining)
        task.consume_cpu(served)
        self.busy_time += served
        del self._running[task.tid]
        task.ctx_involuntary += 1
        self._make_ready(task)
        heapq.heappush(self._ready, (task.cpu_remaining, next(self._seq), task))

    def _fill_cores(self) -> None:
        self._scrub()
        while self._ready and len(self._running) < self.n_cores:
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
        task._end_handle = None  # type: ignore[attr-defined]
        served = task.burst_remaining
        task.consume_cpu(served)
        self.busy_time += served
        del self._running[task.tid]
        nxt = task.advance_burst()
        if self._probe_on:
            self._probe.burst_end(
                task, -1, nxt is not None and nxt.kind is BurstKind.IO)
        if nxt is None:
            task.state = TaskState.FINISHED
            task.finish_time = self.sim.now
            self._notify_finish(task)
        elif nxt.kind is BurstKind.IO:
            task.state = TaskState.BLOCKED
            task.ctx_voluntary += 1
            task._io_handle = self.sim.schedule(  # type: ignore[attr-defined]
                nxt.duration, self._on_io_done, task, nxt.duration
            )
        else:
            self._make_ready(task)
            self._admit(task)
        self._fill_cores()

    def _on_io_done(self, task: Task, duration: int) -> None:
        task._io_handle = None  # type: ignore[attr-defined]
        nxt = task.complete_io()
        if nxt is None:
            task.state = TaskState.FINISHED
            task.finish_time = self.sim.now
            self._notify_finish(task)
            return
        assert nxt.kind is BurstKind.CPU
        if self._probe_on:
            self._probe.wake(task)
        self._make_ready(task)
        self._admit(task)
