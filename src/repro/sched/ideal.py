"""IDEAL baseline: infinite resources, zero contention.

Every task gets its own core the instant it is dispatched, so its
turnaround equals its intrinsic burst sum.  The paper uses this both as
the unreachable performance ceiling in Fig 2 and as the denominator-
defining run for RTE (the "aggregate CPU time ... measured under the
IDEAL scenario").

Under a live probe the machine also steps each task burst by burst,
reporting the lifecycle (run / burst end / block / wake) with core -1
as the engines do, so ``repro why`` explains IDEAL runs too.  The
steps only report: the finish event is still the one scheduled at
spawn and accounting is charged there, so a traced run is
bit-identical to a bare one.
"""

from __future__ import annotations

from typing import Optional

from repro.machine.base import MachineBase, MachineParams
from repro.sim.engine import Simulator
from repro.sim.task import BurstKind, SchedPolicy, Task, TaskState
from repro.trace import events as tev


class IdealMachine(MachineBase):
    """Infinitely many cores; tasks never wait or context-switch."""

    def __init__(self, sim: Simulator, params: Optional[MachineParams] = None):
        super().__init__(sim, params)
        self._active = 0
        self.peak_parallelism = 0

    def spawn(self, task: Task) -> None:
        if task.state is not TaskState.CREATED:
            raise RuntimeError(f"task {task.tid} already spawned")
        task.dispatch_time = self.sim.now
        self.tasks_spawned += 1
        self._make_ready(task)
        self._begin_run(task)  # its own core, at once: zero wait
        self._active += 1
        self.peak_parallelism = max(self.peak_parallelism, self._active)
        task.timer = self.sim.schedule(
            task.ideal_duration, self._on_done, task
        )
        if self._probe_on:
            cpu = task.bursts[0].kind is BurstKind.CPU
            self._probe.spawn(task, blocked=not cpu)
            if cpu:
                self._probe.run(task, -1)
            self._step(task, 0)

    def set_policy(self, task: Task, policy: SchedPolicy, rt_priority: int = 1) -> None:
        """No contention, so policies are irrelevant."""

    def kill(self, task: Task, reason: str = "crash") -> bool:
        if task.state is TaskState.FINISHED:
            return False
        if task.step_handle is not None:
            task.step_handle.cancel()
            task.step_handle = None
        if self._probe_on:
            cpu = task.bursts[task.step].kind is BurstKind.CPU
            self._probe.kill(task, reason, -1,
                             tev.DESCHED_KILL if cpu else None)
        self._active -= 1
        self._finish_killed(task, reason)
        return True

    def idle_cores(self) -> int:  # pragma: no cover - infinite machine
        return 0

    def runnable_count(self) -> int:
        return 0

    def _step(self, task: Task, i: int) -> None:
        """Traced runs: burst ``i`` is under way; arm its end unless it
        is the last burst, whose end is :meth:`_on_done`."""
        task.step = i
        task.step_handle = None
        if i + 1 < len(task.bursts):
            task.step_handle = self.sim.schedule(
                task.bursts[i].duration, self._on_step, task, i)

    def _on_step(self, task: Task, i: int) -> None:
        """Burst ``i`` ended and burst ``i + 1`` starts (traced runs)."""
        nxt = task.bursts[i + 1].kind
        if task.bursts[i].kind is BurstKind.CPU:
            self._probe.burst_end(task, -1, nxt is BurstKind.IO)
        else:
            self._probe.wake(task)
        if nxt is BurstKind.CPU:
            self._probe.run(task, -1)
        self._step(task, i + 1)

    def _on_done(self, task: Task) -> None:
        task.timer = None
        if self._probe_on and task.bursts[-1].kind is BurstKind.CPU:
            self._probe.burst_end(task, -1, False)
        # charge each burst in order so accounting matches other engines
        while True:
            burst = task.current_burst
            if burst is None:
                break
            if burst.kind is BurstKind.CPU:
                task.consume_cpu(task.burst_remaining)
                self.busy_time += burst.duration
            else:
                task.io_time += burst.duration
                task.burst_remaining = 0
            task.advance_burst()
        self._active -= 1
        self._exit(task)
