"""Machine interface and task lifecycle shared by every machine.

The API deliberately mirrors what a *user-space* scheduler can actually
do on Linux, because SFS is a user-space scheduler:

* ``spawn``        — the FaaS server forks the function process;
* ``set_policy``   — ``schedtool`` / ``sched_setscheduler(2)``;
* ``poll_state``   — reading ``/proc/<pid>/stat`` (gopsutil);
* ``on_finish``    — ``waitpid``/SIGCHLD, which user space gets for free.

There is intentionally **no** ``on_block`` callback: the paper's whole
§V-D is about SFS having to *poll* for the running→sleeping transition,
so exposing it as a push event would erase the detection-latency effect
the reproduction must show (Fig 11).  ``on_state_change`` is not one
either: it only tells the simulator-side owner of a parked poll timer
that the poll may act at its next firing, which still lands on the
poll's own period (see :meth:`repro.sim.engine.Simulator.poke`).

The base class owns the task lifecycle around that API: spawn, the
ready and run stamps, block on I/O, wake, exit, and the epilogue of a
kill.  A machine supplies only placement — ``_enqueue`` (where a ready
task goes), its run/preempt mechanics, its burst completion and, when
it honours class changes, ``_reclass``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.sched.cfs import CfsParams
from repro.sched.rt import DEFAULT_RR_QUANTUM
from repro.sim.engine import Simulator
from repro.sim.task import BurstKind, SchedPolicy, Task, TaskState
from repro.trace import events as tev

FinishCallback = Callable[[Task], None]
StateCallback = Callable[[Task], None]


@dataclass(frozen=True)
class MachineParams:
    """Host configuration.

    ``ctx_switch_cost`` is the CPU time (us) lost per context switch —
    the direct kernel cost plus cache/TLB pollution.  It defaults to 0
    (ideal hardware) so unit arithmetic stays exact; the experiment
    harness sets a calibrated value (see ``repro.experiments.common``),
    because this loss is precisely why heavily-slicing CFS falls behind
    rarely-switching FILTER at saturation (the paper's Fig 15/16 tail).
    """

    n_cores: int = 12
    cfs: CfsParams = field(default_factory=CfsParams)
    rr_quantum: int = DEFAULT_RR_QUANTUM
    ctx_switch_cost: int = 0
    #: relative CPU speed of this host (1.0 = nominal).  A straggler
    #: host (thermal throttling, noisy neighbour, degraded clock) runs
    #: at speed < 1: every CPU burst takes ``1/speed`` x as long in
    #: wall time.  Injected per host by :mod:`repro.faults`.
    speed: float = 1.0
    #: which fair class SCHED_NORMAL maps to: "cfs" (pre-6.6 Linux, the
    #: paper's testbed) or "eevdf" (6.6+) — discrete engine only.
    fair_class: str = "cfs"
    #: RT group bandwidth (sched_rt_runtime_us / sched_rt_period_us):
    #: a (runtime, period) pair in us, e.g. Linux's default
    #: ``(950_000, 1_000_000)`` guarantees CFS >= 5 % of each core.
    #: ``None`` (default) models the throttle disabled, matching the
    #: paper's deployments where FILTER may monopolise cores.  Discrete
    #: engine only.
    rt_bandwidth: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ValueError("n_cores must be positive")
        if self.rr_quantum <= 0:
            raise ValueError("rr_quantum must be positive")
        if self.ctx_switch_cost < 0:
            raise ValueError("ctx_switch_cost must be >= 0")
        if not (0.0 < self.speed <= 1.0):
            raise ValueError("speed must be in (0, 1] (1.0 = nominal)")
        if self.fair_class not in ("cfs", "eevdf"):
            raise ValueError(f"unknown fair_class {self.fair_class!r}")
        if self.rt_bandwidth is not None:
            runtime, period = self.rt_bandwidth
            if not (0 < runtime < period):
                raise ValueError("rt_bandwidth needs 0 < runtime < period")


class MachineBase:
    """Abstract c-core host running CFS + RT scheduling classes."""

    def __init__(self, sim: Simulator, params: Optional[MachineParams] = None):
        self.sim = sim
        self.params = params or MachineParams()
        self.n_cores = self.params.n_cores
        self._finish_callbacks: List[FinishCallback] = []
        self._state_callbacks: List[StateCallback] = []
        # observability: the simulator's probe (trace + metrics + audit)
        # and its enabled flag are cached at construction (install the
        # sinks on the Simulator first); engines name themselves as the
        # actor on machine-level decisions (preempt/slice/quantum/...)
        self._probe = sim.probe
        self._probe_on = self._probe.enabled
        self._probe.register("machine")
        # runtime invariant checker: same caching contract
        self._inv = sim.invariants
        self._inv_on = self._inv.enabled
        # aggregate accounting
        self.busy_time: int = 0          # core-microseconds of CPU work done
        self.tasks_spawned: int = 0
        self.tasks_finished: int = 0

    # ------------------------------------------------------------------
    # public API (what user space can do)
    # ------------------------------------------------------------------
    def spawn(self, task: Task) -> None:
        """Dispatch a process to the OS at the current virtual time."""
        if task.state is not TaskState.CREATED:
            raise RuntimeError(f"task {task.tid} already spawned")
        task.dispatch_time = self.sim.now
        self.tasks_spawned += 1
        first = task.current_burst
        assert first is not None
        if self._probe_on:
            self._probe.spawn(task, blocked=first.kind is BurstKind.IO)
        if first.kind is BurstKind.IO:
            self._block(task, first.duration)
        else:
            self._make_ready(task)
            self._enqueue(task, wakeup=False)

    def set_policy(self, task: Task, policy: SchedPolicy, rt_priority: int = 1) -> None:
        """``sched_setscheduler``: re-class a live task."""
        if task.state is TaskState.FINISHED:
            return
        rt_priority = rt_priority if policy is not SchedPolicy.CFS else 0
        if task.policy is policy and task.rt_priority == rt_priority:
            return
        if self._probe_on:
            self._probe.set_policy(task, policy, rt_priority)
        if task.state in (TaskState.CREATED, TaskState.BLOCKED):
            # takes effect at wake
            task.rt_priority = rt_priority
            task.record_policy_change(self.sim.now, policy)
        else:
            self._reclass(task, policy, rt_priority)

    def poll_state(self, task: Task) -> TaskState:
        """Read the kernel-visible process state (``/proc`` poll)."""
        return task.state

    def on_finish(self, callback: FinishCallback) -> None:
        """Register a process-exit observer (``waitpid`` semantics)."""
        self._finish_callbacks.append(callback)

    def on_state_change(self, callback: StateCallback) -> None:
        """Register an observer of block, wake and exit, called with the
        task once its new state is set (exit: before ``on_finish``).
        It must not act on the task: it is for poking parked poll
        timers, whose polls then observe the change at their period."""
        self._state_callbacks.append(callback)

    def detach_observers(self) -> None:
        """Drop every observer once the run is over: each one's owner
        (SFS, the host) holds the machine, so the pair would otherwise
        wait for the cyclic collector."""
        self._finish_callbacks.clear()
        self._state_callbacks.clear()

    def kill(self, task: Task, reason: str = "crash") -> bool:
        """``SIGKILL``: forcibly terminate a live task.

        Used by the fault injector (sandbox crash, request timeout, host
        failure).  The task is charged for the CPU service it received,
        removed from every queue, marked ``killed`` with ``reason`` and
        reported through the normal ``on_finish`` path — user space
        (FaaS server, SFS) observes an ordinary process exit, exactly as
        ``waitpid`` would report a signalled child.  Returns False when
        the task had already finished (kill raced with completion).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # placement hooks (what each machine supplies)
    # ------------------------------------------------------------------
    def _enqueue(self, task: Task, wakeup: bool) -> None:
        """Place a READY task: run it, preempt for it, or queue it.
        ``wakeup`` is True when it just woke from I/O."""
        raise NotImplementedError

    def _reclass(self, task: Task, policy: SchedPolicy, rt_priority: int) -> None:
        """Apply a real class change to a READY or RUNNING task."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # task lifecycle (shared by every machine)
    # ------------------------------------------------------------------
    def _make_ready(self, task: Task) -> None:
        """The task is runnable; its wait starts now."""
        task.state = TaskState.READY
        task.since = self.sim.now

    def _begin_run(self, task: Task) -> None:
        """The task got a CPU: charge its wait; ``since`` marks the run."""
        now = self.sim.now
        task.wait_time += now - task.since
        task.since = now
        if task.first_run_time is None:
            task.first_run_time = now
        task.state = TaskState.RUNNING

    def _block(self, task: Task, duration: int) -> None:
        """Sleep on ``duration`` us of I/O; :meth:`_on_io_done` wakes it.
        A running task gives its CPU up voluntarily."""
        if task.state is TaskState.RUNNING:
            task.ctx_voluntary += 1
        task.state = TaskState.BLOCKED
        task.timer = self.sim.schedule(duration, self._on_io_done, task)
        for cb in self._state_callbacks:
            cb(task)

    def _end_burst(self, task: Task, core: int = -1,
                   served: Optional[int] = None) -> None:
        """A CPU burst ended and the task left its CPU: exit, block on
        the I/O that follows, or place the next CPU burst.  ``served``
        is the CPU credit of a shared stay (see the probe's
        ``burst_end``)."""
        nxt = task.advance_burst()
        if self._probe_on:
            self._probe.burst_end(
                task, core, nxt is not None and nxt.kind is BurstKind.IO,
                served)
        if nxt is None:
            self._exit(task)
        elif nxt.kind is BurstKind.IO:
            self._block(task, nxt.duration)
        else:
            self._make_ready(task)
            self._enqueue(task, wakeup=False)

    def _on_io_done(self, task: Task) -> None:
        task.timer = None
        nxt = task.complete_io()
        if nxt is None:
            self._exit(task)
            return
        assert nxt.kind is BurstKind.CPU, "consecutive I/O bursts must be merged"
        if self._probe_on:
            self._probe.wake(task)
        self._make_ready(task)
        for cb in self._state_callbacks:
            cb(task)
        self._enqueue(task, wakeup=True)

    def _exit(self, task: Task) -> None:
        """The process exited: stamp it and notify user space."""
        task.state = TaskState.FINISHED
        task.finish_time = self.sim.now
        for cb in self._state_callbacks:
            cb(task)
        self._notify_finish(task)

    def _cancel_timer(self, task: Task) -> None:
        """Cancel the task's own pending event (``Task.timer``), if any."""
        if task.timer is not None:
            task.timer.cancel()
            task.timer = None

    def _finish_killed(self, task: Task, reason: str) -> None:
        """Shared kill epilogue: drop the task's pending event, mark the
        exit and notify user space."""
        self._cancel_timer(task)
        task.killed = True
        task.kill_reason = reason
        self._exit(task)

    # ------------------------------------------------------------------
    # introspection used by tests and metrics
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of total core time spent running tasks so far."""
        if self.sim.now == 0:
            return 0.0
        return self.busy_time / (self.sim.now * self.n_cores)

    def idle_cores(self) -> int:
        raise NotImplementedError

    def runnable_count(self) -> int:
        """Tasks ready-but-not-running across all queues."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # gauges
    # ------------------------------------------------------------------
    def gauge_keys(self) -> Tuple[Tuple[str, int], ...]:
        """The ``(kind, core)`` machine-state gauges, fixed for the run.

        The base snapshot works for any machine exposing the
        introspection API; engines extend both methods with per-queue
        depth.
        """
        return ((tev.GAUGE_RUNNABLE, -1), (tev.GAUGE_IDLE_CORES, -1))

    def gauge_values(self, out: list) -> None:
        """Append one value per :meth:`gauge_keys` key (each sampler tick)."""
        out.extend((self.runnable_count(), self.idle_cores()))

    # ------------------------------------------------------------------
    def _notify_finish(self, task: Task) -> None:
        self.tasks_finished += 1
        if self._inv_on:
            self._inv.on_task_finish(task, self.sim.now)
        if self._probe_on:
            self._probe.finish(task)
        for cb in list(self._finish_callbacks):
            cb(task)
