"""Machine interface shared by the discrete and fluid engines.

The API deliberately mirrors what a *user-space* scheduler can actually
do on Linux, because SFS is a user-space scheduler:

* ``spawn``        — the FaaS server forks the function process;
* ``set_policy``   — ``schedtool`` / ``sched_setscheduler(2)``;
* ``poll_state``   — reading ``/proc/<pid>/stat`` (gopsutil);
* ``on_finish``    — ``waitpid``/SIGCHLD, which user space gets for free.

There is intentionally **no** ``on_block`` callback: the paper's whole
§V-D is about SFS having to *poll* for the running→sleeping transition,
so exposing it as a push event would erase the detection-latency effect
the reproduction must show (Fig 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.sched.cfs import CfsParams
from repro.sched.rt import DEFAULT_RR_QUANTUM
from repro.sim.engine import Simulator
from repro.sim.task import SchedPolicy, Task, TaskState
from repro.trace import events as tev

FinishCallback = Callable[[Task], None]


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
        raise NotImplementedError

    def set_policy(self, task: Task, policy: SchedPolicy, rt_priority: int = 1) -> None:
        """``sched_setscheduler``: re-class a live task."""
        raise NotImplementedError

    def poll_state(self, task: Task) -> TaskState:
        """Read the kernel-visible process state (``/proc`` poll)."""
        return task.state

    def on_finish(self, callback: FinishCallback) -> None:
        """Register a process-exit observer (``waitpid`` semantics)."""
        self._finish_callbacks.append(callback)

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

    def _finish_killed(self, task: Task, reason: str) -> None:
        """Shared kill epilogue: mark the exit and notify user space."""
        task.killed = True
        task.kill_reason = reason
        task.state = TaskState.FINISHED
        task.finish_time = self.sim.now
        self._notify_finish(task)

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
    def sample_gauges(self, probe, now: int) -> None:
        """Emit machine-state gauges (called by the periodic sampler).

        The base snapshot works for any machine exposing the
        introspection API; engines override to add per-queue depth.
        """
        probe.gauge(now, tev.GAUGE_RUNNABLE, self.runnable_count())
        probe.gauge(now, tev.GAUGE_IDLE_CORES, self.idle_cores())

    # ------------------------------------------------------------------
    def _notify_finish(self, task: Task) -> None:
        self.tasks_finished += 1
        if self._inv_on:
            self._inv.on_task_finish(task, self.sim.now)
        if self._probe_on:
            self._probe.finish(task)
        for cb in list(self._finish_callbacks):
            cb(task)
