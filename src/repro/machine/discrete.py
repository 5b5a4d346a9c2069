"""Faithful per-slice machine model.

Each core runs at most one task; CFS tasks live on per-core red-black
runqueues and are preempted on slice expiry; RT (FIFO/RR) tasks live on
a global RT runqueue and preempt CFS unconditionally.  Every context
switch, migration, block and wake is an explicit simulator event, so
this engine reproduces the paper's CFS pathology (short tasks waiting
out whole scheduling cycles) mechanism-by-mechanism.

This is the *reference* engine: exact but O(events) with an event per
slice.  The fluid engine (:mod:`repro.machine.fluid`) is validated
against it and used for the large experiments.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.machine.base import MachineBase, MachineParams
from repro.sched.cfs import CfsRunqueue
from repro.sched.rt import RTRunqueue
from repro.sim.engine import EventHandle, Simulator
from repro.sim.task import BurstKind, SchedPolicy, Task, TaskState
from repro.trace import events as tev


class _Core:
    __slots__ = (
        "index",
        "rq",
        "task",
        "run_start",
        "slice_handle",
        "completion_handle",
        "throttle_handle",
        "last_tid",
        "rt_usage",
        "rt_period",
    )

    def __init__(self, index: int, rq: CfsRunqueue):
        self.index = index
        self.rq = rq
        self.task: Optional[Task] = None
        self.run_start: int = 0
        self.slice_handle: Optional[EventHandle] = None
        self.completion_handle: Optional[EventHandle] = None
        self.throttle_handle: Optional[EventHandle] = None
        self.last_tid: Optional[int] = None
        # RT group bandwidth accounting (sched_rt_runtime_us)
        self.rt_usage: int = 0
        self.rt_period: int = -1

    def cancel_timers(self) -> None:
        if self.completion_handle is not None:
            self.completion_handle.cancel()
            self.completion_handle = None
        self.cancel_class_timers()

    def cancel_class_timers(self) -> None:
        """Cancel the slice/quantum and RT-throttle timers."""
        if self.slice_handle is not None:
            self.slice_handle.cancel()
            self.slice_handle = None
        if self.throttle_handle is not None:
            self.throttle_handle.cancel()
            self.throttle_handle = None


class DiscreteMachine(MachineBase):
    """Event-per-slice multi-core machine (the reference engine)."""

    def __init__(self, sim: Simulator, params: Optional[MachineParams] = None):
        super().__init__(sim, params)
        if self.params.fair_class == "eevdf":
            from repro.sched.eevdf import EevdfRunqueue

            make_rq = EevdfRunqueue
        else:
            make_rq = lambda: CfsRunqueue(self.params.cfs)  # noqa: E731
        self.cores: List[_Core] = [
            _Core(i, make_rq()) for i in range(self.n_cores)
        ]
        self.rt_rq = RTRunqueue()
        #: straggler speed factor; the == 1.0 guard keeps the nominal
        #: path on exact integer arithmetic (bit-identical runs)
        self._speed = self.params.speed
        self._probe.register("discrete")
        fc = self.params.fair_class
        for core in self.cores:
            core.rq.hook = self._probe.runqueue_hook(f"{fc}:{core.index}", fc)
        self.rt_rq.hook = self._probe.runqueue_hook("rt", "rt")

    # ==================================================================
    # public API
    # ==================================================================
    def _reclass(self, task: Task, policy: SchedPolicy, rt_priority: int) -> None:
        old_policy = task.policy
        if task.state is TaskState.RUNNING:
            core = self.cores[task.core]
            assert core.task is task
            ended = self._charge(core)
            task.rt_priority = rt_priority
            task.record_policy_change(self.sim.now, policy)
            if policy is SchedPolicy.CFS and old_policy is not SchedPolicy.CFS:
                if ended:
                    # the demotion raced with the burst's exact end
                    self._complete_burst(core, task)
                    return
                self._demote_running(core, task)
            else:
                # CFS->RT promotion (or FIFO<->RR): keep running and the
                # completion timer; re-arm the class timers from the end
                # of any unfinished switch window
                core.cancel_class_timers()
                self._arm(core, task, core.run_start - self.sim.now)
        else:  # READY: move between runqueues
            if old_policy is SchedPolicy.CFS:
                rq = self.cores[task.core].rq
                rq.dequeue(task)
            else:
                self.rt_rq.remove(task)
            task.rt_priority = rt_priority
            task.record_policy_change(self.sim.now, policy)
            self._enqueue(task, wakeup=False)

    def kill(self, task: Task, reason: str = "crash") -> bool:
        if task.state is TaskState.FINISHED:
            return False
        if task.state is TaskState.RUNNING:
            core = self.cores[task.core]
            assert core.task is task
            if self._probe_on:
                self._probe.kill(task, reason, core.index, tev.DESCHED_KILL)
            self._charge(core)
            core.cancel_timers()
            core.task = None
            # schedule the core before notifying user space (see
            # _complete_burst): the finish callback may re-enter
            self._pick_next(core)
            self._finish_killed(task, reason)
            return True
        if task.state is TaskState.READY:
            if task.is_rt:
                self.rt_rq.remove(task)
            else:
                self.cores[task.core].rq.dequeue(task)
        if self._probe_on:
            self._probe.kill(task, reason)
        self._finish_killed(task, reason)
        return True

    def idle_cores(self) -> int:
        return sum(1 for c in self.cores if c.task is None)

    def runnable_count(self) -> int:
        return sum(len(c.rq) for c in self.cores) + len(self.rt_rq)

    def gauge_keys(self) -> Tuple[Tuple[str, int], ...]:
        return super().gauge_keys() + tuple(
            (tev.GAUGE_RUNQUEUE, core.index) for core in self.cores
        ) + ((tev.GAUGE_RT_QUEUE, -1),)

    def gauge_values(self, out: list) -> None:
        super().gauge_values(out)
        out.extend([len(core.rq) for core in self.cores])
        out.append(len(self.rt_rq))

    # ==================================================================
    # internals
    # ==================================================================
    def _enqueue(self, task: Task, wakeup: bool) -> None:
        if task.is_rt:
            self.rt_rq.enqueue(task)
            self._dispatch_rt()
        else:
            self._enqueue_cfs(task, wakeup)

    def _enqueue_cfs(self, task: Task, wakeup: bool) -> None:
        core = self._least_loaded_core()
        task.core = core.index
        core.rq.enqueue(task, wakeup=wakeup)
        if core.task is None:
            self._pick_next(core)
        elif (
            wakeup
            and core.task.policy is SchedPolicy.CFS
            and core.rq.should_preempt(task, core.task)
        ):
            victim = core.task
            if self._charge(core):
                self._complete_burst(core, victim)
                return
            if self._probe_on:
                self._probe.preempt(f"{self.params.fair_class}:{core.index}",
                                    task, victim, core.index)
            self._switch_out(core, victim)
            core.rq.enqueue(victim, wakeup=False)
            self._pick_next(core)

    def _least_loaded_core(self) -> _Core:
        best = self.cores[0]
        best_load = self._core_load(best)
        for core in self.cores[1:]:
            load = self._core_load(core)
            if load < best_load:
                best, best_load = core, load
        return best

    @staticmethod
    def _core_load(core: _Core) -> int:
        return len(core.rq) + (1 if core.task is not None else 0)

    def _rt_budget(self, core: _Core) -> Optional[int]:
        """Remaining RT runtime in this core's current bandwidth period
        (None = throttling disabled)."""
        bw = self.params.rt_bandwidth
        if bw is None:
            return None
        runtime, period = bw
        idx = self.sim.now // period
        if core.rt_period != idx:
            core.rt_period = idx
            core.rt_usage = 0
        return runtime - core.rt_usage

    def _rt_allowed(self, core: _Core) -> bool:
        budget = self._rt_budget(core)
        return budget is None or budget > 0

    def _dispatch_rt(self) -> None:
        while True:
            nxt = self.rt_rq.peek()
            if nxt is None:
                return
            core = self._find_rt_target(nxt.rt_priority)
            if core is None:
                return
            victim = core.task
            if victim is not None and self._charge(core):
                # preemption raced with the exact end of the burst:
                # complete it; _pick_next will take the RT task
                self._complete_burst(core, victim)
                continue
            task = self.rt_rq.pop()
            assert task is nxt
            if victim is not None:
                if self._probe_on:
                    self._probe.preempt("rt", task, victim, core.index,
                                        task.rt_priority)
                self._switch_out(core, victim)
            # Start the RT task *before* re-enqueuing the victim:
            # otherwise the victim's placement can pick this very core
            # (momentarily idle) and be silently overwritten.
            self._start(core, task)
            if victim is not None:
                if victim.is_rt:
                    self.rt_rq.enqueue(victim)
                else:
                    self._enqueue_cfs(victim, wakeup=False)

    def _find_rt_target(self, priority: int) -> Optional[_Core]:
        """Idle core, else a CFS-running core, else a lower-prio RT core."""
        cfs_victim = None
        rt_victim = None
        for core in self.cores:
            if not self._rt_allowed(core):
                continue  # RT-throttled this period (sched_rt_runtime_us)
            if core.task is None:
                return core
            if core.task.policy is SchedPolicy.CFS:
                if cfs_victim is None:
                    cfs_victim = core
            elif core.task.rt_priority < priority and rt_victim is None:
                rt_victim = core
        return cfs_victim if cfs_victim is not None else rt_victim

    def _pick_next(self, core: _Core) -> None:
        assert core.task is None
        if self._inv_on:
            self._inv.on_runqueue(core.rq)
            self._inv.on_runqueue(self.rt_rq)
        task = None
        if self.rt_rq and self._rt_allowed(core):
            task = self.rt_rq.pop()
        if task is None:
            task = core.rq.pick_next()
        if task is None:
            task = self._steal_for(core)
        if task is not None:
            self._start(core, task)

    def _steal_for(self, core: _Core) -> Optional[Task]:
        """Idle balancing: pull the leftmost task of the busiest runqueue."""
        busiest = None
        busiest_len = 0
        for other in self.cores:
            if other is core:
                continue
            if len(other.rq) > busiest_len:
                busiest, busiest_len = other, len(other.rq)
        if busiest is None:
            return None
        task = busiest.rq.pick_next()
        assert task is not None
        if self._probe_on:
            self._probe.steal()
        return task

    def _start(self, core: _Core, task: Task) -> None:
        now = self.sim.now
        assert core.task is None, f"core {core.index} already running {core.task}"
        assert core.completion_handle is None
        assert core.slice_handle is None
        assert core.throttle_handle is None
        burst = task.current_burst
        assert burst is not None and burst.kind is BurstKind.CPU, (
            f"task {task.tid} started while not in a CPU burst"
        )
        self._begin_run(task)
        last = task.last_core
        migrated = last >= 0 and last != core.index
        if migrated:
            task.migrations += 1
        if self._probe_on:
            self._probe.run(task, core.index, last if migrated else -1)
        task.last_core = core.index
        task.core = core.index
        core.task = task
        # context-switch cost: the core spends `cost` us switching (kernel
        # path + cache refill) before the task makes progress
        cost = 0
        if core.last_tid is not None and core.last_tid != task.tid:
            cost = self.params.ctx_switch_cost
        core.last_tid = task.tid
        core.run_start = now + cost
        self._arm(core, task, cost)

    def _arm(self, core: _Core, task: Task, lead: int) -> None:
        """Arm the timers of ``task``, running on ``core`` from ``lead``
        us on: its completion (unless still armed), its fair slice or RR
        quantum, and its RT throttle.  The order is the tie-break order
        of timers that fire at one instant."""
        sim = self.sim
        if core.completion_handle is None:
            core.completion_handle = sim.schedule(
                lead + self._wall(task.burst_remaining), self._on_completion,
                core, task)
        policy = task.policy
        if policy is SchedPolicy.CFS:
            core.slice_handle = sim.schedule(
                lead + core.rq.timeslice_for(task), self._on_slice_expiry,
                core, task)
            return
        if policy is SchedPolicy.RR:
            core.slice_handle = sim.schedule(
                lead + self.params.rr_quantum, self._on_quantum, core, task)
        # FIFO: runs until it blocks, finishes, is re-classed or throttled
        budget = self._rt_budget(core)
        if budget is not None:
            core.throttle_handle = sim.schedule(
                lead + budget, self._on_rt_throttle, core, task)

    def _wall(self, service: int) -> int:
        """Wall-clock microseconds a straggler core needs for ``service``
        CPU microseconds (identity at nominal speed)."""
        if self._speed == 1.0:
            return service
        return int(math.ceil(service / self._speed))

    def _charge(self, core: _Core) -> bool:
        """Charge the running task for its time on ``core``; True when
        that used up its burst (it ended at exactly this instant)."""
        task = core.task
        assert task is not None
        # run_start may sit in the future while the switch cost is paid
        elapsed = max(0, self.sim.now - core.run_start)
        if elapsed > 0:
            if self._speed == 1.0:
                served = elapsed
            else:
                # A straggler converts wall time to service at rate
                # `speed`; the fractional residue is carried per task so
                # repeated charges never under-account and the burst is
                # exactly exhausted at its completion event.
                credit = elapsed * self._speed + task.svc_residue
                served = min(int(credit), task.burst_remaining)
                task.svc_residue = credit - served
            task.consume_cpu(served)
            if self._inv_on:
                self._inv.on_charge(task)
            self.busy_time += elapsed  # the core was occupied for the wall time
            if task.policy is SchedPolicy.CFS:
                core.rq.update_curr(task.vruntime)
            elif self.params.rt_bandwidth is not None:
                self._rt_budget(core)  # roll the period if needed
                core.rt_usage += elapsed
        # keep a future run_start (unfinished switch window) intact
        core.run_start = max(core.run_start, self.sim.now)
        return task.burst_remaining == 0

    def _switch_out(self, core: _Core, task: Task) -> None:
        """Take ``task`` off ``core`` mid-burst: an involuntary switch.
        The caller places the task and refills the core."""
        core.cancel_timers()
        task.ctx_involuntary += 1
        self._make_ready(task)
        core.task = None

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_slice_expiry(self, core: _Core, task: Task) -> None:
        assert core.task is task
        core.slice_handle = None
        if self._charge(core):
            # burst ended exactly at the slice boundary
            self._complete_burst(core, task)
            return
        if len(core.rq) > 0 or self.rt_rq:
            if self._probe_on:
                self._probe.slice_expiry(
                    f"{self.params.fair_class}:{core.index}", task,
                    core.index, len(core.rq))
            self._switch_out(core, task)
            core.rq.enqueue(task, wakeup=False)
            self._pick_next(core)
        else:
            core.slice_handle = self.sim.schedule(
                core.rq.timeslice_for(task), self._on_slice_expiry, core, task
            )

    def _on_quantum(self, core: _Core, task: Task) -> None:
        """SCHED_RR quantum expiry: rotate among equal-priority RT tasks."""
        assert core.task is task
        core.slice_handle = None
        if self._charge(core):
            self._complete_burst(core, task)
            return
        waiting = self.rt_rq.peek_priority()
        if waiting is not None and waiting >= task.rt_priority:
            if self._probe_on:
                self._probe.quantum(task, core.index, waiting)
            self._switch_out(core, task)
            self.rt_rq.enqueue(task)
            self._pick_next(core)
        else:
            core.slice_handle = self.sim.schedule(
                self.params.rr_quantum, self._on_quantum, core, task
            )

    def _on_completion(self, core: _Core, task: Task) -> None:
        assert core.task is task
        core.completion_handle = None
        ended = self._charge(core)
        assert ended
        self._complete_burst(core, task)

    def _complete_burst(self, core: _Core, task: Task) -> None:
        core.cancel_timers()
        nxt = task.advance_burst()
        if nxt is not None and nxt.kind is BurstKind.CPU:
            # back-to-back CPU burst: keep the core, restart timers
            core.run_start = self.sim.now
            self._arm(core, task, 0)
            return
        if self._probe_on:
            self._probe.burst_end(task, core.index, blocked=nxt is not None)
        core.task = None
        if nxt is None:
            # schedule the core before notifying user space: the finish
            # callback (e.g. SFS) may re-enter and dispatch new RT work
            self._pick_next(core)
            self._exit(task)
        else:
            self._block(task, nxt.duration)
            self._pick_next(core)

    def _on_rt_throttle(self, core: _Core, task: Task) -> None:
        """RT bandwidth exhausted (sched_rt_runtime_us): park the RT
        task until the next period so CFS gets its guaranteed share."""
        core.throttle_handle = None
        assert core.task is task and task.is_rt
        if self._charge(core):
            self._complete_burst(core, task)
            return
        _runtime, period = self.params.rt_bandwidth
        if self._probe_on:
            self._probe.throttle(task, core.index, period)
        self._switch_out(core, task)
        self.rt_rq.enqueue(task)
        # wake the dispatcher when the next period refills the budget
        next_period_start = (self.sim.now // period + 1) * period
        self.sim.schedule_at(next_period_start, self._on_rt_unthrottle)
        self._pick_next(core)  # CFS work runs in the throttled window

    def _on_rt_unthrottle(self) -> None:
        """A bandwidth period rolled over: waiting RT tasks may run."""
        self._dispatch_rt()

    def _demote_running(self, core: _Core, task: Task) -> None:
        """RT -> CFS while on CPU (SFS slice-expiry demotion)."""
        if self._probe_on:
            self._probe.reclass(task, core.index)
        self._switch_out(core, task)
        self._enqueue_cfs(task, wakeup=False)
        if core.task is None:
            self._pick_next(core)
        # Take the count back if the task immediately resumed on the
        # same core (then the kernel would not have switched at all).
        if core.task is task:
            task.ctx_involuntary -= 1
