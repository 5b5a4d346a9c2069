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
from typing import List, Optional

from repro.machine.base import MachineBase, MachineParams
from repro.obs.profiler import perf_counter
from repro.sched.cfs import CfsRunqueue
from repro.sched.rt import RTRunqueue
from repro.sim.engine import EventHandle, Simulator
from repro.sim.task import Burst, BurstKind, SchedPolicy, Task, TaskState
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
        if self.slice_handle is not None:
            self.slice_handle.cancel()
            self.slice_handle = None
        if self.completion_handle is not None:
            self.completion_handle.cancel()
            self.completion_handle = None
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
        prof = sim.metrics.profiler
        if prof is not None:
            # shadow the bound method so the nominal path stays untouched
            impl = self._pick_next

            def timed_pick(core: _Core) -> None:
                t0 = perf_counter()
                impl(core)
                prof.add("discrete.pick_next", perf_counter() - t0)

            self._pick_next = timed_pick  # type: ignore[method-assign]

    # ==================================================================
    # public API
    # ==================================================================
    def spawn(self, task: Task) -> None:
        if task.state is not TaskState.CREATED:
            raise RuntimeError(f"task {task.tid} already spawned")
        task.dispatch_time = self.sim.now
        self.tasks_spawned += 1
        task._last_run_core = None  # type: ignore[attr-defined]
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
            self._enqueue_ready(task, wakeup=False)

    def set_policy(self, task: Task, policy: SchedPolicy, rt_priority: int = 1) -> None:
        if task.state is TaskState.FINISHED:
            return
        rt_priority = rt_priority if policy is not SchedPolicy.CFS else 0
        if task.policy is policy and task.rt_priority == rt_priority:
            return
        if self._probe_on:
            self._probe.set_policy(task, policy, rt_priority)
        old_policy = task.policy
        state = task.state

        if state is TaskState.RUNNING:
            core = self.cores[task._run_core]  # type: ignore[attr-defined]
            assert core.task is task
            self._charge(core)
            task.rt_priority = rt_priority
            task.record_policy_change(self.sim.now, policy)
            if policy is SchedPolicy.CFS and old_policy is not SchedPolicy.CFS:
                if task.burst_remaining == 0:
                    # the demotion raced with the burst's exact end
                    self._complete_burst(core, task)
                    return
                self._demote_running(core, task)
            else:
                # CFS->RT promotion (or FIFO<->RR): keep running, fix timers
                if core.slice_handle is not None:
                    core.slice_handle.cancel()
                    core.slice_handle = None
                if policy is SchedPolicy.RR:
                    core.slice_handle = self.sim.schedule(
                        self.params.rr_quantum, self._on_quantum, core, task
                    )
        elif state is TaskState.READY:
            # move between runqueues
            if old_policy is SchedPolicy.CFS:
                rq = self.cores[task._rq_core].rq  # type: ignore[attr-defined]
                rq.dequeue(task)
            else:
                self.rt_rq.remove(task)
            task.rt_priority = rt_priority
            task.record_policy_change(self.sim.now, policy)
            self._enqueue_ready(task, wakeup=False)
        else:  # CREATED / BLOCKED: takes effect at wake
            task.rt_priority = rt_priority
            task.record_policy_change(self.sim.now, policy)

    def kill(self, task: Task, reason: str = "crash") -> bool:
        if task.state is TaskState.FINISHED:
            return False
        if task.state is TaskState.RUNNING:
            core = self.cores[task._run_core]  # type: ignore[attr-defined]
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
                self.cores[task._rq_core].rq.dequeue(task)  # type: ignore[attr-defined]
        elif task.state is TaskState.BLOCKED:
            handle = getattr(task, "_io_handle", None)
            if handle is not None:
                handle.cancel()
                task._io_handle = None  # type: ignore[attr-defined]
        if self._probe_on:
            self._probe.kill(task, reason)
        self._finish_killed(task, reason)
        return True

    def idle_cores(self) -> int:
        return sum(1 for c in self.cores if c.task is None)

    def runnable_count(self) -> int:
        return sum(len(c.rq) for c in self.cores) + len(self.rt_rq)

    def sample_gauges(self, probe, now: int) -> None:
        super().sample_gauges(probe, now)
        for core in self.cores:
            probe.gauge(now, tev.GAUGE_RUNQUEUE, len(core.rq), core.index)
        probe.gauge(now, tev.GAUGE_RT_QUEUE, len(self.rt_rq))

    # ==================================================================
    # internals
    # ==================================================================
    def _make_ready(self, task: Task) -> None:
        task.state = TaskState.READY
        task._ready_since = self.sim.now  # type: ignore[attr-defined]

    def _enqueue_ready(self, task: Task, wakeup: bool) -> None:
        if task.is_rt:
            self.rt_rq.enqueue(task)
            self._dispatch_rt()
        else:
            self._enqueue_cfs(task, wakeup)

    def _enqueue_cfs(self, task: Task, wakeup: bool) -> None:
        core = self._least_loaded_core()
        task._rq_core = core.index  # type: ignore[attr-defined]
        core.rq.enqueue(task, wakeup=wakeup)
        if core.task is None:
            self._pick_next(core)
        elif (
            wakeup
            and core.task.policy is SchedPolicy.CFS
            and core.rq.should_preempt(task, core.task)
        ):
            victim = core.task
            self._charge(core)
            if victim.burst_remaining == 0:
                self._complete_burst(core, victim)
                return
            core.cancel_timers()
            victim.ctx_involuntary += 1
            if self._probe_on:
                self._probe.preempt(f"{self.params.fair_class}:{core.index}",
                                    task, victim, core.index)
            self._make_ready(victim)
            core.task = None
            victim._rq_core = core.index  # type: ignore[attr-defined]
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
            if victim is not None:
                self._charge(core)
                if victim.burst_remaining == 0:
                    # preemption raced with the exact end of the burst:
                    # complete it; _pick_next will take the RT task
                    self._complete_burst(core, victim)
                    continue
            task = self.rt_rq.pop()
            assert task is nxt
            if victim is not None:
                core.cancel_timers()
                victim.ctx_involuntary += 1
                if self._probe_on:
                    self._probe.preempt("rt", task, victim, core.index,
                                        task.rt_priority)
                self._make_ready(victim)
                core.task = None
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
        assert core.slice_handle is None or core.slice_handle.cancelled
        assert core.completion_handle is None or core.completion_handle.cancelled
        burst = task.current_burst
        assert burst is not None and burst.kind is BurstKind.CPU, (
            f"task {task.tid} started while not in a CPU burst"
        )
        ready_since = getattr(task, "_ready_since", now)
        task.wait_time += now - ready_since
        if task.first_run_time is None:
            task.first_run_time = now
        last = getattr(task, "_last_run_core", None)
        migrated = last is not None and last != core.index
        if migrated:
            task.migrations += 1
        if self._probe_on:
            self._probe.run(task, core.index, last if migrated else -1)
        task._last_run_core = core.index  # type: ignore[attr-defined]
        task._run_core = core.index  # type: ignore[attr-defined]
        task.state = TaskState.RUNNING
        core.task = task
        # context-switch cost: the core spends `cost` us switching (kernel
        # path + cache refill) before the task makes progress
        cost = 0
        if core.last_tid is not None and core.last_tid != task.tid:
            cost = self.params.ctx_switch_cost
        core.last_tid = task.tid
        core.run_start = now + cost
        core.completion_handle = self.sim.schedule(
            cost + self._wall(task.burst_remaining), self._on_completion, core, task
        )
        if task.policy is SchedPolicy.CFS:
            core.slice_handle = self.sim.schedule(
                cost + core.rq.timeslice_for(task), self._on_slice_expiry, core, task
            )
        elif task.policy is SchedPolicy.RR:
            core.slice_handle = self.sim.schedule(
                cost + self.params.rr_quantum, self._on_quantum, core, task
            )
        else:  # FIFO: runs until it blocks, finishes, or is re-classed
            core.slice_handle = None
        if task.is_rt:
            budget = self._rt_budget(core)
            if budget is not None:
                core.throttle_handle = self.sim.schedule(
                    cost + budget, self._on_rt_throttle, core, task
                )

    def _wall(self, service: int) -> int:
        """Wall-clock microseconds a straggler core needs for ``service``
        CPU microseconds (identity at nominal speed)."""
        if self._speed == 1.0:
            return service
        return int(math.ceil(service / self._speed))

    def _charge(self, core: _Core) -> None:
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
                credit = elapsed * self._speed + getattr(task, "_svc_residue", 0.0)
                served = min(int(credit), task.burst_remaining)
                task._svc_residue = credit - served  # type: ignore[attr-defined]
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

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_slice_expiry(self, core: _Core, task: Task) -> None:
        assert core.task is task
        core.slice_handle = None
        self._charge(core)
        if task.burst_remaining == 0:
            # burst ended exactly at the slice boundary
            self._complete_burst(core, task)
            return
        if len(core.rq) > 0 or self.rt_rq:
            task.ctx_involuntary += 1
            if core.completion_handle is not None:
                core.completion_handle.cancel()
                core.completion_handle = None
            if self._probe_on:
                self._probe.slice_expiry(
                    f"{self.params.fair_class}:{core.index}", task,
                    core.index, len(core.rq))
            self._make_ready(task)
            core.task = None
            task._rq_core = core.index  # type: ignore[attr-defined]
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
        self._charge(core)
        if task.burst_remaining == 0:
            self._complete_burst(core, task)
            return
        waiting = self.rt_rq.peek_priority()
        if waiting is not None and waiting >= task.rt_priority:
            task.ctx_involuntary += 1
            if core.completion_handle is not None:
                core.completion_handle.cancel()
                core.completion_handle = None
            if self._probe_on:
                self._probe.quantum(task, core.index, waiting)
            self._make_ready(task)
            core.task = None
            self.rt_rq.enqueue(task)
            self._pick_next(core)
        else:
            core.slice_handle = self.sim.schedule(
                self.params.rr_quantum, self._on_quantum, core, task
            )

    def _on_completion(self, core: _Core, task: Task) -> None:
        assert core.task is task
        core.completion_handle = None
        self._charge(core)
        assert task.burst_remaining == 0
        self._complete_burst(core, task)

    def _complete_burst(self, core: _Core, task: Task) -> None:
        core.cancel_timers()
        nxt = task.advance_burst()
        if self._probe_on and (nxt is None or nxt.kind is BurstKind.IO):
            self._probe.burst_end(task, core.index, blocked=nxt is not None)
        if nxt is None:
            task.state = TaskState.FINISHED
            task.finish_time = self.sim.now
            core.task = None
            # schedule the core before notifying user space: the finish
            # callback (e.g. SFS) may re-enter and dispatch new RT work
            self._pick_next(core)
            self._notify_finish(task)
        elif nxt.kind is BurstKind.IO:
            task.state = TaskState.BLOCKED
            task.ctx_voluntary += 1
            core.task = None
            task._io_handle = self.sim.schedule(  # type: ignore[attr-defined]
                nxt.duration, self._on_io_done, task, nxt.duration
            )
            self._pick_next(core)
        else:  # back-to-back CPU burst: keep the core, restart timers
            core.run_start = self.sim.now
            core.completion_handle = self.sim.schedule(
                self._wall(task.burst_remaining), self._on_completion, core, task
            )
            if task.policy is SchedPolicy.CFS:
                core.slice_handle = self.sim.schedule(
                    core.rq.timeslice_for(task), self._on_slice_expiry, core, task
                )
            elif task.policy is SchedPolicy.RR:
                core.slice_handle = self.sim.schedule(
                    self.params.rr_quantum, self._on_quantum, core, task
                )

    def _on_io_done(self, task: Task, duration: int) -> None:
        task._io_handle = None  # type: ignore[attr-defined]
        nxt = task.complete_io()
        if nxt is None:
            task.state = TaskState.FINISHED
            task.finish_time = self.sim.now
            self._notify_finish(task)
            return
        assert nxt.kind is BurstKind.CPU, "consecutive I/O bursts must be merged"
        if self._probe_on:
            self._probe.wake(task)
        self._make_ready(task)
        self._enqueue_ready(task, wakeup=True)

    def _on_rt_throttle(self, core: _Core, task: Task) -> None:
        """RT bandwidth exhausted (sched_rt_runtime_us): park the RT
        task until the next period so CFS gets its guaranteed share."""
        core.throttle_handle = None
        assert core.task is task and task.is_rt
        self._charge(core)
        if task.burst_remaining == 0:
            self._complete_burst(core, task)
            return
        _runtime, period = self.params.rt_bandwidth
        task.ctx_involuntary += 1
        core.cancel_timers()
        if self._probe_on:
            self._probe.throttle(task, core.index, period)
        self._make_ready(task)
        core.task = None
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
        core.cancel_timers()
        if self._probe_on:
            self._probe.reclass(task, core.index)
        self._make_ready(task)
        core.task = None
        self._enqueue_cfs(task, wakeup=False)
        if core.task is None:
            self._pick_next(core)
        # Count the switch unless the task immediately resumed on the
        # same core (then the kernel would not have switched at all).
        if not (
            task.state is TaskState.RUNNING
            and getattr(task, "_run_core", None) == core.index
        ):
            task.ctx_involuntary += 1
