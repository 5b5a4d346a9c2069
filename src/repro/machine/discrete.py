"""Faithful per-slice machine model.

Each core runs at most one task; CFS tasks live on per-core red-black
runqueues and are preempted on slice expiry; RT (FIFO/RR) tasks live on
a global RT runqueue and preempt CFS unconditionally.  Every context
switch, migration, block and wake is modelled exactly, so this engine
reproduces the paper's CFS pathology (short tasks waiting out whole
scheduling cycles) mechanism-by-mechanism.

This is the *reference* engine: exact, with every slice expiry at its
own instant and tie-break rank.  On the lazy path a core's CFS slice
rotation between two touches is a *plan* (:class:`_Plan`): run ahead
in locals when the slice is armed, with one heap event at its first
burst completion (or after :data:`_PLAN_SWITCHES` switches, where it
runs on), and settled in bulk when code touches the core
(:meth:`DiscreteMachine._settle`).  Its slices take the ranks their
literal timers would hold (:class:`repro.sim.engine.Chain`), so both
paths give the same run.  The per-slice path, an event per slice, is
taken whenever the probe or the invariant checker observes the run,
for EEVDF, straggler speed, the RT throttle, or while RT work waits.
The fluid engine (:mod:`repro.machine.fluid`) is validated against this
one and used for the large experiments.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, List, Optional, Sequence, Tuple

from repro.machine.base import MachineBase, MachineParams
from repro.sched.cfs import NICE_0_WEIGHT, CfsRunqueue
from repro.sched.rt import RTRunqueue
from repro.sim.engine import Chain, EventHandle, Position, Simulator
from repro.sim.task import BurstKind, SchedPolicy, Task, TaskState
from repro.trace import events as tev

#: slice switches one rotation plan runs before its heap event
_PLAN_SWITCHES = 16
#: slices of a lone task one plan runs before its heap event
_PLAN_LONE = 64

_READY, _RUNNING = TaskState.READY, TaskState.RUNNING


class _Core:
    __slots__ = (
        "index",
        "rq",
        "task",
        "run_start",
        "slice_handle",
        "completion_handle",
        "completion_at",
        "completion_rank",
        "completion_key",
        "throttle_handle",
        "last_tid",
        "rt_usage",
        "rt_period",
        "plan",
    )

    def __init__(self, index: int, rq: CfsRunqueue):
        self.index = index
        self.rq = rq
        self.task: Optional[Task] = None
        self.run_start: int = 0
        self.slice_handle: Optional[EventHandle] = None
        self.completion_handle: Optional[EventHandle] = None
        #: the running task's completion time and reserved tie-break
        #: rank while it waits off the heap (rank 0: none waiting)
        self.completion_at: int = 0
        self.completion_rank: Any = 0
        #: the key of a fractional completion rank (see Chain.armed)
        self.completion_key: Any = None
        self.throttle_handle: Optional[EventHandle] = None
        self.last_tid: Optional[int] = None
        # RT group bandwidth accounting (sched_rt_runtime_us)
        self.rt_usage: int = 0
        self.rt_period: int = -1
        #: the pending rotation plan of the running CFS task, if any
        self.plan: Optional[_Plan] = None

    def cancel_timers(self) -> None:
        if self.completion_handle is not None:
            self.completion_handle.cancel()
            self.completion_handle = None
        self.completion_rank = 0
        self.completion_key = None
        self.cancel_class_timers()

    def cancel_class_timers(self) -> None:
        """Cancel the slice/quantum and RT-throttle timers."""
        if self.slice_handle is not None:
            self.slice_handle.cancel()
            self.slice_handle = None
        if self.throttle_handle is not None:
            self.throttle_handle.cancel()
            self.throttle_handle = None


class _Plan(Chain):
    """A core's CFS rotation, run ahead from the arming of its running
    task's slice to its one heap event (see :class:`DiscreteMachine`).

    ``times`` are the slice expiries it passes.  A rotation (``order``
    set) records, per expiry, the index in ``tasks`` (the running task,
    then the queue leftmost first) of the task it picks, the key it
    re-enqueues the switched-out task with, and ``min_vruntime`` after
    it; a lone task's expiries only re-arm its slice."""

    __slots__ = ("machine", "core", "handle", "tasks", "order", "keys",
                 "minv", "state")

    def __init__(self, machine: "DiscreteMachine", core: _Core,
                 times: Sequence[int], rank: int):
        super().__init__(machine.sim, times, rank)
        self.machine = machine
        self.core = core
        self.handle: Optional[EventHandle] = None
        self.tasks = self.order = self.keys = self.minv = None
        #: a rotation's loop state at its heap event
        self.state: Optional[tuple] = None

    def settle(self, pos: Position) -> None:
        self.machine._settle(self.core, pos)


class DiscreteMachine(MachineBase):
    """Slice-exact multi-core machine (the reference engine)."""

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
        #: rotation plans stand in for the per-slice events when nothing
        #: observes a slice: no probe or checker, the CFS fair class,
        #: nominal speed and no RT throttle
        self._lazy = not (self._probe_on or self._inv_on) and (
            fc == "cfs" and self._speed == 1.0
            and self.params.rt_bandwidth is None)
        for core in self.cores:
            core.rq.hook = self._probe.runqueue_hook(f"{fc}:{core.index}", fc)
        self.rt_rq.hook = self._probe.runqueue_hook("rt", "rt")

    # ==================================================================
    # public API
    # ==================================================================
    def poll_state(self, task: Task) -> TaskState:
        self._touch_task(task)
        return task.state

    def _reclass(self, task: Task, policy: SchedPolicy, rt_priority: int) -> None:
        self._touch_task(task)
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
        self._touch_task(task)
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
        if core.plan is not None:
            self._settle(core, self.sim.position())
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
        """The first core with the fewest runnable tasks (running one
        included)."""
        best = None
        best_load = 0
        for core in self.cores:
            load = len(core.rq)
            if core.task is not None:
                load += 1
            if best is None or load < best_load:
                best, best_load = core, load
        return best

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
            if core.plan is not None:
                self._settle(core, self.sim.position())
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
            n = len(other.rq)
            if n > busiest_len:
                busiest, busiest_len = other, n
        if busiest is None:
            return None
        if busiest.plan is not None:
            self._settle(busiest, self.sim.position())
        task = busiest.rq.pick_next()
        assert task is not None
        if self._probe_on:
            self._probe.steal()
        return task

    def _start(self, core: _Core, task: Task) -> None:
        now = self.sim.now
        assert core.task is None, f"core {core.index} already running {core.task}"
        assert core.completion_handle is None and not core.completion_rank
        assert core.slice_handle is None and core.plan is None
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
        of timers that fire at one instant.

        The completion only reserves its rank here and goes on the heap
        once it is due (:meth:`_push_completion`): most slices end in a
        preemption, which would cancel it unfired."""
        sim = self.sim
        if core.completion_handle is None and not core.completion_rank:
            core.completion_at = (sim.now + lead
                                  + self._wall(task.burst_remaining))
            core.completion_rank = sim.reserve(1)
        policy = task.policy
        if policy is SchedPolicy.CFS:
            self._arm_slice(core, task,
                            sim.now + lead + core.rq.timeslice_for(task))
            return
        if policy is SchedPolicy.RR:
            core.slice_handle = sim.schedule(
                lead + self.params.rr_quantum, self._on_quantum, core, task)
        # FIFO: runs until it blocks, finishes, is re-classed or throttled
        budget = self._rt_budget(core)
        if budget is not None:
            core.throttle_handle = sim.schedule(
                lead + budget, self._on_rt_throttle, core, task)
        if core.completion_rank:
            self._push_completion(core, task)

    def _arm_slice(self, core: _Core, task: Task, at: int) -> None:
        """Arm the fair slice of ``task`` expiring at ``at``, and its
        completion if due first; on the lazy path, plan the rotation
        from there instead (unless a settled lone plan left the
        completion on the heap)."""
        if (self._lazy and core.completion_at > at
                and core.completion_handle is None and not self.rt_rq):
            self._plan(core, task, at)
            return
        core.slice_handle = self.sim.schedule_at(
            at, self._on_slice_expiry, core, task)
        if core.completion_rank:
            self._push_completion(core, task)

    def _push_completion(self, core: _Core, task: Task) -> None:
        """Put the reserved completion of ``task`` on the heap if no
        class timer of it fires first.  The completion's rank is older
        than every class timer's, so it fires first on a tie; the class
        timer that does fire first re-checks here when it re-arms, and
        drops the reservation otherwise (:meth:`_Core.cancel_timers`)."""
        at = core.completion_at
        timer = core.slice_handle
        if timer is not None and timer.time < at:
            return
        timer = core.throttle_handle
        if timer is not None and timer.time < at:
            return
        core.completion_handle = self.sim.schedule_ranked(
            core.completion_rank, at, self._on_completion, core, task,
            key=core.completion_key)
        core.completion_rank = 0
        core.completion_key = None

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
        # run_start may sit in the future while the switch cost is paid;
        # it is then kept (an unfinished switch window)
        now = self.sim.now
        elapsed = now - core.run_start
        if elapsed > 0:
            core.run_start = now
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
        return task.burst_remaining == 0

    def _switch_out(self, core: _Core, task: Task) -> None:
        """Take ``task`` off ``core`` mid-burst: an involuntary switch.
        The caller places the task and refills the core."""
        core.cancel_timers()
        task.ctx_involuntary += 1
        self._make_ready(task)
        core.task = None

    # ------------------------------------------------------------------
    # rotation plans (the lazy path)
    # ------------------------------------------------------------------
    def _plan(self, core: _Core, task: Task, at: int) -> None:
        """Run the rotation of ``core`` ahead from the slice of ``task``
        expiring at ``at`` (before its completion) to its first burst
        completion, or its first slice expiry past the plan's bound, and
        put that one event on the heap.  Nothing touches the core before
        then, or it settles the plan first (:meth:`_settle`)."""
        sim = self.sim
        rq = core.rq
        rank = sim.reserve(1)  # the rank of the literal slice timer
        comp = core.completion_at
        if not rq:
            step = rq.timeslice_for(task)
            n = (comp - at - 1) // step + 1  # the expiries before comp
            plan = _Plan(self, core, range(
                at, at + min(n, _PLAN_LONE) * step, step), rank)
            if n <= _PLAN_LONE:
                plan.end = None  # the completion, at its reserved rank
                plan.handle = sim.schedule_ranked(
                    core.completion_rank, comp, self._on_plan_end, core,
                    key=core.completion_key)
            else:
                plan.end = (_PLAN_LONE - 1, 1)
                plan.handle = sim.schedule_chained(
                    plan, at + _PLAN_LONE * step, self._on_plan_end, core)
        else:
            plan = self._plan_rotation(core, task, at, rank)
        core.plan = plan
        sim.add_chain(plan)

    def _plan_rotation(self, core: _Core, task: Task, at: int,
                       rank: int) -> _Plan:
        """:meth:`_plan` with tasks queued."""
        rq = core.rq
        keyed = rq.keyed()
        tasks = [task] + [t for _key, t in keyed]
        weight = [t.weight for t in tasks]
        total = rq.total_weight + task.weight
        cfs = rq.params
        slices = []
        for w in weight:  # as timeslice_for, with the task on CPU
            share = cfs.sched_latency * w // max(total - w + NICE_0_WEIGHT, 1)
            slices.append(max(share, cfs.min_granularity))
        plan = _Plan(self, core, [], rank)
        plan.tasks, plan.order, plan.keys, plan.minv = tasks, [], [], []
        plan.state = (
            [(key[0], key[1], i) for i, (key, _t) in enumerate(keyed, 1)],
            [t.burst_remaining for t in tasks],
            [t.vruntime for t in tasks], weight, slices,
            [t.tid for t in tasks],
            rq.min_vruntime, rq._seq, core.last_tid, 0, core.run_start, at)
        self._roll(plan)
        return plan

    def _roll(self, plan: _Plan) -> None:
        """Run the rotation of ``plan`` on from its next slice expiry:
        each expiry charges the running task, re-enqueues it (as
        :meth:`CfsRunqueue.enqueue` without wakeup) and starts the
        leftmost task (as :meth:`CfsRunqueue.pick_next` and
        :meth:`_start`), in locals, until a burst completes or
        :data:`_PLAN_SWITCHES` expiries have passed; the event after the
        last goes on the heap."""
        (heap, rem, vrun, weight, slices, tids, min_v, seq, last, cur,
         run_start, t) = plan.state
        times, order, keys, minv = plan.times, plan.order, plan.keys, plan.minv
        ctx = self.params.ctx_switch_cost
        for _ in range(_PLAN_SWITCHES):
            elapsed = t - run_start
            rem[cur] -= elapsed
            v = vrun[cur] + elapsed * NICE_0_WEIGHT // weight[cur]
            left = heap[0][0]
            low = v if v < left else left
            if low > min_v:
                min_v = low
            if v < min_v:
                v = min_v
            vrun[cur] = v
            keys.append((v, seq))
            v, _seq, cur = heapq.heappushpop(heap, (v, seq, cur))
            seq += 1
            left = heap[0][0]
            low = v if v < left else left
            if low > min_v:
                min_v = low
            times.append(t)
            order.append(cur)
            minv.append(min_v)
            tid = tids[cur]
            run_start = t + (ctx if last != tid else 0)
            last = tid
            comp = run_start + rem[cur]
            t = run_start + slices[cur]
            if comp <= t:
                plan.end = (len(times) - 1, 0)
                t = comp
                break
        else:
            plan.end = (len(times) - 1, 1)
        plan.state = (heap, rem, vrun, weight, slices, tids, min_v, seq,
                      last, cur, run_start, t)
        plan.key = ()
        plan.handle = self.sim.schedule_chained(plan, t, self._on_plan_end,
                                                plan.core)

    def _apply(self, core: _Core, plan: _Plan, m: int) -> None:
        """Apply the first ``m`` expiries of ``plan`` to the core, its
        runqueue and its tasks, as the per-slice path leaves them, and
        drop the plan."""
        core.plan = None
        self.sim.drop_chain(plan, m)
        tasks, order, keys, minv = plan.tasks, plan.order, plan.keys, plan.minv
        # keep only what later rank ties read: times, ranks, positions
        plan.handle = plan.tasks = plan.order = plan.keys = None
        plan.minv = plan.state = None
        if not m:
            return
        task = core.task
        t = plan.times[m - 1]
        if order is None:
            elapsed = t - core.run_start
            if task.weight == NICE_0_WEIGHT:
                task.consume_cpu(elapsed)
            else:  # the vruntime is rounded at each charge
                start = core.run_start
                for at in plan.times[:m]:
                    task.consume_cpu(at - start)
                    start = at
            core.run_start = t
            self.busy_time += elapsed
            core.rq.update_curr(task.vruntime)
            return
        queued = [None] + [key for key, _t in core.rq.keyed()]
        idx = core.index
        ctx = self.params.ctx_switch_cost
        run_start, last = core.run_start, core.last_tid
        busy = 0
        cur = 0
        for k in range(m):
            t = plan.times[k]
            x = tasks[cur]
            elapsed = t - run_start
            x.burst_remaining -= elapsed  # as consume_cpu; the plan
            x.cpu_time += elapsed  # left the burst unfinished
            busy += elapsed
            x.ctx_involuntary += 1
            x.state = _READY
            x.since = t
            key = keys[k]
            x.vruntime = key[0]
            queued[cur] = key
            cur = order[k]
            y = tasks[cur]
            y.wait_time += t - y.since
            y.since = t
            if y.first_run_time is None:
                y.first_run_time = t
            y.state = _RUNNING
            if y.last_core >= 0 and y.last_core != idx:
                y.migrations += 1
            y.last_core = idx
            run_start = t + (ctx if last != y.tid else 0)
            last = y.tid
        core.rq.rotated([(key, tasks[i]) for i, key in enumerate(queued)
                         if i != cur], m, minv[m - 1])
        self.busy_time += busy
        task = core.task = tasks[cur]
        core.last_tid = last
        core.run_start = run_start
        core.completion_at = run_start + task.burst_remaining
        core.completion_rank, core.completion_key = plan.armed(
            m - 1, core.completion_at, 0)

    def _settle(self, core: _Core, pos: Position) -> None:
        """Apply the expiries of the plan of ``core`` before ``pos`` and
        arm the running task's timers as the per-slice path holds them
        there: a touch of the core is about to read or change it."""
        plan = core.plan
        handle = plan.handle
        m = plan.count_before(pos)
        self._apply(core, plan, m)
        task = core.task
        at = core.run_start + core.rq.timeslice_for(task)
        if m:
            rank, key = plan.armed(m - 1, at, 1)
        else:
            rank, key = plan.ranks[0], None
        core.slice_handle = self.sim.schedule_ranked(
            rank, at, self._on_slice_expiry, core, task, key=key)
        if plan.end is not None:
            handle.cancel()
            if core.completion_rank:
                self._push_completion(core, task)
        else:  # a lone task's plan ends at its completion: keep it
            handle.callback, handle.args = self._on_completion, (core, task)
            core.completion_handle = handle
            core.completion_rank = 0
            core.completion_key = None

    def _touch_task(self, task: Task) -> None:
        """Settle the plan ``task`` rotates in, if any."""
        if task.core >= 0:
            core = self.cores[task.core]
            if core.plan is not None and (core.task is task
                                          or task in core.rq):
                self._settle(core, self.sim.position())

    def _on_plan_end(self, core: _Core) -> None:
        """A plan's one heap event: the burst completion or slice expiry
        after its last expiry."""
        plan = core.plan
        if plan.state is not None and plan.end[1]:
            plan.fired += 1  # this expiry is the plan's next one
            self._roll(plan)
            return
        self._apply(core, plan, len(plan.times))
        task = core.task
        if core.completion_at == self.sim.now:
            self._charge(core)
            self._complete_burst(core, task)
        else:
            self._on_slice_expiry(core, task)

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
            self._arm_slice(core, task,
                            self.sim.now + core.rq.timeslice_for(task))

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
            if core.completion_rank:
                self._push_completion(core, task)

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
