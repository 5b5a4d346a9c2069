"""Processor-sharing (fluid) machine model.

At millisecond granularity, CFS with equal weights makes every runnable
task progress at the same *rate* ``r = min(1, free_cores / n_runnable)``
— that is exactly the fairness CFS's slicing converges to within one
``sched_latency`` period.  This engine integrates that fluid limit in
closed form:

* a single global service ``credit(t) = ∫ r dt`` advances for the whole
  CFS pool; a task that entered with ``R`` microseconds of CPU burst
  left finishes when ``credit`` reaches ``entry_credit + R``;
* RT (FIFO) tasks each occupy a whole core at rate 1, shrinking
  ``free_cores``; RR among equal priorities *is* processor sharing, so
  ``SCHED_RR`` tasks are folded into the same pool with the RR quantum
  as the slice;
* context switches cannot be observed directly in a fluid model, so we
  integrate the expected switch rate ``r / slice(t)`` with
  ``slice(t) = max(sched_latency / per_core_contention, min_granularity)``
  — the same rule the discrete engine executes literally.

Every event is O(log n); the engine is validated against
:class:`repro.machine.discrete.DiscreteMachine` by the test suite
(turnaround agreement within one scheduling latency per preemption).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Optional, Tuple

from repro.machine.base import MachineBase, MachineParams
from repro.sched.rt import RTRunqueue
from repro.sim.engine import EventHandle, Simulator
from repro.sim.task import BurstKind, SchedPolicy, Task, TaskState
from repro.trace import events as tev

_EPS = 1e-6


class FluidMachine(MachineBase):
    """Closed-form processor-sharing engine (fast, validated)."""

    def __init__(self, sim: Simulator, params: Optional[MachineParams] = None):
        super().__init__(sim, params)
        #: straggler speed factor; the == 1.0 guard keeps the nominal
        #: path on exact integer arithmetic (bit-identical runs)
        self._speed = self.params.speed
        # --- CFS/RR fluid pool ---
        self._pool: dict[int, Task] = {}           # tid -> task
        # SCHED_RR tasks in the pool; a task's policy is fixed for its
        # whole stay (_reclass takes it out first)
        self._pool_rr = 0
        self._heap: list[tuple[float, int, Task]] = []  # (target credit, seq, task)
        self._seq = itertools.count()
        self._credit: float = 0.0                   # global service credit
        self._cs_credit: float = 0.0                # integrated switch rate
        self._last_update: int = 0
        self._busy_float: float = 0.0
        self._pool_event: Optional[EventHandle] = None
        # --- RT (FIFO) side ---
        self.rt_wait = RTRunqueue()
        self._rt_running: dict[int, Task] = {}      # tid -> task
        # --- tracing only: stable virtual core slots for RT tasks ---
        # (the fluid model has no real core assignment; slots give the
        # Chrome exporter per-core tracks for dedicated/FILTER tasks)
        self._free_slots: list[int] = list(range(self.n_cores))
        self._probe.register("fluid")
        self.rt_wait.hook = self._probe.runqueue_hook("rt", "rt")

    # ==================================================================
    # public API
    # ==================================================================
    def _reclass(self, task: Task, policy: SchedPolicy, rt_priority: int) -> None:
        core: Optional[int] = None  # set when the change takes it off CPU
        served: Optional[int] = None  # CPU credit of a pool stay
        if task.tid in self._pool:
            served = self._leave_pool(task)
            core = -1
        elif task.tid in self._rt_running:
            core = self._stop_rt(task, involuntary=True)
        else:  # READY non-dedicated tasks are in the pool, handled above
            self.rt_wait.remove(task)
        if core is not None:
            if self._probe_on:
                self._probe.reclass(task, core, served)
            self._make_ready(task)
        task.rt_priority = rt_priority
        task.record_policy_change(self.sim.now, policy)
        self._enqueue(task, wakeup=False)
        self._dispatch_rt()

    def kill(self, task: Task, reason: str = "crash") -> bool:
        if task.state is TaskState.FINISHED:
            return False
        core = -1  # trace core of a dedicated CPU
        served: Optional[int] = None  # CPU credit of a pool stay
        off: Optional[str] = tev.DESCHED_KILL  # None unless on a CPU
        if task.tid in self._pool:
            served = self._leave_pool(task)
        elif task.tid in self._rt_running:
            core = self._stop_rt(task, involuntary=False)
        else:
            off = None
            if task.state is TaskState.READY and self._is_dedicated(task.policy):
                self.rt_wait.remove(task)
        if self._probe_on:
            self._probe.kill(task, reason, core, off, served)
        self._finish_killed(task, reason)
        self._dispatch_rt()  # a freed core may admit waiting RT work
        return True

    def idle_cores(self) -> int:
        free = self.n_cores - len(self._rt_running)
        return max(0, free - len(self._pool))

    def runnable_count(self) -> int:
        free = max(0, self.n_cores - len(self._rt_running))
        queued_pool = max(0, len(self._pool) - free)
        return len(self.rt_wait) + queued_pool

    def gauge_keys(self) -> Tuple[Tuple[str, int], ...]:
        return super().gauge_keys() + (
            (tev.GAUGE_POOL, -1), (tev.GAUGE_RT_RUNNING, -1),
            (tev.GAUGE_RT_QUEUE, -1))

    def gauge_values(self, out: list) -> None:
        super().gauge_values(out)
        out.extend((len(self._pool), len(self._rt_running),
                    len(self.rt_wait)))

    # ==================================================================
    # pool (CFS + RR-as-sharing) mechanics
    # ==================================================================
    @staticmethod
    def _is_dedicated(policy: SchedPolicy) -> bool:
        """Does this policy get a dedicated core (rate 1)?  SCHED_RR
        shares the pool (see module doc)."""
        return policy is SchedPolicy.FIFO

    def _free_cores(self) -> int:
        return max(0, self.n_cores - len(self._rt_running))

    def _rate(self) -> float:
        n = len(self._pool)
        if n == 0:
            return 0.0
        raw = min(1.0, self._free_cores() / n) * self._speed
        cost = self.params.ctx_switch_cost
        if cost > 0 and raw > 0:
            # each slice of useful work pays one switch: the pool's
            # effective rate shrinks by slice/(slice + cost)
            sr = self._slice_rate()  # expected switches per us of service
            raw /= 1.0 + cost * sr
        return raw

    def _slice_rate(self) -> float:
        """Expected context switches per microsecond of *service*."""
        n = len(self._pool)
        free = self._free_cores()
        if n == 0 or free <= 0:
            return 0.0
        contention = n / free
        if contention <= 1.0:
            return 0.0  # a core each: no involuntary switching
        if self._pool_rr:
            return 1.0 / self.params.rr_quantum
        cfs = self.params.cfs
        return 1.0 / max(cfs.sched_latency / contention, cfs.min_granularity)

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        if dt <= 0:
            return
        r = self._rate()
        self._credit += r * dt
        self._cs_credit += r * dt * self._slice_rate()
        pool_usage = min(len(self._pool), self._free_cores())
        self._busy_float += dt * (pool_usage + len(self._rt_running))
        self.busy_time = int(self._busy_float)
        self._last_update = now

    def _enqueue(self, task: Task, wakeup: bool) -> None:
        if self._is_dedicated(task.policy):
            self.rt_wait.enqueue(task)
            self._dispatch_rt()
        else:
            self._enter_pool(task)

    def _enter_pool(self, task: Task) -> None:
        self._advance()
        burst = task.current_burst
        assert burst is not None and burst.kind is BurstKind.CPU
        target = self._credit + task.burst_remaining
        task.pool_target = target
        task.pool_credit = self._credit
        task.pool_cs = self._cs_credit
        # In the fluid limit the task is immediately time-sharing the CPU.
        self._begin_run(task)
        self._pool[task.tid] = task
        if task.policy is SchedPolicy.RR:
            self._pool_rr += 1
        if self._probe_on:
            self._probe.pool_enter(task, len(self._pool))
        heapq.heappush(self._heap, (target, next(self._seq), task))
        self._reschedule_pool_event()

    def _leave_pool(self, task: Task) -> int:
        """Take a task out of the pool before its burst completes
        (re-class or kill), charging the service it received.  Returns
        the stay's CPU credit (see :meth:`_charge_pool`)."""
        self._advance()
        assert task.tid in self._pool
        del self._pool[task.tid]
        if task.policy is SchedPolicy.RR:
            self._pool_rr -= 1
        served = int(round(self._credit - task.pool_credit))
        credit = self._charge_pool(
            task, max(0, min(served, task.burst_remaining - 1)))
        self._reschedule_pool_event()
        return credit

    def _charge_pool(self, task: Task, served: int) -> int:
        """Charge a pool stay: ``served`` CPU us, the rest as wait.

        Returns the stay's CPU credit ``c``: of the stay's ``D`` us, ``c``
        ran and ``D - c`` waited on the shared cores.  The probe carries
        it on the ``task.deschedule`` that ends the stay, so
        :mod:`repro.why` splits the stay exactly as charged here."""
        task.consume_cpu(served)
        if self._inv_on:
            self._inv.on_charge(task)
        elapsed = self.sim.now - task.since
        task.wait_time += max(0, elapsed - served)
        # fold the integrated switch-rate estimate into whole switches
        cs = task.cs_residue
        cs += self._cs_credit - task.pool_cs
        whole = int(cs)
        task.ctx_involuntary += whole
        task.cs_residue = cs - whole
        return min(served, elapsed)

    def _reschedule_pool_event(self) -> None:
        if self._pool_event is not None:
            self._pool_event.cancel()
            self._pool_event = None
        # drop dead heap heads
        while self._heap and self._heap[0][2].tid not in self._pool:
            heapq.heappop(self._heap)
        while self._heap and self._heap[0][2].pool_target != self._heap[0][0]:
            heapq.heappop(self._heap)
        if not self._heap:
            return
        r = self._rate()
        if r <= 0.0:
            return  # pool frozen: all cores held by FIFO tasks
        target = self._heap[0][0]
        dt = (target - self._credit) / r
        delay = max(0, int(math.ceil(dt - _EPS)))
        self._pool_event = self.sim.schedule(delay, self._on_pool_completion)

    def _on_pool_completion(self) -> None:
        self._pool_event = None
        self._advance()
        finished: list[Task] = []
        while self._heap and self._heap[0][0] <= self._credit + _EPS:
            _target, _seq, task = heapq.heappop(self._heap)
            if task.tid not in self._pool or task.pool_target != _target:
                continue  # stale entry
            del self._pool[task.tid]
            if task.policy is SchedPolicy.RR:
                self._pool_rr -= 1
            finished.append(task)
        for task in finished:
            served = self._charge_pool(task, task.burst_remaining)
            self._end_burst(task, -1, served)
        if self._inv_on:
            self._inv.on_fluid_pool(self)
        self._reschedule_pool_event()

    # ==================================================================
    # RT (dedicated-core) mechanics
    # ==================================================================
    def _dispatch_rt(self) -> None:
        if self._inv_on:
            self._inv.on_runqueue(self.rt_wait)
        while True:
            nxt = self.rt_wait.peek()
            if nxt is None:
                return
            if len(self._rt_running) < self.n_cores:
                task = self.rt_wait.pop()
                self._start_rt(task)
                continue
            # all cores dedicated: preempt a strictly lower-priority one
            victim = None
            for t in self._rt_running.values():
                if t.rt_priority < nxt.rt_priority and (
                    victim is None or t.rt_priority < victim.rt_priority
                ):
                    victim = t
            if victim is None:
                return
            slot = self._stop_rt(victim, involuntary=True)
            if self._probe_on:
                self._probe.preempt("rt", nxt, victim, slot, nxt.rt_priority)
            self._make_ready(victim)
            self.rt_wait.enqueue(victim)

    def _start_rt(self, task: Task) -> None:
        self._advance()
        burst = task.current_burst
        assert burst is not None and burst.kind is BurstKind.CPU
        self._begin_run(task)
        wall = task.burst_remaining
        if self._speed != 1.0:  # straggler: the core serves CPU us slower
            wall = int(math.ceil(wall / self._speed))
        task.timer = self.sim.schedule(
            wall, self._on_rt_completion, task
        )
        self._rt_running[task.tid] = task
        if self._probe_on:
            slot = heapq.heappop(self._free_slots) if self._free_slots else -1
            task.slot = slot
            self._probe.rt_start(task, slot)
        self._reschedule_pool_event()

    def _stop_rt(self, task: Task, involuntary: bool) -> int:
        """Take a dedicated-core task off CPU, charging service so far.
        Returns the virtual core slot it held (for the probe)."""
        self._advance()
        self._cancel_timer(task)
        served = self.sim.now - task.since
        if self._speed != 1.0:
            served = int(served * self._speed)
        served = min(served, task.burst_remaining)
        task.consume_cpu(served)
        if self._inv_on:
            self._inv.on_charge(task)
        del self._rt_running[task.tid]
        slot = self._release_slot(task)
        if involuntary:
            task.ctx_involuntary += 1
        self._reschedule_pool_event()
        return slot

    def _on_rt_completion(self, task: Task) -> None:
        self._advance()
        task.timer = None
        task.consume_cpu(task.burst_remaining)
        if self._inv_on:
            self._inv.on_charge(task)
        del self._rt_running[task.tid]
        self._end_burst(task, self._release_slot(task))
        self._dispatch_rt()
        self._reschedule_pool_event()

    def _release_slot(self, task: Task) -> int:
        """Return the task's virtual core slot to the free list (-1 when
        it held none: slots are only handed out while the probe is on)."""
        slot = task.slot
        if slot >= 0:
            heapq.heappush(self._free_slots, slot)
        return slot
