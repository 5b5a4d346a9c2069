"""EEVDF fair-class runqueue (Linux >= 6.6).

The paper argues (§X, "Why User-Space?") that a user-space scheduler is
future-proof precisely because the kernel's fair class keeps evolving —
and indeed CFS has since been replaced by EEVDF (Earliest Eligible
Virtual Deadline First; Stoica & Abdel-Wahab 1996, merged in 6.6).
This module models EEVDF so the reproduction can *demonstrate* that
claim: SFS runs unchanged on top of either fair class.

Model (per `kernel/sched/fair.c` post-6.6, simplified to flat, equal-
weight entities):

* each entity keeps ``vruntime`` and a virtual deadline
  ``deadline = vruntime + base_slice`` granted one request at a time;
* an entity is **eligible** when its vruntime is at or behind the
  queue's weighted average (``vruntime <= avg_vruntime``) — lag >= 0;
* pick = eligible entity with the earliest virtual deadline;
* when a running entity exhausts its slice its deadline moves one
  ``base_slice`` forward, naturally rotating service.

The class exposes the same interface as
:class:`repro.sched.cfs.CfsRunqueue`, so
:class:`repro.machine.discrete.DiscreteMachine` accepts either via
``MachineParams.fair_class``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sim.task import Task
from repro.sim.units import MS


@dataclass(frozen=True)
class EevdfParams:
    """EEVDF tunables (microseconds)."""

    #: the per-request slice (kernel default base_slice ~ 0.75-3 ms;
    #: we match the CFS model's min_granularity for comparability).
    base_slice: int = 3 * MS

    def __post_init__(self) -> None:
        if self.base_slice <= 0:
            raise ValueError("base_slice must be positive")


class EevdfRunqueue:
    """One core's EEVDF runqueue (flat, equal-weight entities).

    O(n) pick: runqueue depths in the discrete engine are small, and
    the eligibility filter makes a single scan the clearest faithful
    implementation.  (The kernel uses an augmented rbtree.)
    """

    def __init__(self, params: EevdfParams = EevdfParams()):
        self.params = params
        self._tasks: List[Task] = []
        self.min_vruntime: int = 0  # kept for interface parity
        #: repro.obs.probe.RunqueueHook while metrics or audit are on
        self.hook = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task: Task) -> bool:
        return any(t.tid == task.tid for t in self._tasks)

    @property
    def nr_queued(self) -> int:
        return len(self._tasks)

    # ------------------------------------------------------------------
    def _avg_vruntime(self, extra: Optional[Task] = None) -> float:
        """Queue-average vruntime (the zero-lag point V)."""
        vs = [t.vruntime for t in self._tasks]
        if extra is not None:
            vs.append(extra.vruntime)
        if not vs:
            return 0.0
        return sum(vs) / len(vs)

    def enqueue(self, task: Task, wakeup: bool = False) -> None:
        if task in self:
            raise RuntimeError(f"task {task.tid} already enqueued")
        # placement: a joining entity gets zero lag (vruntime = V) so it
        # can neither starve the queue nor borrow unearned service.
        v = self._avg_vruntime()
        if task.vruntime < v:
            task.vruntime = int(v)
        if getattr(task, "_eevdf_deadline", None) is None or not wakeup:
            task._eevdf_deadline = task.vruntime + self.params.base_slice  # type: ignore[attr-defined]
        self._tasks.append(task)
        self.min_vruntime = max(
            self.min_vruntime, int(min(t.vruntime for t in self._tasks))
        )
        if self.hook is not None:
            self.hook.on_enqueue(len(self._tasks))

    def dequeue(self, task: Task) -> None:
        for i, t in enumerate(self._tasks):
            if t.tid == task.tid:
                del self._tasks[i]
                return
        raise RuntimeError(f"task {task.tid} not on this runqueue")

    def pick_next(self) -> Optional[Task]:
        """Earliest virtual deadline among eligible entities."""
        if not self._tasks:
            return None
        v = self._avg_vruntime()
        eligible = [t for t in self._tasks if t.vruntime <= v + 1e-9]
        pool = eligible if eligible else self._tasks
        best = min(pool, key=lambda t: (t._eevdf_deadline, t.tid))  # type: ignore[attr-defined]
        self.dequeue(best)
        if self.hook is not None:
            self.hook.on_pick(best.tid)
        return best

    def peek_next(self) -> Optional[Task]:
        if not self._tasks:
            return None
        v = self._avg_vruntime()
        eligible = [t for t in self._tasks if t.vruntime <= v + 1e-9]
        pool = eligible if eligible else self._tasks
        return min(pool, key=lambda t: (t._eevdf_deadline, t.tid))  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def update_curr(self, curr_vruntime: int) -> None:
        self.min_vruntime = max(self.min_vruntime, curr_vruntime)

    def timeslice_for(self, task: Task, nr_extra_running: int = 1) -> int:
        """Run until the current virtual deadline (one base_slice of
        service), independent of queue depth — EEVDF's key difference
        from CFS's latency-division rule."""
        deadline = getattr(task, "_eevdf_deadline", None)
        if deadline is None:
            task._eevdf_deadline = task.vruntime + self.params.base_slice  # type: ignore[attr-defined]
            deadline = task._eevdf_deadline  # type: ignore[attr-defined]
        remaining = deadline - task.vruntime
        if remaining <= 0:
            # slice exhausted: grant the next request
            task._eevdf_deadline = task.vruntime + self.params.base_slice  # type: ignore[attr-defined]
            remaining = self.params.base_slice
        return int(remaining)

    def should_preempt(self, woken: Task, curr: Task) -> bool:
        """A woken entity preempts when it is eligible and holds an
        earlier virtual deadline than the running one."""
        v = self._avg_vruntime(extra=curr)
        if woken.vruntime > v:
            return False
        wd = getattr(woken, "_eevdf_deadline", woken.vruntime + self.params.base_slice)
        cd = getattr(curr, "_eevdf_deadline", curr.vruntime + self.params.base_slice)
        return wd < cd

    def tasks(self) -> List[Task]:
        return sorted(
            self._tasks,
            key=lambda t: (getattr(t, "_eevdf_deadline", 0), t.tid),
        )

    # ------------------------------------------------------------------
    def validate(self, deep: bool = False) -> None:
        """Structural soundness for :mod:`repro.invariants`.

        Cheap: no duplicated tids.  ``deep=True`` additionally checks
        that every queued entity has a virtual deadline at or after its
        vruntime (a deadline in the virtual past would let it monopolise
        the pick).  Raises ``AssertionError`` on corruption.
        """
        tids = [t.tid for t in self._tasks]
        assert len(tids) == len(set(tids)), (
            f"duplicated tids on the EEVDF runqueue: {sorted(tids)}"
        )
        if not deep:
            return
        for t in self._tasks:
            deadline = getattr(t, "_eevdf_deadline", None)
            if deadline is not None:
                assert deadline >= t.vruntime, (
                    f"task {t.tid} deadline {deadline} behind vruntime "
                    f"{t.vruntime}"
                )
