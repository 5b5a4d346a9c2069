"""POSIX real-time scheduling classes (``SCHED_FIFO`` / ``SCHED_RR``).

Semantics per ``sched(7)``:

* RT tasks always preempt ``SCHED_NORMAL`` (CFS) tasks.
* Among RT tasks, higher ``rt_priority`` wins; equal-priority FIFO tasks
  run in arrival order until they block, finish, or are re-classed;
  equal-priority RR tasks additionally rotate on a fixed quantum
  (``/proc/sys/kernel/sched_rr_timeslice_ms``, default 100 ms).
* An arriving equal-priority task does **not** preempt a running one.

We model a single global RT runqueue rather than per-core queues with
push/pull migration: the paper's FILTER pool is itself a single global
queue, and for identical-priority tasks the global queue is
behaviourally equivalent to per-core queues with perfect push/pull (the
kernel aggressively migrates RT tasks to idle cores).  This collapse is
documented in DESIGN.md §5.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

from repro.sim.task import SchedPolicy, Task
from repro.sim.units import MS

#: Linux default RR quantum.
DEFAULT_RR_QUANTUM = 100 * MS


class RTRunqueue:
    """Global real-time runqueue: max-priority, FIFO within priority."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Task]] = []
        self._seq = itertools.count()
        self._members: set[int] = set()
        # observability: lifetime enqueue count and peak depth
        self.total_enqueued: int = 0
        self.peak_depth: int = 0
        #: repro.obs.probe.RunqueueHook while metrics or audit are on
        self.hook = None

    def __len__(self) -> int:
        live = 0
        for _p, _s, task in self._heap:
            if task.tid in self._members:
                live += 1
        return live

    def __bool__(self) -> bool:
        self._scrub()
        return bool(self._heap)

    def enqueue(self, task: Task) -> None:
        if task.policy not in (SchedPolicy.FIFO, SchedPolicy.RR):
            raise ValueError(f"task {task.tid} is not RT class ({task.policy.name})")
        if task.tid in self._members:
            raise RuntimeError(f"task {task.tid} already on the RT runqueue")
        self._members.add(task.tid)
        heapq.heappush(self._heap, (-task.rt_priority, next(self._seq), task))
        self.total_enqueued += 1
        depth = len(self._members)
        if depth > self.peak_depth:
            self.peak_depth = depth
        if self.hook is not None:
            self.hook.on_enqueue(depth)

    def remove(self, task: Task) -> None:
        """Lazy removal (e.g. task re-classed to CFS while queued)."""
        if task.tid not in self._members:
            raise RuntimeError(f"task {task.tid} not on the RT runqueue")
        self._members.discard(task.tid)

    def pop(self) -> Optional[Task]:
        """Highest-priority, earliest-enqueued runnable RT task."""
        self._scrub()
        if not self._heap:
            return None
        _p, _s, task = heapq.heappop(self._heap)
        self._members.discard(task.tid)
        if self.hook is not None:
            self.hook.on_pick(task.tid)
        return task

    def peek(self) -> Optional[Task]:
        self._scrub()
        return self._heap[0][2] if self._heap else None

    def peek_priority(self) -> Optional[int]:
        task = self.peek()
        return None if task is None else task.rt_priority

    def _scrub(self) -> None:
        heap = self._heap
        while heap and heap[0][2].tid not in self._members:
            heapq.heappop(heap)

    def tasks(self) -> list[Task]:
        self._scrub()
        return [t for _p, _s, t in sorted(self._heap) if t.tid in self._members]

    # ------------------------------------------------------------------
    def validate(self, deep: bool = False) -> None:
        """Structural soundness for :mod:`repro.invariants`.

        Cheap: every member tid has a heap entry and no member is
        duplicated.  ``deep=True`` re-verifies the heap property and
        that each live entry's priority key matches its task.  Raises
        ``AssertionError`` on corruption.
        """
        live = {}
        for _p, _s, task in self._heap:
            if task.tid in self._members:
                live[task.tid] = live.get(task.tid, 0) + 1
        assert set(live) == self._members, (
            f"member set {sorted(self._members)} != live heap tids "
            f"{sorted(live)}"
        )
        dupes = [tid for tid, n in live.items() if n > 1]
        assert not dupes, f"tids queued more than once: {dupes}"
        if not deep:
            return
        heap = self._heap
        for i in range(1, len(heap)):
            parent = (i - 1) // 2
            assert heap[parent][:2] <= heap[i][:2], (
                f"heap property violated at index {i}"
            )
        for neg_prio, _s, task in heap:
            if task.tid in self._members:
                assert -neg_prio == task.rt_priority, (
                    f"task {task.tid} queued at priority {-neg_prio} but "
                    f"holds {task.rt_priority}"
                )
                assert task.policy in (SchedPolicy.FIFO, SchedPolicy.RR), (
                    f"non-RT task {task.tid} ({task.policy.name}) on the "
                    f"RT runqueue"
                )
