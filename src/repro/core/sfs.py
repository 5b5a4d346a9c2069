"""The SFS scheduler facade (§V).

Wires the global queue, FILTER worker pool, slice monitor, I/O poller
and overload detector to a machine through the narrow user-space API
(``set_policy`` = schedtool, ``poll_state`` = /proc polling,
``on_finish`` = waitpid).  The scheduling flow follows Fig 4 of the
paper step by step; the numbered comments below reference it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.config import SFSConfig
from repro.core.global_queue import GlobalQueue, QueueEntry
from repro.core.monitor import SliceMonitor
from repro.core.overhead import OverheadMeter
from repro.core.overload import OverloadDetector
from repro.core.worker import SFSWorker
from repro.machine.base import MachineBase
from repro.sim.engine import EventHandle
from repro.sim.task import SchedPolicy, Task, TaskState
from repro.trace import events as tev


@dataclass
class SFSStats:
    """Counters exposed for tests and the evaluation harness."""

    submitted: int = 0
    resubmitted: int = 0          # post-I/O re-enqueues
    promoted: int = 0             # FILTER promotions (schedtool -> FIFO)
    completed_in_filter: int = 0  # finished before the slice expired (4.1)
    demoted_slice: int = 0        # slice expiry -> CFS (4.2)
    demoted_io: int = 0           # block detected -> CFS + watch (4.3)
    demoted_io_exhausted: int = 0  # block detected with no slice budget left
    bypassed_overload: int = 0    # overload -> stay in CFS (4.4)
    skipped_finished: int = 0     # finished in CFS before a worker got it
    watched_at_pop: int = 0       # found blocked at dequeue -> watch list
    finished_while_watched: int = 0  # completed in CFS before waking

    def check_invariants(self) -> None:
        """Every queue entry and every promotion has exactly one
        outcome; raises AssertionError otherwise.  Only meaningful once
        the run has drained (queue and watch list empty).  The invariant
        checker runs it after every checked run (``sfs-accounting``)."""
        entries = self.submitted + self.resubmitted
        outcomes = (
            self.promoted
            + self.bypassed_overload
            + self.skipped_finished
            + self.watched_at_pop
        )
        if entries != outcomes:
            raise AssertionError(
                f"{entries} queue entries but {outcomes} dequeue outcomes")
        ends = self.completed_in_filter + self.demoted_slice + self.demoted_io
        if self.promoted != ends:
            raise AssertionError(
                f"{self.promoted} promotions but {ends} FILTER exits")
        watches = self.watched_at_pop + (self.demoted_io - self.demoted_io_exhausted)
        resolved = self.resubmitted + self.finished_while_watched
        if watches != resolved:
            raise AssertionError(
                f"{watches} watched tasks but {resolved} resolved")


#: the idle tests run at every elided poll; a module global is cheaper
#: to read than an enum class attribute
_BLOCKED, _FINISHED = TaskState.BLOCKED, TaskState.FINISHED


def _filter_poll_idle(task: Task) -> bool:
    """Idle test of a FILTER poll: the function has neither blocked nor
    exited, so the poll would only re-arm.  ``task.state`` is what
    ``poll_state`` reads on every machine."""
    state = task.state
    return state is not _BLOCKED and state is not _FINISHED


class SFS:
    """User-space two-level (FILTER + CFS) function scheduler.

    Both status polls (4.3 and the watch list) are parked
    :meth:`Simulator.every` timers: a poll that would only re-arm is
    elided, and while idle the timer stays off the event heap until
    :meth:`_on_task_state` pokes it (the FILTER function blocked; a
    watched function woke or exited).  :meth:`_meter_elided` records
    the elided polls in the overhead meter when the timer is released
    or next acts.
    """

    def __init__(self, machine: MachineBase, config: Optional[SFSConfig] = None):
        self.machine = machine
        self.sim = machine.sim
        self.config = config or SFSConfig()
        n_workers = self.config.n_workers or machine.n_cores
        self.workers: List[SFSWorker] = [SFSWorker(i) for i in range(n_workers)]
        self._idle = n_workers  # workers with no FILTER function
        if self.config.per_worker_queues:
            # multi-queue ablation (§VI): one private queue per worker,
            # round-robin request placement, no stealing
            self.queues: List[GlobalQueue] = [GlobalQueue() for _ in self.workers]
            self.queue = self.queues[0]
        else:
            self.queue = GlobalQueue()
            self.queues = [self.queue] * n_workers
        self._rr_submit = 0
        # observability: the simulator's probe and its enabled flag,
        # cached once like every instrumented layer; the FILTER's
        # promote/demote/bypass decisions are the ones Fig 4 names
        self._probe = self.sim.probe
        self._probe_on = self._probe.enabled
        self._probe.register("sfs")
        self.monitor = SliceMonitor(self.config, machine.n_cores)
        self.overload = OverloadDetector(self.config)
        self.overhead = OverheadMeter()
        self.stats = SFSStats()
        self._by_tid: Dict[int, SFSWorker] = {}
        self._watch: Dict[int, QueueEntry] = {}
        self._watch_handle: Optional[EventHandle] = None
        self._watch_polled_to = 0  # last watch poll instant metered
        self._draining = False
        machine.on_finish(self._on_task_finish)
        machine.on_state_change(self._on_task_state)

    # ==================================================================
    # entry point (Fig 4, step 1): the FaaS server tells SFS about a
    # dispatched function process
    # ==================================================================
    def submit(self, task: Task, invoke_ts: Optional[int] = None) -> None:
        """Register a freshly dispatched function request with SFS."""
        now = self.sim.now
        invoke = invoke_ts if invoke_ts is not None else now
        self.stats.submitted += 1
        new_slice = self.monitor.record_arrival(now)
        if self._probe_on:
            self._probe.submit(task, new_slice)
        self._push(QueueEntry(task=task, enqueue_ts=now, invoke_ts=invoke))
        self._drain()

    def _push(self, entry: QueueEntry) -> None:
        if self.config.per_worker_queues:
            self.queues[self._rr_submit % len(self.queues)].push(entry)
            self._rr_submit += 1
        else:
            self.queue.push(entry)

    def delay_samples(self) -> List:
        """Queue-delay samples across all queues, time-ordered."""
        if not self.config.per_worker_queues:
            return list(self.queue.delay_samples)
        merged: List = []
        for q in self.queues:
            merged.extend(q.delay_samples)
        merged.sort()
        return merged

    # ==================================================================
    # worker pool (Fig 4, step 2)
    # ==================================================================
    def _drain(self) -> None:
        """Let idle workers fetch from the global queue (work conserving).

        While the drain runs, only an assignment can idle a worker or
        refill a queue, so it is over as soon as no worker is idle or
        the single global queue is empty."""
        single = not self.config.per_worker_queues
        queue = self.queue
        if self._draining or not self._idle or (single and not queue):
            return
        self._draining = True
        try:
            progress = True
            while progress:
                progress = False
                for worker in self.workers:
                    if worker.entry is None and self.queues[worker.index]:
                        if self._assign_next(worker):
                            progress = True
                        if not self._idle or (single and not queue):
                            return
        finally:
            self._draining = False

    def _assign_next(self, worker: SFSWorker) -> bool:
        """Pop entries until one is FILTER-scheduled on ``worker``.

        Entries may be consumed without occupying the worker: requests
        that already finished under CFS, requests bypassed to CFS by the
        overload detector (4.4), and requests found blocked on I/O (4.3).
        Returns False when the queue empties without an assignment.
        """
        now = self.sim.now
        queue = self.queues[worker.index]
        while True:
            entry = queue.pop(now)
            if entry is None:
                return False
            task = entry.task
            state = self.machine.poll_state(task)
            delay = now - entry.enqueue_ts
            if state is TaskState.FINISHED:
                self.stats.skipped_finished += 1
                if self._probe_on:
                    self._probe.skip_finished(task, delay)
                continue
            if not entry.resumed and self.overload.should_bypass(
                now, delay, self.monitor.slice
            ):
                # 4.4: transient overload — leave the process in CFS.
                self.stats.bypassed_overload += 1
                task.sfs_bypassed = True
                if self._probe_on:
                    self._probe.bypass(task, delay, self.monitor.slice)
                continue
            if self.config.io_aware and state is TaskState.BLOCKED:
                # Found sleeping (e.g. leading I/O): watch until runnable.
                self.stats.watched_at_pop += 1
                self._watch_task(entry, delay)
                continue
            self._promote(worker, entry)
            return True

    def _promote(self, worker: SFSWorker, entry: QueueEntry) -> None:
        """FILTER-schedule ``entry`` on ``worker`` (schedtool -> FIFO)."""
        now = self.sim.now
        task = entry.task
        slice_left = task.sfs_slice_left
        if slice_left is None:
            slice_left = self.monitor.slice
            task.sfs_slice_left = slice_left
            task.sfs_slice_granted = slice_left
        worker.entry = entry
        self._idle -= 1
        worker.assigned_at = now
        worker.cpu_at_assign = task.cpu_time
        worker.slice_at_assign = slice_left
        self._by_tid[task.tid] = worker
        self.stats.promoted += 1
        if self._probe_on:
            self._probe.promote(task, worker, now - entry.enqueue_ts)
        self._sched_op()
        self.machine.set_policy(task, SchedPolicy.FIFO, self.config.rt_priority)
        worker.slice_handle = self.sim.schedule(
            max(1, slice_left), self._on_slice_expiry, worker, task
        )
        if self.config.io_aware:
            worker.poll_handle = self.sim.every(
                self.config.poll_interval, partial(_filter_poll_idle, task),
                self._on_worker_poll, worker, task, park=True,
            )

    # ==================================================================
    # FILTER-mode lifecycle (Fig 4, steps 4.1-4.3)
    # ==================================================================
    def _on_task_state(self, task: Task) -> None:
        """A function blocked, woke or exited: poke the poll that may
        now act (its FILTER poll on a block; the watch-list poll when a
        watched function wakes or exits, which also covers the list
        emptying)."""
        if task.state is _BLOCKED:
            worker = self._by_tid.get(task.tid)
            if worker is not None and worker.poll_handle is not None:
                self.sim.poke(worker.poll_handle)
        elif task.tid in self._watch:
            self.sim.poke(self._watch_handle)

    def _on_task_finish(self, task: Task) -> None:
        """waitpid: the function returned (4.1) — release its worker."""
        if task.tid in self._watch:
            self._meter_watch()
            del self._watch[task.tid]
            self.stats.finished_while_watched += 1
            if self._probe_on:
                self._probe.watch_finish(task.tid)
        worker = self._by_tid.pop(task.tid, None)
        if worker is None:
            return
        if worker.entry is not None and worker.entry.task is task:
            in_slice = (worker.slice_handle is not None
                        and worker.slice_handle.active)
            if in_slice:
                self.stats.completed_in_filter += 1
            if self._probe_on:
                self._probe.filter_exit(task, worker, in_slice)
            self._release(worker)
            self._drain()

    def _on_slice_expiry(self, worker: SFSWorker, task: Task) -> None:
        """4.2: the slice elapsed — demote the function to CFS."""
        worker.slice_handle = None
        if worker.entry is None or worker.entry.task is not task:
            return  # stale timer
        task.sfs_slice_left = 0
        task.sfs_demoted = True
        self.stats.demoted_slice += 1
        if self._probe_on:
            self._probe.demote(task, worker)
        self._sched_op()
        self._by_tid.pop(task.tid, None)
        self._release(worker)
        self.machine.set_policy(task, SchedPolicy.CFS)
        self._drain()

    def _on_worker_poll(self, worker: SFSWorker, task: Task) -> None:
        """4.3: the periodic kernel-status poll of the FILTER function
        found it sleeping (or exited)."""
        self.overhead.record_poll(self.sim.now, self.config.poll_cost)
        state = self.machine.poll_state(task)
        if state is TaskState.BLOCKED:
            # running -> sleeping transition detected: stop timekeeping,
            # record the unused slice, drop priority, take the next one.
            used = task.cpu_time - worker.cpu_at_assign
            left = max(0, worker.slice_at_assign - used)
            task.sfs_slice_left = left
            entry = worker.entry
            self.stats.demoted_io += 1
            if self._probe_on:
                self._probe.demote(task, worker, left)
            self._sched_op()
            self._by_tid.pop(task.tid, None)
            self._release(worker)
            self.machine.set_policy(task, SchedPolicy.CFS)
            if left > 0:
                self._watch_task(entry)
            else:
                self.stats.demoted_io_exhausted += 1
                task.sfs_demoted = True
            self._drain()
        else:  # FINISHED: defensive; the finish callback handles it
            self._release(worker)
            self._drain()

    def _release(self, worker: SFSWorker) -> None:
        """Meter the polls the worker's timer elided, then idle it.

        A FILTER poll acts at most once, and releases the worker when
        it does, so the elided polls are the first ones after the
        assignment."""
        if worker.poll_handle is not None:
            self._meter_elided(worker.poll_handle, worker.assigned_at, 1)
        if worker.entry is not None:
            self._idle += 1
        worker.clear()

    def _meter_elided(self, handle: EventHandle, since: int,
                      width: int) -> int:
        """Record the polls of the firings ``handle`` elided after the
        metered instant ``since`` (``width`` polls each, one per polled
        function) and return the last instant now metered."""
        self.sim.settle(handle)
        n = handle.elided
        if n:
            handle.elided = 0
            interval = handle.interval
            for _ in range(width):
                self.overhead.record_polls(since + interval, interval, n,
                                           self.config.poll_cost)
            since += n * interval
        return since

    # ==================================================================
    # blocked-function watch list (§V-D)
    # ==================================================================
    def _watch_task(self, entry: QueueEntry,
                    delay: Optional[int] = None) -> None:
        if self._watch_handle is not None:
            self._meter_watch()
        self._watch[entry.task.tid] = entry
        if self._watch_handle is None:  # armed idle, its first poll parked
            self._watch_handle = self.sim.every(
                self.config.poll_interval, self._watch_idle,
                self._on_watch_poll, park=True,
            )
            self._watch_polled_to = self.sim.now
        if self._probe_on:
            self._probe.watch(entry.task, delay)

    def _watch_idle(self) -> bool:
        """Idle test of the watch-list poll: every watched function is
        still sleeping."""
        return bool(self._watch) and all(
            e.task.state is _BLOCKED for e in self._watch.values())

    def _meter_watch(self) -> None:
        """Record the elided watch polls; called before the watch list
        changes and before its poll acts."""
        self._watch_polled_to = self._meter_elided(
            self._watch_handle, self._watch_polled_to, len(self._watch))

    def _on_watch_poll(self) -> None:
        """A watch-list poll found a watched function runnable or
        exited, or the list empty."""
        now = self.sim.now
        self._meter_watch()
        self._watch_polled_to = now
        woke: List[QueueEntry] = []
        for tid in list(self._watch):
            entry = self._watch[tid]
            self.overhead.record_poll(now, self.config.poll_cost)
            state = self.machine.poll_state(entry.task)
            if state is TaskState.FINISHED:
                self.stats.finished_while_watched += 1
                if self._probe_on:
                    self._probe.watch_finish(tid)
                del self._watch[tid]
            elif state in (TaskState.READY, TaskState.RUNNING):
                del self._watch[tid]
                woke.append(entry)
        for entry in woke:
            self.stats.resubmitted += 1
            if self._probe_on:
                self._probe.resubmit(entry.task)
            self._push(
                QueueEntry(
                    task=entry.task,
                    enqueue_ts=now,
                    invoke_ts=entry.invoke_ts,
                    resumed=True,
                )
            )
        if not self._watch:
            self._watch_handle.cancel()
            self._watch_handle = None
        if woke:
            self._drain()

    # ==================================================================
    def _sched_op(self) -> None:
        self.overhead.record_sched_op(self.sim.now, self.config.sched_op_cost)

    def busy_workers(self) -> int:
        return len(self.workers) - self._idle

    def queued(self) -> int:
        """Requests currently waiting across all global queue(s)."""
        if not self.config.per_worker_queues:
            return len(self.queue)
        return sum(len(q) for q in self.queues)

    # ------------------------------------------------------------------
    # gauges
    # ------------------------------------------------------------------
    def gauge_keys(self) -> Tuple[Tuple[str, int], ...]:
        """The scheduler-state gauges (see ``MachineBase.gauge_keys``)."""
        return ((tev.GAUGE_GLOBAL_QUEUE, -1), (tev.GAUGE_WATCH_LIST, -1),
                (tev.GAUGE_BUSY_WORKERS, -1))

    def gauge_values(self, out: list) -> None:
        out.extend((self.queued(), len(self._watch), self.busy_workers()))
