"""The runtime invariant checker.

One two-attribute protocol, mirroring :mod:`repro.trace.recorder`:

* ``enabled`` — class-level flag the hot paths branch on;
* ``on_*`` / ``check_*`` — assertion entry points called at event
  boundaries.

:class:`NullChecker` is the default everywhere and makes checking free
when off: instrumented call sites read one cached attribute and skip
the call entirely (``if self._inv_on: self._inv.on_charge(task)``), so
a disabled run pays a pointer load and a predictable branch per site —
the simulation stream is bit-identical to a build without this module.

:class:`InvariantChecker` verifies conservation laws:

* **work conservation** — every finished task was charged exactly the
  CPU/device service it demanded (killed tasks: never more);
* **no lost or duplicated exits** — each tid finishes exactly once;
* **monotone clocks** — virtual time and per-task vruntime never move
  backwards;
* **parked timers stay idle** — after every event, each timer parked
  off the event heap still finds its firings idle, so a missed poke
  fails at the event that owed it (``parked-idle``);
* **structural soundness** — CFS/RT/EEVDF runqueues stay internally
  consistent (cheap checks every call, full red-black audits sampled
  every ``deep_every`` calls);
* **keep-alive occupancy** — the warm-container cache never exceeds its
  cap or goes negative;
* **fault-accounting closure** — post-run, every arrival is ok, failed,
  timed out or shed exactly once and the governor's counters agree with
  the per-request records;
* **SFS accounting** — post-run, every SFS queue entry and every FILTER
  promotion on every host has exactly one outcome
  (:meth:`repro.core.sfs.SFSStats.check_invariants`).

A failed check raises :class:`InvariantViolation` carrying the
offending state, the virtual time, and the run's replay coordinates
(workload seed + scheduler/engine label), so the exact event sequence
can be re-executed under a debugger or with tracing enabled.

The checker only ever *reads* simulation state — it never schedules
events, draws randomness, or mutates tasks — so a checked run produces
bit-identical results to an unchecked one.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Sequence


def invariants_enabled_by_default() -> bool:
    """Environment switch: ``REPRO_INVARIANTS=1`` turns checking on
    everywhere a driver does not say otherwise (CI sets it)."""
    return os.environ.get("REPRO_INVARIANTS", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


class InvariantViolation(RuntimeError):
    """A conservation law was broken; the simulation state is corrupt.

    Carries everything needed to replay the failure: the invariant
    name, the virtual time, the offending tid (when task-scoped), the
    workload seed and the scheduler/engine label of the run.
    """

    def __init__(
        self,
        invariant: str,
        detail: str,
        *,
        sim_time: Optional[int] = None,
        tid: Optional[int] = None,
        seed: Optional[int] = None,
        label: str = "",
        context: Optional[Dict[str, Any]] = None,
    ):
        self.invariant = invariant
        self.detail = detail
        self.sim_time = sim_time
        self.tid = tid
        self.seed = seed
        self.label = label
        self.context = dict(context or {})
        super().__init__(self.report())

    def report(self) -> str:
        """One-paragraph replayable report."""
        parts = [f"invariant violated: {self.invariant}", self.detail]
        where = []
        if self.sim_time is not None:
            where.append(f"t={self.sim_time}us")
        if self.tid is not None:
            where.append(f"tid={self.tid}")
        if where:
            parts.append("at " + " ".join(where))
        replay = []
        if self.label:
            replay.append(self.label)
        if self.seed is not None:
            replay.append(f"seed={self.seed}")
        if replay:
            parts.append("replay with " + " ".join(replay) +
                         " and REPRO_INVARIANTS=1")
        if self.context:
            ctx = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
            parts.append(f"[{ctx}]")
        return " | ".join(parts)


class NullChecker:
    """Do-nothing checker; the zero-overhead default."""

    __slots__ = ()

    enabled: bool = False

    # hot-path hooks -----------------------------------------------------
    def on_event(self, now: int, prev: int) -> None:  # pragma: no cover
        return None

    def on_virtual_events(self, n: int) -> None:  # pragma: no cover
        return None

    def on_parked(self, timers: Any, now: int) -> None:  # pragma: no cover
        return None

    def on_charge(self, task: Any) -> None:  # pragma: no cover
        return None

    def on_task_finish(self, task: Any, now: int) -> None:  # pragma: no cover
        return None

    def on_runqueue(self, rq: Any) -> None:  # pragma: no cover
        return None

    def on_fluid_pool(self, machine: Any) -> None:  # pragma: no cover
        return None

    def on_warm_cache(self, cache: Any, app: str) -> None:  # pragma: no cover
        return None

    # post-run hooks -----------------------------------------------------
    def check_accounting(self, workload: Any, records: Any,
                         fault_stats: Optional[Dict[str, int]] = None,
                         sfs_layers: Sequence[Any] = ()) -> None:
        return None

    def summary(self) -> Dict[str, int]:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullChecker>"


#: shared singleton — every unchecked run points here.
NULL_CHECKER = NullChecker()


class InvariantChecker(NullChecker):
    """In-process conservation-law auditor (see module docstring).

    ``deep_every`` bounds the cost of the expensive structural audits
    (full red-black invariant walks, pool/heap cross-checks): cheap
    O(1) consistency checks run at every boundary, deep O(n) audits on
    every ``deep_every``-th call per site.
    """

    __slots__ = ("seed", "label", "deep_every", "_counts", "_ticks",
                 "_last_now", "_vruntime", "_finished", "_min_vruntime")

    enabled = True

    def __init__(self, seed: Optional[int] = None, label: str = "",
                 deep_every: int = 64):
        if deep_every <= 0:
            raise ValueError("deep_every must be positive")
        self.seed = seed
        self.label = label
        self.deep_every = deep_every
        self._counts: Dict[str, int] = {}
        self._ticks: Dict[str, int] = {}
        self._last_now: int = 0
        self._vruntime: Dict[int, int] = {}      # tid -> last seen vruntime
        self._finished: set = set()              # tids that already exited
        self._min_vruntime: Dict[int, int] = {}  # id(rq) -> last min_vruntime

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _fail(self, invariant: str, detail: str, *, now: Optional[int] = None,
              tid: Optional[int] = None, **context: Any) -> None:
        raise InvariantViolation(
            invariant, detail, sim_time=now if now is not None else self._last_now,
            tid=tid, seed=self.seed, label=self.label, context=context,
        )

    def _count(self, invariant: str) -> None:
        self._counts[invariant] = self._counts.get(invariant, 0) + 1

    def _deep_due(self, site: str) -> bool:
        tick = self._ticks.get(site, 0)
        self._ticks[site] = tick + 1
        return tick % self.deep_every == 0

    def summary(self) -> Dict[str, int]:
        """Checks performed per invariant (diagnostics / tests)."""
        return dict(self._counts)

    # ------------------------------------------------------------------
    # hot-path hooks
    # ------------------------------------------------------------------
    def on_event(self, now: int, prev: int) -> None:
        """Monotone virtual clock: events fire in non-decreasing time."""
        self._count("monotone-clock")
        if now < prev:
            self._fail("monotone-clock",
                       f"event at t={now} fired after clock reached {prev}",
                       now=now)
        self._last_now = now

    def on_virtual_events(self, n: int) -> None:
        """``n`` virtual firings of parked timers, which the clock passed
        in order by construction."""
        if n:
            self._counts["monotone-clock"] = (
                self._counts.get("monotone-clock", 0) + n)

    def on_parked(self, timers: Any, now: int) -> None:
        """After an event, every parked timer's ``idle`` test holds: its
        virtual firings are idle only by its owner's promise to poke."""
        for handle in timers:
            self._count("parked-idle")
            if not handle.idle():
                name = getattr(handle.callback, "__qualname__",
                               repr(handle.callback))
                self._fail("parked-idle",
                           f"timer {name} (next firing t={handle.time}) is "
                           f"parked but its idle test is false: its owner "
                           f"missed a poke", now=now)

    def on_charge(self, task: Any) -> None:
        """After any CPU-service charge: per-task accounting stays sane."""
        self._count("monotone-vruntime")
        last = self._vruntime.get(task.tid)
        if last is not None and task.vruntime < last:
            self._fail("monotone-vruntime",
                       f"vruntime moved backwards: {last} -> {task.vruntime}",
                       tid=task.tid)
        self._vruntime[task.tid] = task.vruntime
        if task.burst_remaining < 0:
            self._fail("work-conservation",
                       f"negative burst remainder {task.burst_remaining}",
                       tid=task.tid)
        if task.cpu_time > task.cpu_demand:
            self._fail(
                "work-conservation",
                f"service charged ({task.cpu_time}us) exceeds demand "
                f"({task.cpu_demand}us)", tid=task.tid,
            )

    def on_task_finish(self, task: Any, now: int) -> None:
        """Exit boundary: conservation + exactly-once accounting."""
        self._count("work-conservation")
        if task.tid in self._finished:
            self._fail("no-lost-tasks",
                       "task reported finished twice", tid=task.tid, now=now)
        self._finished.add(task.tid)
        if task.finish_time != now:
            self._fail("work-conservation",
                       f"finish_time {task.finish_time} != exit event time {now}",
                       tid=task.tid, now=now)
        if task.dispatch_time is None or task.dispatch_time > now:
            self._fail("work-conservation",
                       f"finished before dispatch ({task.dispatch_time})",
                       tid=task.tid, now=now)
        if task.wait_time < 0 or task.cpu_time < 0 or task.io_time < 0:
            self._fail("work-conservation",
                       f"negative accounting: wait={task.wait_time} "
                       f"cpu={task.cpu_time} io={task.io_time}",
                       tid=task.tid, now=now)
        if task.killed:
            # a killed task is charged at most what it demanded
            if task.cpu_time > task.cpu_demand or task.io_time > task.io_demand:
                self._fail(
                    "work-conservation",
                    f"killed task over-charged: cpu {task.cpu_time}/"
                    f"{task.cpu_demand}us io {task.io_time}/{task.io_demand}us",
                    tid=task.tid, now=now, kill_reason=task.kill_reason,
                )
            return
        if task.cpu_time != task.cpu_demand:
            self._fail(
                "work-conservation",
                f"service charged ({task.cpu_time}us) != service demanded "
                f"({task.cpu_demand}us)", tid=task.tid, now=now, name=task.name,
            )
        if task.io_time != task.io_demand:
            self._fail(
                "work-conservation",
                f"device time ({task.io_time}us) != device demand "
                f"({task.io_demand}us)", tid=task.tid, now=now, name=task.name,
            )
        if task.current_burst is not None or task.burst_remaining != 0:
            self._fail(
                "work-conservation",
                f"finished mid-burst (index {task.burst_index}, "
                f"{task.burst_remaining}us left)", tid=task.tid, now=now,
            )

    def on_runqueue(self, rq: Any) -> None:
        """Structural soundness of a CFS / RT / EEVDF runqueue."""
        self._count("runqueue-soundness")
        deep = self._deep_due(f"rq:{id(rq)}")
        try:
            rq.validate(deep=deep)
        except (AssertionError, RuntimeError) as exc:
            self._fail("runqueue-soundness", str(exc),
                       kind=type(rq).__name__)
        min_vr = getattr(rq, "min_vruntime", None)
        if min_vr is not None:
            last = self._min_vruntime.get(id(rq))
            if last is not None and min_vr < last:
                self._fail(
                    "monotone-vruntime",
                    f"min_vruntime moved backwards: {last} -> {min_vr}",
                    kind=type(rq).__name__,
                )
            self._min_vruntime[id(rq)] = min_vr

    def on_fluid_pool(self, machine: Any) -> None:
        """Fluid-engine pool consistency (sampled deep cross-check)."""
        self._count("fluid-pool")
        if len(machine._rt_running) > machine.n_cores:
            self._fail(
                "runqueue-soundness",
                f"{len(machine._rt_running)} dedicated tasks on "
                f"{machine.n_cores} cores",
            )
        if not self._deep_due(f"pool:{id(machine)}"):
            return
        # lazily-cancelled heap entries are stale by design; a pool
        # member is sound iff its *current* target has a live entry
        heap_entries = {(t.tid, target) for target, _seq, t in machine._heap}
        for tid, task in machine._pool.items():
            if task.state.value != "running":
                self._fail("runqueue-soundness",
                           f"pool task in state {task.state.value}", tid=tid)
            target = task.pool_target
            if (tid, target) not in heap_entries:
                self._fail(
                    "runqueue-soundness",
                    f"pool task missing live heap entry (target {target})",
                    tid=tid,
                )
        rr = sum(1 for t in machine._pool.values() if t.policy.name == "RR")
        if rr != machine._pool_rr:
            self._fail("runqueue-soundness",
                       f"pool holds {rr} SCHED_RR tasks, counted "
                       f"{machine._pool_rr}")

    def on_warm_cache(self, cache: Any, app: str) -> None:
        """Keep-alive occupancy vs. sandbox lifecycle."""
        self._count("keepalive-occupancy")
        warm = cache.warm_count(app)
        cap = cache.config.max_warm_per_app
        if warm < 0 or warm > cap:
            self._fail(
                "keepalive-occupancy",
                f"app {app!r} holds {warm} warm containers (cap {cap})",
            )
        stats = cache.stats
        if stats.cold_starts < 0 or stats.warm_hits < 0 or stats.expirations < 0:
            self._fail("keepalive-occupancy",
                       f"negative cache counters: {stats}")

    # ------------------------------------------------------------------
    # post-run accounting closure
    # ------------------------------------------------------------------
    def check_accounting(self, workload: Any, records: Any,
                         fault_stats: Optional[Dict[str, int]] = None,
                         sfs_layers: Sequence[Any] = ()) -> None:
        """No-lost-tasks + fault-accounting + SFS closure over a
        finished run.

        Every arrival must appear in the records exactly once; statuses
        must partition the arrivals; when a fault governor ran, its
        aggregate counters must agree with the per-request outcomes.
        This is the cluster's *exactly-once* guarantee: no matter how
        attempts were retried, failed over or hedged, each request ends
        with one terminal status and one record.  Each of
        ``sfs_layers`` (one per host running SFS) must close its outcome
        counters.
        """
        for host, layer in enumerate(sfs_layers):
            self._count("sfs-accounting")
            try:
                layer.stats.check_invariants()
            except AssertionError as exc:
                self._fail("sfs-accounting",
                           f"SFS outcome counters do not close: {exc}",
                           host=host, stats=layer.stats)
        self._count("no-lost-tasks")
        self._count("exactly-once")
        want = sorted(spec.req_id for spec in workload)
        got = sorted(r.req_id for r in records)
        if want != got:
            missing = sorted(set(want) - set(got))[:5]
            extra = sorted(set(got) - set(want))[:5]
            dupes = len(got) - len(set(got))
            # a duplicated req_id means a request ended with more than
            # one terminal outcome — the exactly-once guarantee broke
            # (a hedge loser or failover ghost produced its own record)
            name = "exactly-once" if dupes else "no-lost-tasks"
            self._fail(
                name,
                f"records do not cover arrivals exactly once: "
                f"{len(want)} arrivals, {len(got)} records "
                f"(missing {missing}, unexpected {extra}, {dupes} duplicated)",
            )
        by_status: Dict[str, int] = {}
        for r in records:
            by_status[r.status] = by_status.get(r.status, 0) + 1
            if r.status not in ("ok", "failed", "timeout", "shed",
                                "host_lost"):
                self._fail("fault-closure",
                           f"unknown terminal status {r.status!r}",
                           req_id=r.req_id)
            if r.status == "ok" and r.attempts < 1:
                self._fail("fault-closure",
                           f"ok request with {r.attempts} attempts",
                           req_id=r.req_id)
            if r.status == "shed" and r.attempts != 0:
                self._fail("fault-closure",
                           f"shed request with {r.attempts} attempts",
                           req_id=r.req_id)
        if fault_stats is None:
            bad = {k: v for k, v in by_status.items() if k != "ok"}
            if bad:
                self._fail("fault-closure",
                           f"non-ok outcomes without a fault governor: {bad}")
            return
        self._count("fault-closure")
        n = len(records)
        total = sum(by_status.values())
        if total != n:
            self._fail("fault-closure",
                       f"statuses sum to {total}, expected {n}")
        if by_status.get("shed", 0) != fault_stats.get("shed", 0):
            self._fail(
                "fault-closure",
                f"governor shed {fault_stats.get('shed', 0)} but records "
                f"show {by_status.get('shed', 0)}",
            )
        if by_status.get("failed", 0) != fault_stats.get("abandoned", 0):
            self._fail(
                "fault-closure",
                f"governor abandoned {fault_stats.get('abandoned', 0)} but "
                f"records show {by_status.get('failed', 0)} failed",
            )
        if by_status.get("host_lost", 0) != fault_stats.get("host_lost", 0):
            self._fail(
                "fault-closure",
                f"governor lost {fault_stats.get('host_lost', 0)} requests "
                f"to failed hosts but records show "
                f"{by_status.get('host_lost', 0)} host_lost",
            )
        if fault_stats.get("hedge_wins", 0) > fault_stats.get("hedges", 0):
            self._fail(
                "fault-closure",
                f"{fault_stats.get('hedge_wins', 0)} hedge wins exceed "
                f"{fault_stats.get('hedges', 0)} hedges launched",
            )
        # every attempt beyond a request's first was paid for by a
        # scheduled retry, a failover re-dispatch or a hedge launch
        retries = sum(max(0, r.attempts - 1) for r in records)
        budget = (fault_stats.get("retries", 0)
                  + fault_stats.get("failovers", 0)
                  + fault_stats.get("hedges", 0))
        if retries > budget:
            self._fail(
                "fault-closure",
                f"records imply >= {retries} extra attempts but the "
                f"governor paid for {budget} (retries + failovers + "
                f"hedges)",
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = sum(self._counts.values())
        return f"<InvariantChecker {total} checks, label={self.label!r}>"


def resolve_checker(
    explicit: Optional[bool],
    seed: Optional[int] = None,
    label: str = "",
) -> NullChecker:
    """Pick the checker for a run.

    ``explicit`` is a driver/config override: True forces checking on,
    False forces it off, None defers to ``REPRO_INVARIANTS``.
    """
    on = invariants_enabled_by_default() if explicit is None else explicit
    if not on:
        return NULL_CHECKER
    return InvariantChecker(seed=seed, label=label)
