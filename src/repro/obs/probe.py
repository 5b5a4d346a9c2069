"""The probe: one instrumentation path per simulator.

A run carries up to three observability sinks: the trace recorder
(:mod:`repro.trace`), the metric registry (:mod:`repro.obs.registry`)
and the scheduler-decision audit log (:mod:`repro.why.audit`).  Each
:class:`repro.sim.engine.Simulator` wraps the sinks it was given in one
:class:`Probe`; every instrumented component caches ``sim.probe`` and
its ``enabled`` flag at construction, and each decision site is one
guard and one call naming the decision::

    if self._probe_on:
        self._probe.preempt("rt", task, victim, core.index)

``enabled`` is False only when all three sinks are the shared nulls, so
a default run pays one attribute load and a predicted branch per site.
Otherwise the probe calls every sink unconditionally (a null sink is a
no-op), so this module alone maps each decision to its trace event,
instrument update and audit record.

Each component registers its :data:`INSTRUMENTS` at construction, so
the exported set depends only on which components a run built.  An
unregistered instrument stays null: the fluid engine registers no
preemption counter, so its ``preempt`` never touches
``repro_preemptions_total``.

Gauges answer *how deep were the queues while it happened* — the
paper's queueing-delay story (Fig 12) is invisible without them.
:meth:`Probe.attach_sampler` fixes the sampler's schema once, the
``(kind, core)`` keys the machine, SFS and FaaS sources declare through
``gauge_keys()``, and arms one self-rescheduling daemon event that
ticks every ``gauge_interval`` us.  Only event callbacks change what a
gauge reads, so every tick before the next live heap event reads the
same row: one firing collects the row once (``gauge_values``), covers
those ``n`` ticks (:meth:`repro.sim.engine.Simulator.quiet_ticks`),
hands the recorder ``n`` rows in one call and sets the registry gauge
of each key (:data:`GAUGE_METRICS`, resolved at the first tick) ``n``
times in closed form (:meth:`repro.obs.instruments.Gauge.set_run`).
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

from repro.obs.registry import _NULL_INSTRUMENT
from repro.trace import events as tev
from repro.why import audit as aud

#: gauge trace kind -> (metric name, help text, labelled per core?)
GAUGE_METRICS: Dict[str, Tuple[str, str, bool]] = {
    tev.GAUGE_RUNNABLE: (
        "repro_runnable_tasks", "ready-but-not-running tasks, machine-wide",
        False),
    tev.GAUGE_IDLE_CORES: (
        "repro_idle_cores", "cores with nothing to run", False),
    tev.GAUGE_RUNQUEUE: (
        "repro_runqueue_depth", "per-core fair-class runqueue depth", True),
    tev.GAUGE_RT_QUEUE: (
        "repro_rt_queue_depth", "global RT runqueue length", False),
    tev.GAUGE_POOL: (
        "repro_pool_occupancy", "fluid CFS pool occupancy", False),
    tev.GAUGE_RT_RUNNING: (
        "repro_rt_running", "fluid dedicated-core count", False),
    tev.GAUGE_GLOBAL_QUEUE: (
        "repro_sfs_global_queue", "SFS global queue length", False),
    tev.GAUGE_WATCH_LIST: (
        "repro_sfs_watch_list", "SFS blocked watch-list size", False),
    tev.GAUGE_BUSY_WORKERS: (
        "repro_sfs_busy_workers", "occupied FILTER workers", False),
    # core carries the cluster host index for platform-level gauges
    # (matching fault.host_* events); -1 = standalone, unlabelled
    tev.GAUGE_KEEPALIVE: (
        "repro_keepalive_warm", "warm containers in the keep-alive cache",
        True),
    tev.GAUGE_OUTSTANDING: (
        "repro_outstanding_requests", "invocations in flight on the platform",
        True),
    tev.GAUGE_UNHEALTHY: (
        "repro_cluster_unhealthy_hosts",
        "hosts the dispatcher's health view excludes from placement",
        False),
    tev.GAUGE_RETRY_TOKENS: (
        "repro_cluster_retry_tokens",
        "whole tokens left in the global retry budget", False),
}

#: component -> the instruments it registers at construction, as
#: (probe attribute, registry method, metric name, help, extra kwargs)
INSTRUMENTS: Dict[str, Tuple[Tuple[str, str, str, str, dict], ...]] = {
    "machine": (
        ("_spawned", "counter", "repro_tasks_spawned_total",
         "processes dispatched", {}),
        ("_finished", "counter", "repro_tasks_finished_total",
         "processes exited", {}),
    ),
    "discrete": (
        ("_slice_expiries", "counter", "repro_slice_expiries_total",
         "fair-class slice expiries that descheduled a task", {}),
        ("_preemptions", "counter", "repro_preemptions_total",
         "involuntary off-CPU moves by a higher-claim task", {}),
        ("_migrations", "counter", "repro_migrations_total",
         "cross-core task resumes", {}),
        ("_steals", "counter", "repro_steals_total", "idle-balance pulls", {}),
    ),
    "fluid": (
        ("_pool_enters", "counter", "repro_pool_enters_total",
         "tasks entering the CFS pool", {}),
        ("_rt_starts", "counter", "repro_rt_starts_total",
         "dedicated-core RT starts", {}),
    ),
    "sfs": (
        ("_submitted", "counter", "repro_sfs_submitted_total",
         "requests entering SFS", {}),
        ("_resubmitted", "counter", "repro_sfs_resubmitted_total",
         "post-I/O re-enqueues", {}),
        ("_promoted", "counter", "repro_sfs_promotions_total",
         "FILTER promotions", {}),
        ("_filter_finishes", "counter", "repro_sfs_filter_finishes_total",
         "functions finishing inside their FILTER slice", {}),
        ("_demoted_slice", "counter", "repro_sfs_demotions_total",
         "FILTER demotions", {"labels": {"reason": "slice"}}),
        ("_demoted_io", "counter", "repro_sfs_demotions_total",
         "FILTER demotions", {"labels": {"reason": "io"}}),
        ("_bypassed", "counter", "repro_sfs_overload_bypass_total",
         "requests left in CFS by the overload detector", {}),
        ("_queue_delay", "histogram", "repro_sfs_queue_delay_us",
         "global-queue residence at FILTER promotion", {"unit": "us"}),
        ("_slice_granted", "histogram", "repro_sfs_slice_granted_us",
         "FILTER slice budget granted at promotion", {"unit": "us"}),
        ("_boost_us", "counter", "repro_sfs_boost_us_total",
         "total virtual time spent FILTER-boosted", {"unit": "us"}),
    ),
    "platform": (
        ("_invocations", "counter", "repro_invocations_total",
         "requests entering the gateway", {}),
        ("_cold_starts", "counter", "repro_cold_starts_total",
         "invocations that missed the keep-alive cache", {}),
        ("_coldstart_us", "histogram", "repro_coldstart_us",
         "container provisioning delay on a cache miss", {}),
    ),
    "resilience": (
        ("_failovers", "counter", "repro_cluster_failovers_total",
         "attempts re-dispatched after dying with a failed host", {}),
        ("_hedges", "counter", "repro_cluster_hedges_total",
         "backup attempts launched by the hedging policy", {}),
        ("_primary_wins", "counter", "repro_cluster_hedge_wins_total",
         "hedge races won, by which attempt finished first",
         {"labels": {"winner": "primary"}}),
        ("_backup_wins", "counter", "repro_cluster_hedge_wins_total",
         "hedge races won, by which attempt finished first",
         {"labels": {"winner": "backup"}}),
        ("_throttled", "counter", "repro_cluster_retry_throttled_total",
         "retries denied by the global retry budget", {}),
        ("_host_lost", "counter", "repro_cluster_host_lost_total",
         "requests terminally lost with a failed host", {}),
    ),
}


def _off(reason: str, served: Optional[int]) -> tuple:
    """A ``task.deschedule`` payload: the reason, plus the CPU credit
    ``served`` when a shared stay ends (fluid pool: of the stay's span,
    ``served`` us ran and the rest waited on the shared cores)."""
    return (reason,) if served is None else (reason, served)


class RunqueueHook:
    """One runqueue's slice of the probe: enqueue/pick counts and the
    depth at enqueue for its scheduling class (shared by every runqueue
    of the class), and each pick audited under the runqueue's actor
    name (``cfs:0``, ``rt``).  Runqueues are sim-agnostic; the machine
    attaches a hook (``rq.hook``) only while a sink takes these (the
    trace does not), so other runs pay one ``is None`` test per op."""

    __slots__ = ("_sim", "_audit", "_actor", "_enqueues", "_picks",
                 "_depth")

    def __init__(self, probe: "Probe", actor: str, sched_class: str) -> None:
        m = probe.metrics
        labels = {"class": sched_class}
        self._sim = probe.sim
        self._audit = probe.audit
        self._actor = actor
        self._enqueues = m.counter(
            "repro_rq_enqueues_total", help="runqueue insertions",
            labels=labels)
        self._picks = m.counter(
            "repro_rq_picks_total", help="runqueue pick_next/pop hits",
            labels=labels)
        self._depth = m.histogram(
            "repro_rq_depth_at_enqueue", help="queue depth seen at enqueue",
            labels=labels)

    def on_enqueue(self, depth: int) -> None:
        self._enqueues.inc()
        self._depth.observe(depth)

    def on_pick(self, tid: int) -> None:
        self._picks.inc()
        self._audit.record(self._sim.now, aud.OP_PICK, self._actor,
                           chosen=tid)


class _Sampler:
    """The gauge sampler of :meth:`Probe.attach_sampler`: a daemon event
    that re-arms itself (as an object, so that it holds no reference to
    itself) while the run has work pending."""

    __slots__ = ("sim", "metrics", "interval", "keys", "readers", "tick",
                 "gauges", "shared")

    def __init__(self, probe: "Probe", sources: list) -> None:
        self.sim = probe._sim()  # held only while the sampler is armed
        self.metrics = probe.metrics
        self.interval = probe.gauge_interval
        self.keys = tuple(key for src in sources for key in src.gauge_keys())
        self.readers = [src.gauge_values for src in sources]
        self.tick = probe.trace.gauge_tick if probe.trace.enabled else None
        #: the registry gauge of each key, resolved at the first tick
        self.gauges: Optional[list] = None if probe.metrics.enabled else []
        #: whether two keys resolved to one gauge
        self.shared = False

    def __call__(self) -> None:
        sim, interval = self.sim, self.interval
        now = sim.now
        out: list = []
        for read in self.readers:
            read(out)
        values = tuple(out)
        rearm = sim.pending_work
        n = sim.quiet_ticks(interval) if rearm else 1
        if self.tick is not None:
            self.tick(now, self.keys, values, n, interval)
        gauges = self.gauges
        if gauges is None:
            gauges = self.gauges = self._resolve()
        if not self.shared:
            for gauge, value in zip(gauges, values):
                gauge.set_run(value, now, interval, n)
        else:  # one gauge's samples interleave tick by tick
            for ts in range(now, now + n * interval, interval):
                for gauge, value in zip(gauges, values):
                    gauge.set(value, ts=ts)
        if rearm:
            sim.schedule(interval, self, daemon=True)

    def _resolve(self) -> list:
        """The registry gauge of each ``(kind, core)`` key, in order."""
        gauges = []
        for kind, core in self.keys:
            name, help, per_core = GAUGE_METRICS[kind]
            labels = {"core": str(core)} if per_core and core >= 0 else None
            gauges.append(self.metrics.gauge(name, help=help, labels=labels))
        self.shared = len(set(map(id, gauges))) < len(gauges)
        return gauges


class Probe:
    """The simulator's single instrumentation path (see module doc).

    It holds its simulator weakly (``sim`` is a proxy): the simulator
    holds the probe, and a cycle would leave every run's object graph
    to the cyclic collector."""

    def __init__(self, sim, trace, metrics, audit) -> None:
        self.sim = weakref.proxy(sim)
        self._sim = weakref.ref(sim)
        self.trace = trace
        self.metrics = metrics
        self.audit = audit
        #: False only when every sink is a null (the zero-overhead default)
        self.enabled = trace.enabled or metrics.enabled or audit.enabled
        #: gauge sampling period (us), or None when no sink takes gauges
        #: (an audit log does not); a traced run samples at the
        #: recorder's interval whether or not metrics ride along
        self.gauge_interval: Optional[int] = (
            trace.gauge_interval if trace.enabled
            else metrics.gauge_interval if metrics.enabled else None)
        # every instrument stays null until its component registers it
        for family in INSTRUMENTS.values():
            for attr, *_ in family:
                setattr(self, attr, _NULL_INSTRUMENT)

    def __getstate__(self) -> dict:
        # a checkpoint pickles the simulator with its probe; the weak
        # link is re-made when it is loaded
        state = dict(self.__dict__)
        del state["_sim"]
        state["sim"] = self._sim()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.sim, self._sim = weakref.proxy(self.sim), weakref.ref(self.sim)

    def register(self, component: str) -> None:
        """Register ``component``'s :data:`INSTRUMENTS` (its constructor
        calls this, so the exported set depends only on what was built)."""
        for attr, method, name, help, kw in INSTRUMENTS[component]:
            setattr(self, attr,
                    getattr(self.metrics, method)(name, help=help, **kw))

    def register_cluster(self, n_hosts: int) -> None:
        """The cluster's per-host placement counters."""
        self._dispatches = [
            self.metrics.counter(
                "repro_cluster_dispatch_total",
                help="requests placed on this host", labels={"host": str(i)})
            for i in range(n_hosts)
        ]

    def runqueue_hook(self, actor: str,
                      sched_class: str) -> Optional[RunqueueHook]:
        """The hook a machine attaches to one runqueue, or None when
        neither the registry nor the audit log is live."""
        if self.metrics.enabled or self.audit.enabled:
            return RunqueueHook(self, actor, sched_class)
        return None

    def attach_sampler(self, *sources) -> None:
        """Sample ``sources`` (objects with ``gauge_keys()`` and
        ``gauge_values(out)``; None entries are skipped) every
        ``gauge_interval`` us, in order.

        A no-op when no sink takes gauges.  The simulator runs until
        its heap drains, so the sampler rearms only while non-daemon
        work is pending: it lives exactly as long as the run it
        observes, and another daemon (the cluster health poller) cannot
        keep it alive after the real work drained.  One heap firing
        covers every tick before the next live event
        (:meth:`repro.sim.engine.Simulator.quiet_ticks`): no event runs
        between them, so each tick reads the same row.
        """
        if self.gauge_interval is None:
            return
        sampler = _Sampler(self, [src for src in sources if src is not None])
        self.sim.schedule(self.gauge_interval, sampler, daemon=True)

    # ------------------------------------------------------------------
    # process lifecycle (machine engines, drivers)
    # ------------------------------------------------------------------
    def task_spawn(self, task, spec) -> None:
        """A driver created the process serving request ``spec``."""
        self.trace.emit(self.sim.now, tev.TASK_SPAWN, task.tid,
                        args=(spec.name, spec.req_id))

    def spawn(self, task, blocked: bool) -> None:
        """The OS took the process; ``blocked`` when it starts in I/O."""
        self._spawned.inc()
        if blocked:
            self.trace.emit(self.sim.now, tev.TASK_BLOCK, task.tid)

    def set_policy(self, task, policy, rt_priority: int) -> None:
        self.trace.emit(self.sim.now, tev.TASK_POLICY, task.tid,
                        args=(policy.name, rt_priority))

    def run(self, task, core: int, migrated_from: int = -1) -> None:
        """``task`` went on ``core`` (from another core when
        ``migrated_from`` >= 0)."""
        now = self.sim.now
        if migrated_from >= 0:
            self._migrations.inc()
            self.trace.emit(now, tev.TASK_MIGRATE, task.tid, core,
                            (migrated_from,))
        self.trace.emit(now, tev.TASK_RUN, task.tid, core)

    def pool_enter(self, task, depth: int) -> None:
        """The fluid engine admitted ``task`` to its CFS pool."""
        now = self.sim.now
        self.trace.emit(now, tev.TASK_RUN, task.tid)
        self._pool_enters.inc()
        self.audit.record(now, aud.OP_PICK, "pool", chosen=task.tid,
                          arg=depth)

    def rt_start(self, task, slot: int) -> None:
        """The fluid engine gave ``task`` a dedicated core."""
        self._rt_starts.inc()
        self.trace.emit(self.sim.now, tev.TASK_RUN, task.tid, slot)

    def burst_end(self, task, core: int, blocked: bool,
                  served: Optional[int] = None) -> None:
        """A CPU burst ended; ``blocked`` when I/O follows.  ``served``
        is the CPU credit of a shared (``core`` -1) stay ending here."""
        now = self.sim.now
        self.trace.emit(now, tev.TASK_DESCHEDULE, task.tid, core,
                        _off(tev.DESCHED_BURST_END, served))
        if blocked:
            self.trace.emit(now, tev.TASK_BLOCK, task.tid)

    def wake(self, task) -> None:
        self.trace.emit(self.sim.now, tev.TASK_WAKE, task.tid)

    def finish(self, task) -> None:
        self.trace.emit(self.sim.now, tev.TASK_FINISH, task.tid)
        self._finished.inc()

    def steal(self) -> None:
        """Idle balancing pulled a task from the busiest runqueue."""
        self._steals.inc()

    # ------------------------------------------------------------------
    # deschedule decisions: the same reason code goes to the trace and
    # the audit record, so repro.why can join the two streams
    # ------------------------------------------------------------------
    def _deschedule(self, op: str, actor: str, task, core: int, reason: str,
                    chosen: int = -1, arg: object = None,
                    served: Optional[int] = None) -> None:
        now = self.sim.now
        self.trace.emit(now, tev.TASK_DESCHEDULE, task.tid, core,
                        _off(reason, served))
        self.audit.record(now, op, actor, chosen=chosen, displaced=task.tid,
                          reason=reason, arg=arg)

    def preempt(self, actor: str, task, victim, core: int,
                arg: object = None) -> None:
        """``task`` (woken, or of higher RT priority) displaced ``victim``."""
        self._preemptions.inc()
        self._deschedule(aud.OP_PREEMPT, actor, victim, core,
                         tev.DESCHED_PREEMPT, task.tid, arg)

    def slice_expiry(self, actor: str, task, core: int, queued: int) -> None:
        """A fair-class slice expired with ``queued`` tasks waiting."""
        self._slice_expiries.inc()
        self._deschedule(aud.OP_SLICE, actor, task, core, tev.DESCHED_SLICE,
                         arg=queued)

    def quantum(self, task, core: int, waiting: int) -> None:
        """A SCHED_RR quantum expired with priority ``waiting`` queued."""
        self._deschedule(aud.OP_QUANTUM, "rt", task, core,
                         tev.DESCHED_QUANTUM, arg=waiting)

    def throttle(self, task, core: int, period: int) -> None:
        """RT bandwidth ran out; ``task`` waits for the next period."""
        self._deschedule(aud.OP_THROTTLE, "rt", task, core,
                         tev.DESCHED_THROTTLE, arg=period)

    def reclass(self, task, core: int, served: Optional[int] = None) -> None:
        """sched_setscheduler moved a running task between classes."""
        self._deschedule(aud.OP_RECLASS, "kernel", task, core,
                         tev.DESCHED_RECLASS, served=served)

    def kill(self, task, reason: str, core: int = -1,
             off: Optional[str] = None, served: Optional[int] = None) -> None:
        """The fault layer killed ``task``; ``off`` is the deschedule
        reason when that took it off a CPU."""
        now = self.sim.now
        self.audit.record(now, aud.OP_KILL, "faults", displaced=task.tid,
                          reason=reason, arg=task.state.value)
        if off is not None:
            self.trace.emit(now, tev.TASK_DESCHEDULE, task.tid, core,
                            _off(off, served))

    # ------------------------------------------------------------------
    # SFS (the steps of Fig 4 in the paper)
    # ------------------------------------------------------------------
    def submit(self, task, new_slice: Optional[int]) -> None:
        """A request entered SFS (step 1); ``new_slice`` when its
        arrival made the monitor recompute S."""
        now = self.sim.now
        self.trace.emit(now, tev.SFS_SUBMIT, task.tid)
        self._submitted.inc()
        if new_slice is not None:
            self.trace.emit(now, tev.SFS_SLICE, args=(new_slice,))

    def skip_finished(self, task, delay: int) -> None:
        self.trace.emit(self.sim.now, tev.SFS_SKIP_FINISHED, task.tid,
                        args=(delay,))

    def bypass(self, task, delay: int, slice_us: int) -> None:
        """Overload left the request in CFS (step 4.4)."""
        now = self.sim.now
        self.trace.emit(now, tev.SFS_OVERLOAD, task.tid,
                        args=(delay, slice_us))
        self._bypassed.inc()
        self.audit.record(now, aud.OP_BYPASS, "sfs-filter",
                          displaced=task.tid, reason="overload", arg=delay)

    def promote(self, task, worker, delay: int) -> None:
        """FILTER gave ``task`` to ``worker`` after ``delay`` us queued,
        granting ``worker.slice_at_assign``."""
        now = self.sim.now
        granted = worker.slice_at_assign
        self.trace.emit(now, tev.SFS_PROMOTE, task.tid, worker.index,
                        args=(granted, delay))
        self._promoted.inc()
        self._queue_delay.observe(delay)
        self._slice_granted.observe(granted)
        self.audit.record(now, aud.OP_PROMOTE, f"sfs-worker:{worker.index}",
                          chosen=task.tid, arg=granted)

    def filter_exit(self, task, worker, in_slice: bool) -> None:
        """A FILTER-boosted function exited (inside its slice when
        ``in_slice``: step 4.1)."""
        if in_slice:
            self.trace.emit(self.sim.now, tev.SFS_FILTER_FINISH, task.tid,
                            worker.index)
            self._filter_finishes.inc()
        self._boost_us.inc(self.sim.now - worker.assigned_at)

    def demote(self, task, worker, left: Optional[int] = None) -> None:
        """FILTER took the slice back: expired (``left`` None, step
        4.2) or I/O detected with ``left`` us unused (step 4.3)."""
        now = self.sim.now
        if left is None:
            self.trace.emit(now, tev.SFS_DEMOTE_SLICE, task.tid, worker.index)
            self._demoted_slice.inc()
        else:
            self.trace.emit(now, tev.SFS_DEMOTE_IO, task.tid, worker.index,
                            (left,))
            self._demoted_io.inc()
        self._boost_us.inc(now - worker.assigned_at)
        self.audit.record(now, aud.OP_DEMOTE, f"sfs-worker:{worker.index}",
                          displaced=task.tid,
                          reason="slice" if left is None else "io", arg=left)

    def watch(self, task, delay: Optional[int]) -> None:
        """``task`` joined the blocked watch list: found blocked at
        dequeue after ``delay`` us queued, or (None) demoted on I/O."""
        now = self.sim.now
        if delay is not None:
            self.trace.emit(now, tev.SFS_WATCH_AT_POP, task.tid,
                            args=(delay,))
        self.trace.emit(now, tev.SFS_WATCH, task.tid)

    def watch_finish(self, tid: int) -> None:
        self.trace.emit(self.sim.now, tev.SFS_WATCH_FINISH, tid)

    def resubmit(self, task) -> None:
        self.trace.emit(self.sim.now, tev.SFS_RESUBMIT, task.tid)
        self._resubmitted.inc()

    # ------------------------------------------------------------------
    # faults, retries and the FaaS tier
    # ------------------------------------------------------------------
    def shed(self, req_id: int, outstanding: int) -> None:
        self.trace.emit(self.sim.now, tev.SHED_REQUEST,
                        args=(req_id, outstanding))

    def timeout(self, tid: int, deadline: Optional[int]) -> None:
        self.trace.emit(self.sim.now, tev.FAULT_TIMEOUT, tid,
                        args=(deadline,))

    def coldstart_failed(self, req_id: int, attempt: int) -> None:
        self.trace.emit(self.sim.now, tev.FAULT_COLDSTART,
                        args=(req_id, attempt))

    def crash(self, task, attempt: int) -> None:
        self.trace.emit(self.sim.now, tev.FAULT_CRASH, task.tid,
                        args=(attempt,))

    def retry(self, req_id: int, attempt: int, delay: int) -> None:
        self.trace.emit(self.sim.now, tev.RETRY_BACKOFF,
                        args=(req_id, attempt, delay))

    def retry_throttled(self, req_id: int, attempt: int) -> None:
        """The global retry budget denied a retry."""
        self._throttled.inc()
        self.trace.emit(self.sim.now, tev.RETRY_THROTTLED,
                        args=(req_id, attempt))

    def give_up(self, req_id: int, attempt: int, host_lost: bool) -> None:
        """The request failed terminally (lost with its host when
        ``host_lost``)."""
        if host_lost:
            self._host_lost.inc()
        self.trace.emit(self.sim.now, tev.RETRY_EXHAUSTED,
                        args=(req_id, attempt))

    def host(self, host: int, up: bool) -> None:
        """An injected host failure (or its recovery)."""
        self.trace.emit(self.sim.now,
                        tev.FAULT_HOST_UP if up else tev.FAULT_HOST_DOWN,
                        core=host)

    def invoke(self) -> None:
        self._invocations.inc()

    def cold_start(self, delay: int) -> None:
        self._cold_starts.inc()
        self._coldstart_us.observe(delay)

    def dispatch(self, host: int) -> None:
        self._dispatches[host].inc()

    def health(self, host: int, up: bool) -> None:
        """The health poller saw ``host`` change state."""
        self.trace.emit(self.sim.now, tev.HEALTH_UP if up else tev.HEALTH_DOWN,
                        core=host)

    def failover(self, req_id: int, from_host: int, to_host: int) -> None:
        self._failovers.inc()
        self.trace.emit(self.sim.now, tev.FAILOVER_REDISPATCH,
                        args=(req_id, from_host, to_host))

    def hedge(self, req_id: int, primary: int, backup: int) -> None:
        self._hedges.inc()
        self.trace.emit(self.sim.now, tev.HEDGE_LAUNCH,
                        args=(req_id, primary, backup))

    def hedge_win(self, task, req_id: int, winner: str) -> None:
        (self._backup_wins if winner == "backup"
         else self._primary_wins).inc()
        # tid identifies the winning chain for repro.why's timeline
        # reconstruction (never serialised outward)
        self.trace.emit(self.sim.now, tev.HEDGE_WIN, task.tid,
                        args=(req_id, winner))

    def hedge_cancel(self, tid: int, req_id: int) -> None:
        self.trace.emit(self.sim.now, tev.HEDGE_CANCEL, tid, args=(req_id,))
