"""Streaming replay driver: crash-proof, constant-memory execution.

A streaming replay runs the shared driver core
(:mod:`repro.faas.driver`): a bare :class:`~repro.faas.driver.Host`
fed by the core's prefetch-one arrival source from a picklable
:class:`~repro.workload.stream.StreamCursor`, so the event heap holds
at most one future arrival and its size tracks in-flight work, not
trace length.  The arrivals' tie-break ranks are reserved as in every
run, so the replay is the event sequence of ``run_workload`` over
``stream.materialize()``.  This front end adds what a long horizon
needs:

* **streaming aggregation** — the driver is the host's result sink:
  finished requests fold into a
  :class:`repro.stream.aggregate.StreamSummary` and are dropped;
* **bounded SFS diagnostics** — the unbounded sample lists the
  materialized path keeps for Fig 10/12 (queue delay samples, slice
  timeline, overload events) become bounded deques, and the overhead
  meter gets a coarse window, so SFS state stays O(1) over any horizon;
* **checkpoint ticks** — a self-rescheduling virtual-time event writes
  a checkpoint every ``checkpoint_every`` us and runs the memory
  watchdog; the *next* tick is scheduled before pickling so a restored
  heap is already armed.  Every callback in the heap is a bound method
  of a picklable object, so the whole live graph serializes mid-run
  (see :mod:`repro.stream.checkpoint`).

Instrumentation is deliberately the zero-overhead NULL stack (trace,
invariants, metrics off): those layers cache closures that must never
reach a checkpoint, and the nominal path is bit-identical without them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.config import SFSConfig
from repro.core.overhead import OverheadMeter
from repro.core.sfs import SFS
from repro.faas.driver import ENGINE_SCHEDULERS, ENGINES, Driver, Host
from repro.machine.base import MachineParams
from repro.sim.task import Task
from repro.sim.units import SEC
from repro.stream.aggregate import StreamSummary
from repro.workload.spec import RequestSpec
from repro.workload.stream import RequestStream, StreamCursor

#: cap on retained diagnostic samples inside SFS components
SAMPLE_CAP = 4096


@dataclass(frozen=True)
class ReplayConfig:
    """How to execute a streaming replay."""

    scheduler: str = "sfs"
    engine: str = "fluid"
    machine: MachineParams = field(default_factory=MachineParams)
    sfs: SFSConfig = field(default_factory=SFSConfig)
    #: FaaS-server -> SFS notification latency (us), as in RunConfig.
    notify_latency: int = 200
    #: stop admitting arrivals after this virtual time (None = replay
    #: the whole stream); in-flight work still drains to completion.
    horizon: Optional[int] = None
    #: write a checkpoint every this many us of virtual time (None =
    #: checkpointing off; requires a CheckpointStore on the driver).
    checkpoint_every: Optional[int] = 60 * SEC
    #: recent-record ring size in the aggregator.
    recent: int = 256
    #: overhead-meter bucket width — 1 s buckets (the Table II default)
    #: would accumulate 1.2M dict entries over a 14-day horizon.
    overhead_window: int = 60 * SEC

    def __post_init__(self) -> None:
        if self.scheduler not in ENGINE_SCHEDULERS:
            raise ValueError(
                f"unknown replay scheduler {self.scheduler!r} "
                f"(expected one of {ENGINE_SCHEDULERS})")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.notify_latency < 0:
            raise ValueError("notify_latency must be >= 0")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError("horizon must be positive (us)")
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive (us)")
        if self.overhead_window <= 0:
            raise ValueError("overhead_window must be positive")


def _bound_sfs_buffers(sfs: SFS, cap: int = SAMPLE_CAP) -> None:
    """Swap the unbounded diagnostic lists inside SFS for bounded
    deques.  Safe before any event has fired: all three are pure
    sample sinks (appended to, read only at render time)."""
    for queue in {id(q): q for q in sfs.queues}.values():
        queue.delay_samples = deque(queue.delay_samples, maxlen=cap)
    sfs.monitor.timeline = deque(sfs.monitor.timeline, maxlen=cap)
    sfs.overload.events = deque(sfs.overload.events, maxlen=cap)


class StreamReplayDriver:
    """One streaming replay: cursor in, deterministic summary out.

    The driver object is the checkpoint root: pickling it captures the
    simulator (heap included), host, machine, SFS, cursor, aggregator
    and watchdog as one aliasing-preserving graph.
    """

    def __init__(self, stream: RequestStream, cfg: ReplayConfig,
                 aggregator: Optional[StreamSummary] = None,
                 checkpointer=None, watchdog=None):
        self.cfg = cfg
        self.stream_meta = dict(stream.meta)
        self.cursor: StreamCursor = stream.cursor()
        self.aggregator = aggregator or StreamSummary(recent=cfg.recent)
        self.checkpointer = checkpointer
        self.watchdog = watchdog
        self.core = Driver(f"replay {cfg.scheduler}/{cfg.engine}",
                           invariants=False)
        self.sim = self.core.sim
        self.host = Host(self.sim, cfg.scheduler, cfg.engine, cfg.machine,
                         cfg.sfs, notify_latency=cfg.notify_latency,
                         sink=self)
        self.machine = self.host.machine
        self.sfs: Optional[SFS] = self.host.sfs
        if self.sfs is not None:
            # long-horizon bounds: coarse overhead buckets, capped
            # diagnostic sample lists (see module docstring)
            self.sfs.overhead = OverheadMeter(window=cfg.overhead_window)
            _bound_sfs_buffers(self.sfs)
        self.done = 0
        self.admitted = 0
        self.checkpoints_written = 0
        self.resumed_from: Optional[int] = None
        self.core.feed(self.cursor, self.host.arrive, horizon=cfg.horizon)
        if cfg.checkpoint_every is not None:
            self.sim.schedule(cfg.checkpoint_every, self._on_checkpoint_tick)

    # ------------------------------------------------------------------
    # result sink (see repro.faas.driver.Host)
    # ------------------------------------------------------------------
    def spawned(self, spec: RequestSpec, task: Task) -> None:
        self.admitted += 1

    def finished(self, spec: RequestSpec, task: Task) -> None:
        self.done += 1
        self.aggregator.observe(spec, task,
                                inflight=self.admitted - self.done + 1)

    # ------------------------------------------------------------------
    # event handlers: bound methods only — these live in the heap
    # ------------------------------------------------------------------
    def _on_checkpoint_tick(self) -> None:
        """Periodic housekeeping: rearm, watchdog, checkpoint.

        Rearm comes first so the pickled heap already carries the next
        tick; the tick dies with the run (no other live events = the
        replay is over) exactly like the gauge sampler's rule.
        """
        if self.sim.pending > 0:
            self.sim.schedule(self.cfg.checkpoint_every,
                              self._on_checkpoint_tick)
        if self.watchdog is not None:
            self.watchdog.check(self)  # may raise MemoryBudgetExceeded
        if self.checkpointer is not None:
            self.checkpointer.save(self)

    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> Dict[str, object]:
        """Drive the replay to completion and return the summary dict.

        ``until`` stops the loop at a virtual time with work pending —
        only useful in tests that then abandon this driver and restore
        a checkpointed copy.
        """
        self.core.drain([self.host], f"requests under {self.cfg.scheduler}/"
                        f"{self.cfg.engine}", until=until)
        if until is None:
            self.aggregator.close()
        return self.summary()

    def summary(self) -> Dict[str, object]:
        meta = dict(self.stream_meta)
        if self.cfg.horizon is not None:
            meta["horizon_us"] = self.cfg.horizon
            meta["truncated_at_horizon"] = self.core.truncated_at_horizon
        return self.aggregator.result(
            sim_time=self.sim.now,
            busy_time=self.machine.busy_time,
            n_cores=self.machine.n_cores,
            events_executed=self.sim.events_executed,
            scheduler=self.cfg.scheduler,
            engine=self.cfg.engine,
            meta=meta,
        )

    # ------------------------------------------------------------------
    def tighten_buffers(self) -> None:
        """Watchdog soft-threshold hook: shrink diagnostic memory."""
        self.aggregator.tighten()
        if self.sfs is not None:
            _bound_sfs_buffers(self.sfs, cap=max(
                64, SAMPLE_CAP // (2 ** min(8, 1 + (
                    self.watchdog.soft_trips if self.watchdog else 1)))))

    # ------------------------------------------------------------------
    def config_dict(self) -> Dict[str, object]:
        """JSON-safe configuration key for checkpoint manifests: a
        resume with different replay parameters must be refused."""
        cfg = self.cfg
        return {
            "scheduler": cfg.scheduler,
            "engine": cfg.engine,
            "n_cores": cfg.machine.n_cores,
            "ctx_switch_cost": cfg.machine.ctx_switch_cost,
            "notify_latency": cfg.notify_latency,
            "horizon": cfg.horizon,
            "checkpoint_every": cfg.checkpoint_every,
            "stream": {k: v for k, v in sorted(self.stream_meta.items())},
            "n_requests": self.cursor.config.n_requests,
        }
