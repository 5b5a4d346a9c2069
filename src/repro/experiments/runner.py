"""Shared experiment driver: replay one workload under one scheduler.

The same :class:`repro.workload.spec.Workload` can be executed under
``cfs`` / ``fifo`` / ``rr`` (plain kernel classes), ``sfs`` (CFS +
the user-space SFS layer), ``srtf`` (the clairvoyant oracle) or
``ideal`` (infinite resources), on either machine engine.  Per-request
results come back as a :class:`repro.metrics.collector.RunResult`.
The run itself goes through the shared driver core,
:mod:`repro.faas.driver`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.core.config import SFSConfig
from repro.faas.driver import ENGINES, SCHEDULERS, run_host
from repro.faults.plan import FaultPlan
from repro.faults.policy import AdmissionControl, RetryPolicy
from repro.faults.runtime import FaultHandling
from repro.machine.base import MachineParams
from repro.metrics.collector import RunResult
from repro.workload.spec import Workload


@dataclass(frozen=True)
class RunConfig(FaultHandling):
    """How to execute a workload."""

    scheduler: str = "cfs"
    engine: str = "fluid"
    machine: MachineParams = field(default_factory=MachineParams)
    sfs: SFSConfig = field(default_factory=SFSConfig)
    #: FaaS-server -> SFS notification latency (the paper's UDP message,
    #: "hundreds of microseconds" §VI).
    notify_latency: int = 200
    # --- fault injection & failure handling (repro.faults) ------------
    #: what goes wrong; stragglers apply to host 0 (the only host),
    #: host fail/recover windows need a cluster and are ignored here
    faults: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None
    admission: Optional[AdmissionControl] = None
    #: per-request deadline in us from arrival (None = no deadline)
    timeout: Optional[int] = None
    #: runtime invariant checking (repro.invariants): True forces the
    #: checker on, False forces it off, None (default) defers to the
    #: ``REPRO_INVARIANTS`` environment variable (CI sets it)
    invariants: Optional[bool] = None
    #: runaway guard: abort with :class:`repro.sim.engine.SimulationError`
    #: if the run executes more than this many events (None = unbounded,
    #: the exact nominal path).  Armed per-case by the fuzz harness so a
    #: livelocked schedule fails loudly instead of spinning forever.
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.notify_latency < 0:
            raise ValueError("notify_latency must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (us)")
        if self.max_events is not None and self.max_events <= 0:
            raise ValueError("max_events must be positive")

    def with_scheduler(self, scheduler: str) -> "RunConfig":
        return replace(self, scheduler=scheduler)


def run_workload(
    workload: Workload, cfg: RunConfig, trace: Optional[object] = None,
    metrics: Optional[object] = None, audit: Optional[object] = None,
) -> RunResult:
    """Execute ``workload`` under ``cfg`` and collect per-request records.

    Pass a :class:`repro.trace.TraceRecorder` as ``trace`` to capture the
    structured event stream, and/or a
    :class:`repro.obs.MetricsRegistry` as ``metrics`` to aggregate
    streaming instruments, and/or a :class:`repro.why.AuditLog` as
    ``audit`` to capture scheduler decisions; all default to the
    zero-overhead nulls.  The simulator wraps whichever are given in
    its one probe (:mod:`repro.obs.probe`), so every decision site
    costs one predicted branch when all three are null.  The probe is
    read-only, so records are identical either way.
    """
    return run_host(workload, cfg, trace=trace, metrics=metrics, audit=audit)


def run_many(
    workload: Workload, base: RunConfig, schedulers: Tuple[str, ...],
) -> Dict[str, RunResult]:
    """Replay the same workload under several schedulers (paired runs)."""
    return {s: run_workload(workload, base.with_scheduler(s)) for s in schedulers}


def run_bundled(
    workload: Workload, cfg: RunConfig, metrics: Optional[object] = None,
    title: Optional[str] = None, gauge_interval: int = 10_000,
):
    """Execute with tracing on and also return the explorer bundle.

    Returns ``(RunResult, RunBundle)`` — the bundle fuses the trace,
    the registry snapshot (when one is passed), the scheduler-decision
    audit stream, and the run manifest, ready for
    :func:`repro.explore.write_explorer` or ``bundle.save``.
    """
    from repro.explore import RunBundle
    from repro.trace import TraceRecorder
    from repro.why import AuditLog

    recorder = TraceRecorder(gauge_interval=gauge_interval)
    audit = AuditLog()
    res = run_workload(workload, cfg, trace=recorder, metrics=metrics,
                       audit=audit)
    return res, RunBundle.capture(res, recorder, metrics=metrics,
                                  title=title, audit=audit)


def run_many_bundled(
    workload: Workload, base: RunConfig, schedulers: Tuple[str, ...],
    gauge_interval: int = 10_000,
):
    """Paired :func:`run_bundled` runs: ``{scheduler: (result, bundle)}``."""
    return {
        s: run_bundled(workload, base.with_scheduler(s),
                       gauge_interval=gauge_interval)
        for s in schedulers
    }
