"""Shared experiment driver: replay one workload under one scheduler.

The same :class:`repro.workload.spec.Workload` can be executed under
``cfs`` / ``fifo`` / ``rr`` (plain kernel classes), ``sfs`` (CFS +
the user-space SFS layer), ``srtf`` (the clairvoyant oracle) or
``ideal`` (infinite resources), on either machine engine.  Per-request
results come back as a :class:`repro.metrics.collector.RunResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.config import SFSConfig
from repro.core.sfs import SFS
from repro.faults.plan import FaultPlan
from repro.faults.policy import AdmissionControl, RetryPolicy
from repro.faults.runtime import FaultRuntime
from repro.invariants.checker import resolve_checker
from repro.machine.base import MachineParams
from repro.machine.discrete import DiscreteMachine
from repro.machine.fluid import FluidMachine
from repro.metrics.collector import RunResult, build_records
from repro.sched.ideal import IdealMachine
from repro.sched.srtf import SRTFMachine
from repro.sim.engine import Simulator
from repro.sim.task import SchedPolicy, Task
from repro.trace import RunManifest
from repro.workload.spec import RequestSpec, Workload

SCHEDULERS = ("cfs", "fifo", "rr", "sfs", "srtf", "ideal")
ENGINES = {"fluid": FluidMachine, "discrete": DiscreteMachine}

_POLICY_FOR = {
    "cfs": SchedPolicy.CFS,
    "fifo": SchedPolicy.FIFO,
    "rr": SchedPolicy.RR,
    "sfs": SchedPolicy.CFS,  # functions start in CFS; SFS promotes them
}


@dataclass(frozen=True)
class RunConfig:
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

    @property
    def fault_handling(self) -> bool:
        """Does this run need a fault governor at all?  False keeps the
        dispatch loop on the exact pre-fault code path."""
        return (
            self.faults is not None
            or self.retry is not None
            or self.admission is not None
            or self.timeout is not None
        )

    def with_scheduler(self, scheduler: str) -> "RunConfig":
        return replace(self, scheduler=scheduler)


def _make_machine(sim: Simulator, cfg: RunConfig):
    if cfg.scheduler == "srtf":
        return SRTFMachine(sim, cfg.machine)
    if cfg.scheduler == "ideal":
        return IdealMachine(sim, cfg.machine)
    return ENGINES[cfg.engine](sim, cfg.machine)


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
    wall_start = time.perf_counter()
    label = f"scheduler={cfg.scheduler} engine={cfg.engine}"
    checker = resolve_checker(
        cfg.invariants, seed=workload.meta.get("seed"), label=label,
    )
    sim = Simulator(trace=trace, invariants=checker, metrics=metrics,
                    label=label, audit=audit)
    if cfg.faults is not None:
        # a straggler entry for host 0 degrades this (single) machine
        speed = cfg.faults.straggler_speed(0)
        if speed != 1.0:
            cfg = replace(cfg, machine=replace(cfg.machine, speed=speed))
    machine = _make_machine(sim, cfg)
    sfs: Optional[SFS] = None
    if cfg.scheduler == "sfs":
        sfs = SFS(machine, cfg.sfs)
    probe = sim.probe
    probe.attach_sampler(machine, sfs)

    governor: Optional[FaultRuntime] = None
    if cfg.fault_handling:
        governor = FaultRuntime(
            sim, plan=cfg.faults, retry=cfg.retry,
            admission=cfg.admission, timeout=cfg.timeout,
        )

    policy = _POLICY_FOR.get(cfg.scheduler, SchedPolicy.CFS)
    pairs: List[Tuple[RequestSpec, Task]] = []
    spec_of: Dict[int, RequestSpec] = {}
    outstanding = [0]  # dispatched-but-unfinished requests (admission)

    def dispatch(spec: RequestSpec) -> None:
        task = spec.make_task(policy=policy)
        pairs.append((spec, task))
        if probe.enabled:
            probe.task_spawn(task, spec)
        if governor is not None:
            spec_of[task.tid] = spec
        machine.spawn(task)
        if governor is not None:
            governor.arm(spec, task, machine)
        if sfs is not None:
            if cfg.notify_latency > 0:
                sim.schedule(cfg.notify_latency, sfs.submit, task, spec.arrival)
            else:
                sfs.submit(task, spec.arrival)

    # --- fault-handling wrappers (dead code on the nominal path) ------
    def arrive(spec: RequestSpec) -> None:
        if not governor.admit(spec, outstanding[0]):
            return
        outstanding[0] += 1
        ingress(spec)

    def ingress(spec: RequestSpec) -> None:
        if governor.expired(spec):  # deadline passed while backing off
            outstanding[0] -= 1
            governor.mark_timeout(spec)
            return
        governor.begin(spec)
        if governor.coldstart_faulted(spec):  # spawn/provisioning failure
            outstanding[0] -= 1
            delay = governor.fail_attempt(spec)
            if delay is not None:
                sim.schedule(delay, retry_entry, spec)
            return
        dispatch(spec)

    def retry_entry(spec: RequestSpec) -> None:
        outstanding[0] += 1
        ingress(spec)

    def on_finish(task: Task) -> None:
        spec = spec_of.pop(task.tid)
        delay = governor.on_task_end(spec, task)
        outstanding[0] -= 1
        if delay is not None:
            sim.schedule(delay, retry_entry, spec)

    if governor is not None:
        machine.on_finish(on_finish)

    entry = dispatch if governor is None else arrive
    for spec in workload:
        sim.schedule_at(spec.arrival, entry, spec)
    sim.run(max_events=cfg.max_events)

    unfinished = [s.req_id for s, t in pairs if not t.finished]
    if unfinished:
        raise RuntimeError(
            f"{len(unfinished)} requests never finished under "
            f"{cfg.scheduler}/{cfg.engine} (first: {unfinished[:5]})"
        )

    manifest = RunManifest.build(
        run_config=cfg,
        workload=workload,
        sim=sim,
        n_cores=machine.n_cores,
        wall_time_s=time.perf_counter() - wall_start,
        trace=trace,
    )
    meta = dict(workload.meta)
    if governor is not None:
        meta["fault_stats"] = governor.stats.as_dict()
    records = build_records(pairs, faults=governor)
    if checker.enabled:
        checker.check_accounting(
            workload, records,
            governor.stats.as_dict() if governor is not None else None,
        )
        meta["invariant_checks"] = checker.summary()
    return RunResult(
        scheduler=cfg.scheduler,
        engine=cfg.engine,
        records=records,
        sim_time=sim.now,
        busy_time=machine.busy_time,
        n_cores=machine.n_cores,
        sfs_stats=sfs.stats if sfs else None,
        slice_timeline=list(sfs.monitor.timeline) if sfs else None,
        queue_delay_samples=sfs.delay_samples() if sfs else None,
        overhead=sfs.overhead if sfs else None,
        meta=meta,
        manifest=manifest,
    )


def _pool_run_workload(payload) -> RunResult:
    """Module-level pool task: one (workload, config) replay.

    Payloads are shipped pickled, not JSON — a quarantined entry keeps
    only its repr, so paired-run pools are supervised and retried but
    their poison is diagnosable rather than replayable.
    """
    workload, cfg = payload
    return run_workload(workload, cfg)


def run_many(
    workload: Workload, base: RunConfig, schedulers: Tuple[str, ...],
    workers: int = 0,
) -> Dict[str, RunResult]:
    """Replay the same workload under several schedulers (paired runs).

    ``workers > 0`` fans the schedulers out across a supervised
    :func:`repro.pool.run_pool` — each replay is deterministic given
    (workload, config), so the parallel dict equals the serial one.
    """
    if workers > 0 and len(schedulers) > 1:
        from repro.pool import PoolConfig, PoolError, run_pool

        report = run_pool(
            [(s, (workload, base.with_scheduler(s))) for s in schedulers],
            _pool_run_workload,
            PoolConfig(workers=min(workers, len(schedulers))),
        )
        if not report.complete:
            bad = ", ".join(o.item_id for o in report.quarantined)
            raise PoolError(f"paired runs quarantined: {bad}")
        return dict(zip(schedulers, report.results))
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
