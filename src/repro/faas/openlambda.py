"""OpenLambda end-to-end pipeline (Fig 5) and its run driver.

The invocation path: client → HTTP gateway → OpenLambda worker →
sandbox server → (warm container) → OS dispatch.  When SFS is ported,
the sandbox server additionally sends SFS a UDP message with the
function process' PID and invocation timestamp (§VI).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.config import SFSConfig
from repro.core.sfs import SFS
from repro.faas.coldstart import ColdStartConfig, KeepAliveCache
from repro.faas.overheads import OverheadModel
from repro.faas.sandbox import ContainerPool
from repro.faults.plan import FaultPlan
from repro.faults.policy import AdmissionControl, RetryPolicy
from repro.faults.runtime import FaultRuntime
from repro.invariants.checker import resolve_checker
from repro.machine.base import MachineBase, MachineParams
from repro.machine.discrete import DiscreteMachine
from repro.machine.fluid import FluidMachine
from repro.metrics.collector import RunResult, build_records
from repro.sim.engine import Simulator
from repro.sim.rng import SeedLike, make_rng
from repro.sim.task import SchedPolicy, Task
from repro.trace import events as tev
from repro.workload.spec import RequestSpec, Workload


@dataclass(frozen=True)
class OpenLambdaConfig:
    """Platform deployment parameters (§IX uses 72 cores)."""

    machine: MachineParams = field(default_factory=lambda: MachineParams(n_cores=72))
    engine: str = "fluid"
    scheduler: str = "cfs"  # "cfs" or "sfs"
    sfs: SFSConfig = field(default_factory=SFSConfig)
    overheads: OverheadModel = field(default_factory=OverheadModel)
    container_capacity: int = 10_000
    #: None = the paper's pre-warmed setup (zero cold starts, SVI);
    #: a ColdStartConfig enables keep-alive caching with cold-start
    #: penalties (SX's discussion, the ext-coldstart experiment).
    coldstart: Optional[ColdStartConfig] = None
    seed: int = 0
    # --- fault injection & failure handling (repro.faults) ------------
    #: what goes wrong (None = nothing injected)
    faults: Optional[FaultPlan] = None
    #: how failed attempts are retried (None = fail fast)
    retry: Optional[RetryPolicy] = None
    #: front-door load shedding (None = admit everything)
    admission: Optional[AdmissionControl] = None
    #: per-request deadline in us from arrival (None = no deadline)
    timeout: Optional[int] = None

    def __post_init__(self) -> None:
        if self.scheduler not in ("cfs", "sfs"):
            raise ValueError("OpenLambda runs use 'cfs' or 'sfs'")
        if self.engine not in ("fluid", "discrete"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (us)")

    @property
    def fault_handling(self) -> bool:
        """Does this deployment need a fault governor at all?

        False keeps the platform on the exact pre-fault code path — a
        nominal run is bit-identical to one built without repro.faults.
        """
        return (
            self.faults is not None
            or self.retry is not None
            or self.admission is not None
            or self.timeout is not None
        )

    def with_scheduler(self, scheduler: str) -> "OpenLambdaConfig":
        return replace(self, scheduler=scheduler)


class OpenLambdaPlatform:
    """Simulated OpenLambda deployment on one big host.

    ``faults`` is the run's :class:`~repro.faults.runtime.FaultRuntime`
    governor; a cluster passes one shared governor to every host, a
    standalone run lets the platform build its own.  When it is None
    (no fault configuration) every boundary check below short-circuits
    on a single attribute load, so nominal runs take the exact pre-fault
    code path.
    """

    def __init__(self, sim: Simulator, config: OpenLambdaConfig,
                 faults: Optional[FaultRuntime] = None):
        self.sim = sim
        self.config = config
        engine_cls = FluidMachine if config.engine == "fluid" else DiscreteMachine
        self.machine: MachineBase = engine_cls(sim, config.machine)
        self.sfs: Optional[SFS] = (
            SFS(self.machine, config.sfs) if config.scheduler == "sfs" else None
        )
        self.pool = ContainerPool(config.container_capacity)
        self.rng = make_rng(config.seed)
        self.coldstart: Optional[KeepAliveCache] = (
            KeepAliveCache(sim, config.coldstart, self.rng)
            if config.coldstart is not None
            else None
        )
        if faults is None and config.fault_handling:
            faults = FaultRuntime(
                sim, plan=config.faults, retry=config.retry,
                admission=config.admission, timeout=config.timeout,
            )
        self.faults = faults
        #: host failure injected: drop everything until recovery
        self.down = False
        self.pairs: List[Tuple[RequestSpec, Task]] = []
        self.machine.on_finish(self._on_finish)
        self._app_of: Dict[int, str] = {}
        self._fn_of: Dict[int, str] = {}
        self._spec_of: Dict[int, RequestSpec] = {}
        self._live: Dict[int, Task] = {}
        #: requests accepted but not yet finished (global-scheduler load)
        self.outstanding: int = 0
        #: cluster slot for gauge labelling (-1 = standalone host)
        self.host_index: int = -1
        self._probe = sim.probe
        self._probe_on = self._probe.enabled
        self._probe.register("platform")

    # ------------------------------------------------------------------
    # invocation pipeline
    # ------------------------------------------------------------------
    def invoke(self, spec: RequestSpec) -> None:
        """Client HTTP request arrives at the gateway (step 1)."""
        if self.faults is not None and not self.faults.admit(spec, self.outstanding):
            return  # load shed: 429 before any work happens
        self.outstanding += 1
        if self._probe_on:
            self._probe.invoke()
        self._ingress(spec)

    def _ingress(self, spec: RequestSpec) -> None:
        """One attempt (fresh or retry) enters the gateway pipeline."""
        if self.faults is not None:
            if self.faults.expired(spec):  # deadline passed while backing off
                self.outstanding -= 1
                self.faults.mark_timeout(spec)
                return
            self.faults.begin(spec)
        ov = self.config.overheads
        delay = ov.gateway.sample(self.rng) + ov.ol_worker.sample(self.rng)
        self.sim.schedule(delay, self._at_sandbox_server, spec)

    def retry_entry(self, spec: RequestSpec) -> None:
        """A retry lands on this host (possibly routed from another)."""
        self.outstanding += 1
        self._ingress(spec)

    def _at_sandbox_server(self, spec: RequestSpec) -> None:
        """OL worker forwarded the request; acquire a warm container."""
        if self.faults is not None:
            if self.faults.settled(spec.req_id):
                self.outstanding -= 1  # hedge sibling already answered
                return
            if self.down:
                self._fail_before_spawn(spec, reason="host")
                return
        self.pool.acquire(spec.app or spec.name, lambda: self._dispatch(spec))

    def _dispatch(self, spec: RequestSpec) -> None:
        """Sandbox server starts the function process in the container."""
        if self.faults is not None:
            if self.faults.settled(spec.req_id):
                self.pool.release(spec.app or spec.name)
                self.outstanding -= 1
                return
            if self.down:
                self.pool.release(spec.app or spec.name)
                self._fail_before_spawn(spec, reason="host")
                return
            if self.faults.coldstart_faulted(spec):
                # container provisioning failed: the slot is freed, the
                # attempt dies before a process ever exists
                self.pool.release(spec.app or spec.name)
                self._fail_before_spawn(spec)
                return
        ov = self.config.overheads
        delay = ov.sandbox_server.sample(self.rng)
        if self.coldstart is not None:
            # warm hit: 0; otherwise the container must be provisioned
            cold = self.coldstart.acquire(spec.name or spec.app)
            delay += cold
            if self._probe_on and cold > 0:
                self._probe.cold_start(cold)
        self.sim.schedule(delay, self._spawn, spec)

    def _spawn(self, spec: RequestSpec) -> None:
        if self.faults is not None:
            if self.faults.settled(spec.req_id):
                self.pool.release(spec.app or spec.name)
                if self.coldstart is not None:
                    self.coldstart.release(spec.name or spec.app)
                self.outstanding -= 1
                return
            if self.down:
                self.pool.release(spec.app or spec.name)
                self._fail_before_spawn(spec, reason="host")
                return
        task = spec.make_task(policy=SchedPolicy.CFS)
        self.pairs.append((spec, task))
        if self._probe_on:
            # same lifecycle mark the bare-machine runner emits, so
            # repro.why can reconstruct platform runs too
            self._probe.task_spawn(task, spec)
        self._app_of[task.tid] = spec.app or spec.name
        self._fn_of[task.tid] = spec.name or spec.app
        if self.faults is not None:
            self._spec_of[task.tid] = spec
            self._live[task.tid] = task
        self.machine.spawn(task)
        if self.faults is not None:
            self.faults.arm(spec, task, self.machine)
            self.faults.note_spawn(spec, task, self.host_index)
        if self.sfs is not None:
            # UDP message (pid, invocation timestamp) to the SFS queue
            notify = self.config.overheads.udp_notify.sample(self.rng)
            self.sim.schedule(notify, self.sfs.submit, task, spec.arrival)

    def _on_finish(self, task: Task) -> None:
        app = self._app_of.pop(task.tid, None)
        if app is not None:
            self.pool.release(app)
        fn = self._fn_of.pop(task.tid, None)
        if fn is not None and self.coldstart is not None and not task.killed:
            # a killed sandbox is destroyed, not returned to the cache
            self.coldstart.release(fn)
        if self.faults is None:
            self.outstanding -= 1
            return
        self._live.pop(task.tid, None)
        spec = self._spec_of.pop(task.tid)
        delay = self.faults.on_task_end(spec, task)
        self.outstanding -= 1  # this host's involvement in the attempt ends
        if delay is not None:
            self.sim.schedule(delay, self._route_retry, spec)

    # ------------------------------------------------------------------
    # failure paths
    # ------------------------------------------------------------------
    def _fail_before_spawn(self, spec: RequestSpec,
                           reason: str = "crash") -> None:
        """The attempt died before a process existed (provisioning
        failure or the host went down mid-pipeline)."""
        self.outstanding -= 1
        delay = self.faults.fail_attempt(spec, reason=reason,
                                         host=self.host_index)
        if delay is not None:
            self.sim.schedule(delay, self._route_retry, spec)

    def _route_retry(self, spec: RequestSpec) -> None:
        """Backoff elapsed: re-dispatch, through the cluster if any."""
        router = self.faults.retry_router
        if router is not None:
            router(spec)
        else:
            self.retry_entry(spec)

    def fail_host(self) -> None:
        """Host failure: kill all in-flight work, reject the pipeline."""
        self.down = True
        for task in list(self._live.values()):
            self.machine.kill(task, "host")

    def recover_host(self) -> None:
        self.down = False

    # ------------------------------------------------------------------
    # structured tracing / metrics
    # ------------------------------------------------------------------
    def sample_gauges(self, probe, now: int) -> None:
        """Emit platform-level gauges (called by the periodic sampler).

        ``core`` carries the cluster host index (as in ``fault.host_*``
        events); -1 on a standalone deployment.
        """
        probe.gauge(now, tev.GAUGE_OUTSTANDING, self.outstanding,
                    self.host_index)
        if self.coldstart is not None:
            probe.gauge(now, tev.GAUGE_KEEPALIVE,
                        self.coldstart.warm_total(), self.host_index)


def run_openlambda(workload: Workload, config: OpenLambdaConfig,
                   trace=None, metrics=None) -> RunResult:
    """Replay a workload through the full OpenLambda pipeline.

    Invariant checking follows ``REPRO_INVARIANTS`` (see
    :mod:`repro.invariants`): the checker audits the machine, runqueues
    and keep-alive cache during the run and the record/arrival closure
    afterwards.  ``trace`` / ``metrics`` install a recorder / registry
    on the simulator (defaults stay the zero-overhead nulls).
    """
    checker = resolve_checker(
        None, seed=workload.meta.get("seed"),
        label=f"openlambda scheduler={config.scheduler} engine={config.engine}",
    )
    sim = Simulator(trace=trace, invariants=checker, metrics=metrics)
    platform = OpenLambdaPlatform(sim, config)
    sim.probe.attach_sampler(platform.machine, platform.sfs, platform)
    for spec in workload:
        sim.schedule_at(spec.arrival, platform.invoke, spec)
    sim.run()
    unfinished = [s.req_id for s, t in platform.pairs if not t.finished]
    if unfinished:
        raise RuntimeError(
            f"{len(unfinished)} OpenLambda requests never finished "
            f"(first: {unfinished[:5]})"
        )
    sfs = platform.sfs
    meta = dict(workload.meta)
    meta["events_executed"] = sim.events_executed
    if platform.coldstart is not None:
        meta["coldstart_stats"] = platform.coldstart.stats
    if platform.faults is not None:
        meta["fault_stats"] = platform.faults.stats.as_dict()
    records = build_records(platform.pairs, faults=platform.faults)
    if checker.enabled:
        checker.check_accounting(
            workload, records,
            platform.faults.stats.as_dict() if platform.faults is not None else None,
        )
        meta["invariant_checks"] = checker.summary()
    return RunResult(
        scheduler=f"openlambda+{config.scheduler}",
        engine=config.engine,
        records=records,
        sim_time=sim.now,
        busy_time=platform.machine.busy_time,
        n_cores=platform.machine.n_cores,
        sfs_stats=sfs.stats if sfs else None,
        slice_timeline=list(sfs.monitor.timeline) if sfs else None,
        queue_delay_samples=sfs.delay_samples() if sfs else None,
        overhead=sfs.overhead if sfs else None,
        meta=meta,
    )
