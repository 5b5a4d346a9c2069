"""OpenLambda end-to-end pipeline (Fig 5) and its run driver.

The invocation path: client → HTTP gateway → OpenLambda worker →
sandbox server → (warm container) → OS dispatch.  When SFS is ported,
the sandbox server additionally sends SFS a UDP message with the
function process' PID and invocation timestamp (§VI).  The platform is
a :class:`repro.faas.driver.Host` whose front-end stages are those
hops; the spawn, notify and finish step is the host's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.core.config import SFSConfig
from repro.faas.coldstart import ColdStartConfig, KeepAliveCache
from repro.faas.driver import ENGINE_SCHEDULERS, ENGINES, Driver, Host
from repro.faas.overheads import OverheadModel
from repro.faas.sandbox import ContainerPool
from repro.faults.plan import FaultPlan
from repro.faults.policy import AdmissionControl, RetryPolicy
from repro.faults.runtime import FaultHandling, FaultRuntime
from repro.machine.base import MachineParams
from repro.metrics.collector import RunResult
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.trace import events as tev
from repro.workload.spec import RequestSpec, Workload


@dataclass(frozen=True)
class OpenLambdaConfig(FaultHandling):
    """Platform deployment parameters (§IX uses 72 cores)."""

    machine: MachineParams = field(default_factory=lambda: MachineParams(n_cores=72))
    engine: str = "fluid"
    scheduler: str = "cfs"  # one of ENGINE_SCHEDULERS
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
        if self.scheduler not in ENGINE_SCHEDULERS:
            raise ValueError(
                f"unknown OpenLambda scheduler {self.scheduler!r} "
                f"(expected one of {ENGINE_SCHEDULERS})")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (us)")

    def with_scheduler(self, scheduler: str) -> "OpenLambdaConfig":
        return replace(self, scheduler=scheduler)


class OpenLambdaPlatform(Host):
    """Simulated OpenLambda deployment on one big host.

    ``faults`` is the run's :class:`~repro.faults.runtime.FaultRuntime`
    governor; a cluster passes one shared governor to every host, a
    standalone run lets the platform build its own.
    """

    def __init__(self, sim: Simulator, config: OpenLambdaConfig,
                 faults: Optional[FaultRuntime] = None):
        super().__init__(
            sim, config.scheduler, config.engine, config.machine, config.sfs,
            faults=faults if faults is not None else config.governor(sim))
        self.config = config
        self.pool = ContainerPool(config.container_capacity)
        self.rng = make_rng(config.seed)
        self.coldstart: Optional[KeepAliveCache] = (
            KeepAliveCache(sim, config.coldstart, self.rng)
            if config.coldstart is not None
            else None
        )
        #: host failure injected: drop everything until recovery
        self.down = False
        self._probe.register("platform")

    # ------------------------------------------------------------------
    # invocation pipeline
    # ------------------------------------------------------------------
    def invoke(self, spec: RequestSpec) -> None:
        """Client HTTP request arrives at the gateway (step 1)."""
        if self.arrive(spec) and self._probe_on:
            self._probe.invoke()

    def _stages(self, spec: RequestSpec) -> None:
        """The attempt crosses the gateway and the OL worker."""
        ov = self.config.overheads
        delay = ov.gateway.sample(self.rng) + ov.ol_worker.sample(self.rng)
        self.sim.schedule(delay, self._at_sandbox_server, spec)

    def _at_sandbox_server(self, spec: RequestSpec) -> None:
        """OL worker forwarded the request; acquire a warm container."""
        if not self._dropped(spec, slot=False):
            self.pool.acquire(spec.app or spec.name,
                              lambda: self._dispatch(spec))

    def _dispatch(self, spec: RequestSpec) -> None:
        """Sandbox server starts the function process in the container."""
        if self._dropped(spec) or self._provision_failed(spec):
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
        if not self._dropped(spec, container=True):
            super()._spawn(spec)

    def _notify_delay(self) -> int:
        # UDP message (pid, invocation timestamp) to the SFS queue
        return self.config.overheads.udp_notify.sample(self.rng)

    def _free(self, spec: RequestSpec, slot: bool = True,
              container: bool = False) -> None:
        if slot:
            self.pool.release(spec.app or spec.name)
        if container and self.coldstart is not None:
            self.coldstart.release(spec.name or spec.app)

    # ------------------------------------------------------------------
    # failure paths
    # ------------------------------------------------------------------
    def _dropped(self, spec: RequestSpec, slot: bool = True,
                 container: bool = False) -> bool:
        """Does the attempt end at this stage boundary?  A settled
        request (a hedge sibling answered) returns what it holds; on a
        down host the attempt fails and its container dies with it."""
        if self.faults is None:
            return False
        if self.faults.settled(spec.req_id):
            self._free(spec, slot, container)
            self.outstanding -= 1
            return True
        if self.down:
            self._free(spec, slot)
            self._fail_before_spawn(spec, reason="host")
            return True
        return False

    def fail_host(self) -> None:
        """Host failure: kill all in-flight work, reject the pipeline."""
        self.down = True
        for _spec, task in list(self._inflight.values()):
            self.machine.kill(task, "host")

    def recover_host(self) -> None:
        self.down = False

    # ------------------------------------------------------------------
    # structured tracing / metrics
    # ------------------------------------------------------------------
    def gauge_keys(self) -> Tuple[Tuple[str, int], ...]:
        """The platform-level gauges (see ``MachineBase.gauge_keys``).

        ``core`` carries the cluster host index (as in ``fault.host_*``
        events); -1 on a standalone deployment.
        """
        keys = ((tev.GAUGE_OUTSTANDING, self.host_index),)
        if self.coldstart is not None:
            keys += ((tev.GAUGE_KEEPALIVE, self.host_index),)
        return keys

    def gauge_values(self, out: list) -> None:
        out.append(self.outstanding)
        if self.coldstart is not None:
            out.append(self.coldstart.warm_total())


def run_openlambda(workload: Workload, config: OpenLambdaConfig,
                   trace=None, metrics=None) -> RunResult:
    """Replay a workload through the full OpenLambda pipeline.

    Invariant checking follows ``REPRO_INVARIANTS`` (see
    :mod:`repro.invariants`): the checker audits the machine, runqueues
    and keep-alive cache during the run and the record/arrival closure
    afterwards.  ``trace`` / ``metrics`` install a recorder / registry
    on the simulator (defaults stay the zero-overhead nulls).
    """
    driver = Driver(
        f"openlambda scheduler={config.scheduler} engine={config.engine}",
        workload.meta.get("seed"), None, trace, metrics)
    sim = driver.sim
    platform = OpenLambdaPlatform(sim, config)
    sim.probe.attach_sampler(platform.machine, platform.sfs, platform)
    driver.feed(workload, platform.invoke)
    driver.drain([platform], "OpenLambda requests")
    meta = dict(workload.meta)
    meta["events_executed"] = sim.events_executed
    if platform.coldstart is not None:
        meta["coldstart_stats"] = platform.coldstart.stats
    return driver.result(workload, [platform], platform.faults, meta,
                         f"openlambda+{config.scheduler}", config.engine,
                         platform.sfs)
