"""Multi-host FaaS cluster with a global dispatcher (paper future work).

§VIII-A closes with: "Longer functions could be potentially offloaded
to relatively lighter-loaded FaaS servers by the global FaaS scheduler
to mitigate the performance impact, which we plan to investigate as
part of our future work."  This module builds that investigation:

* a cluster of :class:`repro.faas.openlambda.OpenLambdaPlatform` hosts
  sharing one virtual clock;
* a global dispatcher with pluggable placement policies:

  - ``round_robin``  — the baseline spray;
  - ``least_loaded`` — host with the fewest outstanding *requests*;
  - ``least_work``   — host with the least outstanding *predicted CPU
    work* (demand-aware; predictions from
    :class:`repro.core.predictor.DurationPredictor` history);
  - ``offload_long`` — the paper's proposal: short functions spread by
    request count, predicted-long functions go to the host with the
    least outstanding work — "relatively lighter-loaded" in the sense
    that matters to a long function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.core.predictor import DurationPredictor
from repro.faas.driver import Driver
from repro.faas.openlambda import OpenLambdaConfig, OpenLambdaPlatform
from repro.faas.resilience import ResilienceConfig, ResilienceRuntime
from repro.faults.runtime import FaultRuntime
from repro.metrics.collector import RunResult
from repro.sim.engine import Simulator
from repro.sim.task import Task
from repro.sim.units import MS
from repro.trace import RunManifest
from repro.workload.spec import RequestSpec, Workload

PLACEMENT_POLICIES = ("round_robin", "least_loaded", "least_work", "offload_long")


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster layout and placement policy."""

    n_hosts: int = 4
    host: OpenLambdaConfig = field(default_factory=OpenLambdaConfig)
    placement: str = "least_loaded"
    #: predicted CPU demand above which a function counts as "long"
    #: (Table I's gap: nothing lives between 400 ms and 1550 ms).
    long_threshold: int = 400 * MS
    #: per-host relative CPU speeds for heterogeneous clusters (empty =
    #: homogeneous); must be length ``n_hosts``, each in (0, 1].  These
    #: compose multiplicatively with ``FaultPlan.straggler_speed`` — a
    #: permanently-slow host and a transiently-degraded one are
    #: different statements.
    host_speeds: Tuple[float, ...] = ()
    #: failover / hedging / retry-budget policy (None = the fragile
    #: dispatcher: no health checks, stranded work goes host_lost)
    resilience: Optional[ResilienceConfig] = None

    def __post_init__(self) -> None:
        if self.n_hosts <= 0:
            raise ValueError("n_hosts must be positive")
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.long_threshold <= 0:
            raise ValueError("long_threshold must be positive")
        try:
            object.__setattr__(
                self, "host_speeds",
                tuple(float(s) for s in self.host_speeds),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"host_speeds must be numbers, got {self.host_speeds!r}: "
                f"{exc}"
            ) from None
        if self.host_speeds and len(self.host_speeds) != self.n_hosts:
            raise ValueError(
                f"host_speeds has {len(self.host_speeds)} entries for "
                f"{self.n_hosts} hosts; give one speed per host (or none)"
            )
        for i, s in enumerate(self.host_speeds):
            # the explicit != ordering also rejects NaN speeds
            if not (0.0 < s <= 1.0) or s != s:
                raise ValueError(
                    f"host_speeds[{i}] = {s} not in (0, 1] (1.0 = nominal)"
                )


class FaaSCluster:
    """Several OpenLambda hosts behind one global dispatcher."""

    def __init__(self, sim: Simulator, config: ClusterConfig):
        self.sim = sim
        self.config = config
        plan = config.host.faults
        #: one shared governor for the whole cluster (or None): retry
        #: routing must go back through placement, not pin to a host.
        #: A resilience policy forces a governor even with a null fault
        #: config — hedging alone needs attempt accounting.
        self.faults: Optional[FaultRuntime] = config.host.governor(
            sim, force=config.resilience is not None)
        self.hosts: List[OpenLambdaPlatform] = []
        for i in range(config.n_hosts):
            host_cfg = replace(config.host, seed=config.host.seed + i)
            speed = config.host_speeds[i] if config.host_speeds else 1.0
            if plan is not None:
                speed *= plan.straggler_speed(i)
            if speed != 1.0:
                host_cfg = replace(
                    host_cfg, machine=replace(host_cfg.machine, speed=speed)
                )
            self.hosts.append(OpenLambdaPlatform(sim, host_cfg, faults=self.faults))
        #: ground-truth liveness, flipped exactly at the fault window edges
        self._alive: List[bool] = [True] * config.n_hosts
        #: the *dispatcher's* view of liveness.  Without resilience it is
        #: the same list object (placement reacts instantly, the legacy
        #: behaviour); with resilience it is a separate copy that only
        #: the health poller updates, so detection latency is simulated.
        self._view: List[bool] = self._alive
        self.resilience: Optional[ResilienceRuntime] = None
        if config.resilience is not None:
            self._view = list(self._alive)
            self.resilience = ResilienceRuntime(
                sim, config.resilience, self, self.faults)
            self.faults.resilience = self.resilience
            self.resilience.attach()
        if self.faults is not None:
            self.faults.retry_router = self._redispatch
            if plan is not None:
                for host, down_at, up_at in plan.expanded_host_failures():
                    if host >= config.n_hosts:
                        raise ValueError(
                            f"host failure targets host {host} but the "
                            f"cluster has {config.n_hosts} hosts"
                        )
                    sim.schedule_at(down_at, self._host_down, host)
                    sim.schedule_at(up_at, self._host_up, host)
        self._rr = 0
        for idx, host in enumerate(self.hosts):
            host.host_index = idx  # gauge labelling (see gauge_keys)
        self._probe = sim.probe
        self._probe_on = self._probe.enabled
        self._probe.register_cluster(config.n_hosts)
        self.predictor = DurationPredictor()
        #: per-host outstanding predicted CPU work (us) — an estimator:
        #: credit the prediction at dispatch, debit the measured CPU at
        #: finish, and reset whenever the host fully drains (so the
        #: prediction-vs-actual residue cannot accumulate).
        self._work: List[float] = [0.0] * config.n_hosts
        self.placements: List[int] = []
        for idx, host in enumerate(self.hosts):
            host.machine.on_finish(
                lambda task, idx=idx: self._on_host_finish(idx, task)
            )

    # ------------------------------------------------------------------
    def dispatch(self, spec: RequestSpec) -> None:
        """Global scheduler: pick a host and forward the invocation."""
        idx = self._place(spec)
        self.placements.append(idx)
        if self._probe_on:
            self._probe.dispatch(idx)
        self._work[idx] += self.predictor.predict(spec.name or spec.app)
        self.hosts[idx].invoke(spec)
        if self.resilience is not None:
            self.resilience.after_dispatch(spec, idx)

    def _redispatch(self, spec: RequestSpec) -> int:
        """Retry routing: place the attempt fresh (a failed host must
        not get its own retries back while it is down)."""
        idx = self._place(spec)
        self._work[idx] += self.predictor.predict(spec.name or spec.app)
        self.hosts[idx].retry_entry(spec)
        return idx

    def _hedge_dispatch(self, spec: RequestSpec, idx: int) -> None:
        """Launch a hedged backup attempt on a chosen healthy host."""
        if self._probe_on:
            self._probe.dispatch(idx)
        self._work[idx] += self.predictor.predict(spec.name or spec.app)
        self.hosts[idx].retry_entry(spec)

    def _host_down(self, idx: int) -> None:
        self._alive[idx] = False
        if self._probe_on:
            self._probe.host(idx, up=False)
        self.hosts[idx].fail_host()

    def _host_up(self, idx: int) -> None:
        self._alive[idx] = True
        if self._probe_on:
            self._probe.host(idx, up=True)
        self.hosts[idx].recover_host()

    def _place(self, spec: RequestSpec) -> int:
        policy = self.config.placement
        if policy == "round_robin":
            for _ in range(len(self.hosts)):
                idx = self._rr % len(self.hosts)
                self._rr += 1
                if self._view[idx]:
                    return idx
            return idx  # every host down: park it on the last candidate
        if policy == "least_loaded":
            return self._argmin(lambda i: self.hosts[i].outstanding)
        if policy == "least_work":
            return self._argmin(lambda i: self._work[i])
        # offload_long
        predicted = self.predictor.predict(spec.name or spec.app)
        if predicted >= self.config.long_threshold:
            return self._argmin(lambda i: self._work[i])
        return self._argmin(lambda i: self.hosts[i].outstanding)

    def _argmin(self, key) -> int:
        """Least-``key`` host the *dispatcher believes* alive (any host
        when it believes none are — the pipeline then fails the attempt
        at the dead host's door)."""
        best, best_val = None, None
        for i in range(len(self.hosts)):
            if not self._view[i]:
                continue
            v = key(i)
            if best_val is None or v < best_val:
                best, best_val = i, v
        return best if best is not None else 0

    def _on_host_finish(self, idx: int, task: Task) -> None:
        if idx >= len(self.hosts):  # host vanished (defensive)
            return
        if task.cpu_time > 0 and not task.killed:
            # killed attempts are truncated samples: feeding them to the
            # predictor would bias every placement decision downward
            self.predictor.observe(task.name or task.app, task.cpu_time)
        self._work[idx] = max(0.0, self._work[idx] - task.cpu_time)
        if self.hosts[idx].outstanding == 0:
            self._work[idx] = 0.0  # drained: flush estimator residue


def run_cluster(workload: Workload, config: ClusterConfig,
                trace=None, metrics=None, invariants=None) -> RunResult:
    """Replay a workload through the cluster; records merged across hosts.

    Invariant checking follows ``REPRO_INVARIANTS`` (see
    :mod:`repro.invariants`) unless ``invariants`` forces it; one
    checker audits every host machine.  ``trace`` / ``metrics`` install
    a recorder / registry on the shared simulator; per-host gauges
    (outstanding, keep-alive occupancy) are labelled by host index.
    The result's manifest sums the cores of every host and records the
    :class:`ClusterConfig`.
    """
    wall_start = time.perf_counter()
    driver = Driver(
        f"cluster[{config.placement}] scheduler={config.host.scheduler}",
        workload.meta.get("seed"), invariants, trace, metrics)
    sim = driver.sim
    cluster = FaaSCluster(sim, config)
    sim.probe.attach_sampler(*cluster.hosts, cluster.resilience)
    driver.feed(workload, cluster.dispatch)
    driver.drain(cluster.hosts, "cluster requests")
    meta = {
        "placement": config.placement,
        "n_hosts": config.n_hosts,
        "placements": cluster.placements,
        "events_executed": sim.events_executed,
    }
    if config.host_speeds:
        meta["host_speeds"] = list(config.host_speeds)
    if config.resilience is not None:
        meta["resilience"] = config.resilience.to_json()
    scheduler = f"cluster[{config.placement}]+{config.host.scheduler}"
    manifest = RunManifest.build(
        run_config=config,
        workload=workload,
        sim=sim,
        n_cores=sum(host.machine.n_cores for host in cluster.hosts),
        wall_time_s=time.perf_counter() - wall_start,
        trace=trace,
        scheduler=scheduler,
        engine=config.host.engine,
    )
    return driver.result(
        workload, cluster.hosts, cluster.faults, meta, scheduler,
        config.host.engine, manifest=manifest)
