"""Extension: SLO under chaos — the resilience scorecard (§VIII-A).

The paper's future-work question is whether SFS's short-job protection
matters *at cluster scale, under real failures*.  This grid answers it
with the ``repro.resilient`` serving tier: health-checked failover,
hedged requests and retry-storm defense from
:mod:`repro.faas.resilience`, driven by three chaos scenarios:

* **domain_outage** — the cluster is split into two fault domains
  (racks) and one whole domain fails for a quarter of the run: the
  correlated-failure mode a per-host window cannot express.  Failover
  re-dispatches the stranded work; hedging covers the detection gap.
* **flaky_host** — host 0 flaps through seeded fail/recover windows
  (:func:`repro.faults.plan.flaky_host_windows`): the gray-failure mode
  where detection latency is paid over and over.
* **retry_storm** — an aggressive crash rate whose naive retries would
  amplify into a storm; the global retry-budget token bucket and
  per-host admission control shed the amplification instead.

Every scenario runs under ``cfs`` and ``sfs`` at {4, 16, 64} hosts with
identical seeds and plans (paired runs).  The scorecard reports SLO
attainment (failures count as misses, :mod:`repro.metrics.slo`),
goodput, and the resilience counters (failovers, hedges, hedge wins,
host-lost, throttled retries).

The grid is a *shard* experiment: each (scenario, scheduler, hosts)
cell is an independent cluster run, so ``shards`` / ``run_shard`` /
``render_shards`` are its whole protocol, and ``repro experiment
ext-resilience --workers N`` runs the cells as :mod:`repro.pool` items.
Cell artifacts are canonical JSON and the rendering reduces them in
grid order, so it is the same bytes at every worker count.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.experiments.common import azure_sampled_workload, machine
from repro.faas.cluster import ClusterConfig, run_cluster
from repro.faas.openlambda import OpenLambdaConfig
from repro.faas.resilience import HedgePolicy, ResilienceConfig, RetryBudget
from repro.faults import AdmissionControl, FaultPlan, RetryPolicy
from repro.faults.plan import flaky_host_windows
from repro.metrics.collector import RunResult
from repro.metrics.faults import fault_summary
from repro.metrics.slo import SLO

SCHEDULERS = ("cfs", "sfs")
SCENARIOS = ("domain_outage", "flaky_host", "retry_storm")

#: the scorecard's bound (matching chaos): p95 within 5x isolated.
RESILIENCE_SLO = SLO(0.95, 5.0, "p95 within 5x")


@dataclass(frozen=True)
class Config:
    n_requests: int = 12_000
    host_counts: Tuple[int, ...] = (4, 16, 64)
    cores_per_host: int = 8
    load: float = 1.0
    #: detection latency: dispatcher liveness-poll period (us), the
    #: same order as SFS's own 4 ms message poller
    health_interval: int = 4_000
    max_failovers: int = 4
    #: hedged requests fire after this per-request base delay (us)
    hedge_delay: int = 50_000
    #: flaky_host scenario: outage windows on host 0
    flaky_windows: int = 3
    #: retry_storm scenario: crash rate, budget and admission watermark
    storm_crash_prob: float = 0.25
    budget_rate_per_sec: float = 25.0
    budget_burst: int = 10
    max_outstanding: int = 64
    #: shared failure handling
    max_attempts: int = 3
    timeout: int = 30_000_000  # 30 s, OpenLambda-ish default

    def __post_init__(self) -> None:
        # JSON round-trips tuples as lists (the pool shard payloads)
        object.__setattr__(self, "host_counts", tuple(self.host_counts))

    @classmethod
    def scaled(cls) -> "Config":
        return cls(n_requests=2_000, host_counts=(4,))


def _domains(n_hosts: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Two racks: the first half of the hosts and the rest."""
    half = max(1, n_hosts // 2)
    return (tuple(range(half)), tuple(range(half, n_hosts)))


def _scenario(config: Config, seed: int, scenario: str, n_hosts: int,
              horizon_us: int):
    """(fault plan, admission, resilience) for one scenario at a size."""
    hedge = HedgePolicy(delay=config.hedge_delay, seed=seed)
    if scenario == "domain_outage":
        first, rest = _domains(n_hosts)
        plan = FaultPlan(
            seed=seed,
            fault_domains=(first, rest) if rest else (first,),
            domain_failures=((0, horizon_us // 4, horizon_us // 2),),
        )
        res = ResilienceConfig(
            health_interval=config.health_interval,
            max_failovers=config.max_failovers, hedge=hedge,
        )
        return plan, None, res
    if scenario == "flaky_host":
        plan = FaultPlan(
            seed=seed,
            host_failures=flaky_host_windows(
                seed, 0, horizon_us, n_windows=config.flaky_windows,
                down_us=max(1, horizon_us // 10)),
        )
        res = ResilienceConfig(
            health_interval=config.health_interval,
            max_failovers=config.max_failovers, hedge=hedge,
        )
        return plan, None, res
    if scenario == "retry_storm":
        plan = FaultPlan(seed=seed, crash_prob=config.storm_crash_prob)
        res = ResilienceConfig(
            health_interval=config.health_interval,
            max_failovers=config.max_failovers,
            retry_budget=RetryBudget(
                rate_per_sec=config.budget_rate_per_sec,
                burst=config.budget_burst),
        )
        return plan, AdmissionControl(config.max_outstanding), res
    raise ValueError(f"unknown scenario {scenario!r}")


def run_cell(config: Config, seed: int, scenario: str, scheduler: str,
             n_hosts: int) -> RunResult:
    """One grid cell: a full fault-tolerant cluster run.

    Regenerates the (deterministic) workload from the seed, so a cell
    computed in a pool worker is identical to the same cell computed
    inline — process history never leaks into the result.
    """
    total_cores = n_hosts * config.cores_per_host
    wl = azure_sampled_workload(config.n_requests, total_cores,
                                config.load, seed)
    horizon = max(spec.arrival for spec in wl) + 1
    plan, admission, res = _scenario(config, seed, scenario, n_hosts,
                                     horizon)
    host = OpenLambdaConfig(
        machine=machine(config.cores_per_host),
        scheduler=scheduler,
        engine="fluid",
        seed=seed,
        faults=plan,
        retry=RetryPolicy(max_attempts=config.max_attempts, seed=seed),
        admission=admission,
        timeout=config.timeout,
    )
    return run_cluster(
        wl,
        ClusterConfig(n_hosts=n_hosts, host=host,
                      placement="least_loaded", resilience=res),
    )


def cell_summary(scenario: str, scheduler: str, n_hosts: int,
                 r: RunResult) -> Dict[str, Any]:
    """JSON-safe digest of one grid cell (plain floats and ints
    round-trip exactly through JSON, so a persisted cell renders
    identically)."""
    s = fault_summary(r)
    stats = r.meta.get("fault_stats", {})
    return {
        "scenario": scenario,
        "scheduler": scheduler,
        "n_hosts": int(n_hosts),
        "slo_attainment": float(RESILIENCE_SLO.attainment(r.records)),
        "goodput_rps": float(s.goodput_rps),
        "goodput_fraction": float(s.goodput_fraction),
        "abandonment_rate": float(s.abandonment_rate),
        "host_lost": int(stats.get("host_lost", 0)),
        "failovers": int(stats.get("failovers", 0)),
        "hedges": int(stats.get("hedges", 0)),
        "hedge_wins": int(stats.get("hedge_wins", 0)),
        "retry_throttled": int(stats.get("retry_throttled", 0)),
        "shed": int(stats.get("shed", 0)),
        "events_executed": int(r.meta.get("events_executed", 0)),
    }


def render_shards(texts: Sequence[str], config: Config) -> str:
    """The SLO-under-chaos scorecard from grid-ordered cell artifacts."""
    cells = [json.loads(t) for t in texts]
    rows = [
        (
            c["scenario"],
            c["scheduler"],
            str(c["n_hosts"]),
            f"{c['slo_attainment']:.1%}",
            f"{c['goodput_fraction']:.1%}",
            str(c["failovers"]),
            str(c["hedges"]),
            str(c["hedge_wins"]),
            str(c["host_lost"]),
            str(c["retry_throttled"]),
        )
        for c in cells
    ]
    table = format_table(
        ["scenario", "sched", "hosts", f"SLO ({RESILIENCE_SLO.name})",
         "good %", "failovers", "hedges", "hedge wins", "host lost",
         "throttled"],
        rows,
        title=(
            "resilience scorecard: SLO under domain outages, a flaky "
            "host, and a retry storm (failover + hedging + retry budget)"
        ),
    )
    att: Dict[Tuple[str, int], Dict[str, float]] = {}
    for c in cells:
        att.setdefault((c["scenario"], c["n_hosts"]), {})[c["scheduler"]] \
            = c["slo_attainment"]
    lines = []
    for (sc, n), by_sched in att.items():
        if "cfs" in by_sched and "sfs" in by_sched:
            delta = by_sched["sfs"] - by_sched["cfs"]
            lines.append(
                f"SFS SLO attainment delta over CFS under {sc} at "
                f"{n} hosts: {delta:+.1%}")
    return table + "\n" + "\n".join(lines)


def shards(config: Config, seed: int) -> List[Tuple[str, Dict[str, Any]]]:
    """``(shard_id, payload)`` for every grid cell, in grid order."""
    return [
        (f"{scenario}.{scheduler}.h{n}",
         {"scenario": scenario, "scheduler": scheduler, "n_hosts": n,
          "seed": seed, "config": asdict(config)})
        for scenario in SCENARIOS
        for scheduler in SCHEDULERS
        for n in config.host_counts
    ]


def run_shard(payload: Dict[str, Any]) -> str:
    """Execute one cell in (possibly) a pool worker; returns the cell
    artifact: one line of canonical JSON."""
    config = Config(**payload["config"])
    r = run_cell(config, payload["seed"], payload["scenario"],
                 payload["scheduler"], payload["n_hosts"])
    cell = cell_summary(payload["scenario"], payload["scheduler"],
                        payload["n_hosts"], r)
    return json.dumps(cell, sort_keys=True, separators=(",", ":")) + "\n"


def emit_explorers(out_dir, config: Config, seed: int = 0,
                   scenarios: Optional[Sequence[str]] = None):
    """Per-point interactive explorers for the resilience grid.

    Replays the smallest cluster size of each scenario with tracing on
    (both schedulers) and writes ``<scenario>-cfs.html`` /
    ``<scenario>-sfs.html`` plus the aligned ``<scenario>-diff.html``;
    the explorer's fault overlay then shows health marks, failover
    re-dispatches, hedge launches/wins and throttle decisions.  Returns
    the written paths.
    """
    from repro.experiments.common import write_point_pages
    from repro.explore import RunBundle
    from repro.trace import TraceRecorder

    n_hosts = min(config.host_counts)
    total_cores = n_hosts * config.cores_per_host
    paths = []
    for scenario in SCENARIOS:
        if scenarios is not None and scenario not in scenarios:
            continue
        wl = azure_sampled_workload(config.n_requests, total_cores,
                                    config.load, seed)
        horizon = max(spec.arrival for spec in wl) + 1
        plan, admission, res = _scenario(config, seed, scenario, n_hosts,
                                         horizon)
        pages = []
        for scheduler in SCHEDULERS:
            trace = TraceRecorder()
            host = OpenLambdaConfig(
                machine=machine(config.cores_per_host),
                scheduler=scheduler, engine="fluid", seed=seed,
                faults=plan,
                retry=RetryPolicy(max_attempts=config.max_attempts,
                                  seed=seed),
                admission=admission, timeout=config.timeout,
            )
            r = run_cluster(
                wl,
                ClusterConfig(n_hosts=n_hosts, host=host,
                              placement="least_loaded", resilience=res),
                trace=trace,
            )
            title = f"{scenario} — {scheduler}"
            pages.append((scheduler, title,
                          RunBundle.capture(r, trace, title=title)))
        paths.extend(write_point_pages(out_dir, scenario, pages))
    return paths
