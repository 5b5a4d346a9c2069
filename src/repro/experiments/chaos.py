"""Extension: scheduling under failure (the ``repro.faults`` showcase).

The paper evaluates SFS on a healthy machine.  Real FaaS fleets are
never healthy: sandboxes crash, a host seizes or slows down, traffic
spikes past capacity.  This experiment replays the same Azure-sampled
workload on a small OpenLambda cluster under three fault classes and
asks whether SFS's short-job protection survives each one:

* **crash** — every sandbox has a per-attempt probability of dying
  mid-execution; the platform retries with capped exponential backoff.
* **straggler** — one host runs at a fraction of nominal speed (the
  gray-failure mode: alive, slow, still taking work).
* **overload** — arrival rate past capacity with a per-host admission
  watermark, so the front door sheds instead of queueing unboundedly.

Each scenario runs under ``cfs`` and ``sfs`` with identical seeds and
fault plans (paired runs).  The honest metrics under faults are
*goodput* (useful responses per second), retry amplification, shed and
abandonment rates, and SLO attainment where failures count as misses —
all from :mod:`repro.metrics.faults` / :mod:`repro.metrics.slo`.

Expected shape: SFS keeps its goodput and SLO edge over CFS in every
scenario — failures hit both schedulers alike (same plan, same rng
discipline), while SFS still clears short functions faster, which under
deadlines and admission pressure converts directly into fewer timeouts
and sheds.

The grid is a *shard* experiment: each (scenario, scheduler) cell is
an independent cluster run, so :func:`shards` / :func:`run_shard` /
:func:`render_shards` are its whole protocol, and ``repro experiment
chaos --workers N`` runs the cells as :mod:`repro.pool` items.  A cell
artifact is the canonical JSON of its summary metrics; the rendering
reduces them in grid order, so it is the same bytes at every worker
count.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.experiments.common import azure_sampled_workload, machine
from repro.faas.cluster import ClusterConfig, run_cluster
from repro.faas.openlambda import OpenLambdaConfig
from repro.faults import AdmissionControl, FaultPlan, RetryPolicy
from repro.metrics.collector import RunResult
from repro.metrics.faults import fault_summary
from repro.metrics.slo import SLO

SCHEDULERS = ("cfs", "sfs")

#: attainment is measured against this bound (p95 within 5x isolated),
#: the mid rung of metrics.slo.DEFAULT_SLOS.
CHAOS_SLO = SLO(0.95, 5.0, "p95 within 5x")


@dataclass(frozen=True)
class Config:
    n_requests: int = 16_000
    n_hosts: int = 4
    cores_per_host: int = 8
    load: float = 1.0
    #: crash scenario: per-attempt sandbox death probability
    crash_prob: float = 0.05
    #: straggler scenario: host 0's speed fraction
    straggler_speed: float = 0.4
    #: overload scenario: arrival-rate multiplier and per-host watermark
    overload_load: float = 1.4
    max_outstanding: int = 64
    #: shared failure handling
    max_attempts: int = 3
    timeout: int = 30_000_000  # 30 s, OpenLambda-ish default

    @classmethod
    def scaled(cls) -> "Config":
        return cls(n_requests=4_000)


def _scenarios(config: Config, seed: int) -> Dict[str, Tuple[float, FaultPlan, AdmissionControl]]:
    """scenario -> (load, fault plan, admission) triples."""
    return {
        "crash": (
            config.load,
            FaultPlan(seed=seed, crash_prob=config.crash_prob),
            None,
        ),
        "straggler": (
            config.load,
            FaultPlan(seed=seed, stragglers=((0, config.straggler_speed),)),
            None,
        ),
        "overload": (
            config.overload_load,
            FaultPlan(seed=seed),
            AdmissionControl(max_outstanding=config.max_outstanding),
        ),
    }


def run_cell(config: Config, seed: int, scenario: str,
             scheduler: str) -> RunResult:
    """One grid cell: one scenario's fault plan under one scheduler.

    Regenerates the (deterministic) workload from the seed, so a cell
    computed in a pool worker is identical to the same cell computed
    inline — process history never leaks into the result.
    """
    load, plan, admission = _scenarios(config, seed)[scenario]
    total_cores = config.n_hosts * config.cores_per_host
    wl = azure_sampled_workload(config.n_requests, total_cores, load, seed)
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
        ClusterConfig(
            n_hosts=config.n_hosts, host=host, placement="least_loaded"
        ),
    )


def cell_summary(scenario: str, scheduler: str, r: RunResult,
                 ) -> Dict[str, Any]:
    """JSON-safe digest of one grid cell (plain floats round-trip
    exactly through JSON, so a persisted cell renders identically)."""
    s = fault_summary(r)
    return {
        "scenario": scenario,
        "scheduler": scheduler,
        "goodput_rps": float(s.goodput_rps),
        "goodput_fraction": float(s.goodput_fraction),
        "retries_per_request": float(s.retries_per_request),
        "shed_rate": float(s.shed_rate),
        "abandonment_rate": float(s.abandonment_rate),
        "slo_attainment": float(CHAOS_SLO.attainment(r.records)),
        "events_executed": int(r.meta.get("events_executed", 0)),
    }


def render_shards(texts: Sequence[str], config: Config) -> str:
    """The chaos table + goodput gains from grid-ordered cell artifacts."""
    cells = [json.loads(t) for t in texts]
    rows = [
        (
            c["scenario"],
            c["scheduler"],
            f"{c['goodput_rps']:.1f}",
            f"{c['goodput_fraction']:.1%}",
            f"{c['retries_per_request']:.3f}",
            f"{c['shed_rate']:.1%}",
            f"{c['abandonment_rate']:.1%}",
            f"{c['slo_attainment']:.1%}",
        )
        for c in cells
    ]
    table = format_table(
        ["scenario", "sched", "goodput (r/s)", "good %", "retries/req",
         "shed %", "abandoned %", f"SLO ({CHAOS_SLO.name})"],
        rows,
        title=(
            f"chaos: {config.n_hosts}x{config.cores_per_host}"
            "-core cluster under sandbox crashes, a straggler host, and "
            "overload shedding"
        ),
    )
    goodput: Dict[str, Dict[str, float]] = {}
    for c in cells:
        goodput.setdefault(c["scenario"], {})[c["scheduler"]] = \
            c["goodput_rps"]
    gains = []
    for sc, by_sched in goodput.items():
        gain = (by_sched["sfs"] / by_sched["cfs"]
                if by_sched.get("cfs") else float("inf"))
        gains.append(f"SFS goodput gain over CFS under {sc}: {gain:.2f}x")
    return table + "\n" + "\n".join(gains)


def shards(config: Config, seed: int) -> List[Tuple[str, Dict[str, Any]]]:
    """``(shard_id, payload)`` for every grid cell, in grid order."""
    return [
        (f"{scenario}.{scheduler}",
         {"scenario": scenario, "scheduler": scheduler, "seed": seed,
          "config": asdict(config)})
        for scenario in _scenarios(config, seed)
        for scheduler in SCHEDULERS
    ]


def run_shard(payload: Dict[str, Any]) -> str:
    """Execute one cell in (possibly) a pool worker; returns the cell
    artifact: one line of canonical JSON."""
    config = Config(**payload["config"])
    r = run_cell(config, payload["seed"], payload["scenario"],
                 payload["scheduler"])
    cell = cell_summary(payload["scenario"], payload["scheduler"], r)
    return json.dumps(cell, sort_keys=True, separators=(",", ":")) + "\n"


def emit_explorers(out_dir, config: Config, seed: int = 0,
                   scenarios: Optional[Sequence[str]] = None):
    """Per-point interactive explorers for the chaos grid.

    For each scenario this replays a single-host slice of the cluster
    point (``n_requests / n_hosts`` requests on one
    ``cores_per_host``-core machine, same fault plan / retry /
    admission / deadline) under both schedulers with tracing on, and
    writes ``<scenario>-cfs.html`` / ``<scenario>-sfs.html`` plus the
    aligned ``<scenario>-diff.html`` via
    :func:`repro.experiments.common.emit_point_explorers`.  Returns the
    written paths.
    """
    from repro.experiments.common import emit_point_explorers
    from repro.experiments.runner import RunConfig

    paths = []
    for scenario, (load, plan, admission) in _scenarios(config, seed).items():
        if scenarios is not None and scenario not in scenarios:
            continue
        n = max(1, config.n_requests // config.n_hosts)
        wl = azure_sampled_workload(n, config.cores_per_host, load, seed)
        base = RunConfig(
            engine="fluid",
            machine=machine(config.cores_per_host),
            faults=plan,
            retry=RetryPolicy(max_attempts=config.max_attempts, seed=seed),
            admission=admission,
            timeout=config.timeout,
        )
        paths.extend(emit_point_explorers(
            out_dir, wl, base, schedulers=SCHEDULERS, label=scenario))
    return paths
