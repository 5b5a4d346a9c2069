"""OpenLambda end-to-end sweep powering Figs 13-16 (§IX-A).

The comprehensive fib+md+sa workload through the full platform pipeline
(gateway -> OL worker -> sandbox -> OS) at 80/90/100 % load under
OpenLambda+CFS and OpenLambda+SFS.  The paper's anchors:

* Fig 13 — functions ran on average 14.1 % longer with CFS at 80 %
  load; SFS stays nearly identical across loads while CFS degrades;
* Fig 14 — RTE distributions;
* Fig 15 — p99 durations: SFS ~4.75 s, speedups 1.65x/4.04x/7.93x over
  CFS at 80/90/100 %;
* Fig 16 — context-switch ratio CDF: CFS switches more for > 99 % of
  requests, >= 10x more for ~85 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.experiments.common import azure_sampled_workload, machine
from repro.faas.openlambda import OpenLambdaConfig, run_openlambda
from repro.metrics.collector import RunResult
from repro.workload.faasbench import OPENLAMBDA_MIX


@dataclass(frozen=True)
class Config:
    n_requests: int = 30_000
    n_cores: int = 72
    loads: Tuple[float, ...] = (0.8, 0.9, 1.0)
    engine: str = "fluid"
    #: §IX reuses the Azure-sampled IAT distribution, i.e. the replayed
    #: trace including its transient spikes — the bursty process here.
    iat_kind: str = "bursty"

    @classmethod
    def scaled(cls) -> "Config":
        return cls(n_requests=8_000, n_cores=24)


@dataclass
class Result:
    #: load -> scheduler ("cfs"|"sfs") -> RunResult
    runs: Dict[float, Dict[str, RunResult]]
    config: Config


SCHEDULERS = ("cfs", "sfs")


def run_cell(config: Config, seed: int, load: float,
             scheduler: str) -> RunResult:
    """One sweep cell: one load level through the full OL pipeline
    under one scheduler; pure in ``(config, seed, load, scheduler)``."""
    wl = azure_sampled_workload(
        config.n_requests,
        config.n_cores,
        load,
        seed=seed,
        app_mix=OPENLAMBDA_MIX,
        iat_kind=config.iat_kind,
    )
    base = OpenLambdaConfig(
        machine=machine(config.n_cores), engine=config.engine, seed=seed
    )
    return run_openlambda(wl, base.with_scheduler(scheduler))


def run(config: Config, seed: int = 0) -> Result:
    runs: Dict[float, Dict[str, RunResult]] = {
        load: {sched: run_cell(config, seed, load, sched)
               for sched in SCHEDULERS}
        for load in config.loads
    }
    return Result(runs=runs, config=config)
