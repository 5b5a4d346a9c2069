"""Standalone SFS-vs-CFS load sweep powering Figs 6, 7 and 8.

One Azure-sampled (Table I durations, Poisson IATs) workload per load
level, replayed under CFS and SFS on the same machine.  Figs 6-8 are
different views of this single sweep:

* Fig 6 — duration CDF per load;
* Fig 7 — RTE CDF per load (SFS: >= 0.95 for 93 %/88 % of requests at
  65 %/80 % load; CFS: 55 %/35 %);
* Fig 8 — percentile breakdowns (SFS's p50 stays ~0.1 s at every load;
  its p99.9 at 80 % load is ~47 % above CFS's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.experiments.common import azure_sampled_workload, machine
from repro.experiments.runner import RunConfig, run_workload
from repro.metrics.collector import RunResult

DEFAULT_LOADS = (0.5, 0.65, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class Config:
    n_requests: int = 49_712
    n_cores: int = 12
    loads: Tuple[float, ...] = DEFAULT_LOADS
    engine: str = "fluid"
    schedulers: Tuple[str, ...] = ("cfs", "sfs")

    @classmethod
    def scaled(cls) -> "Config":
        return cls(n_requests=4_000, n_cores=12, loads=(0.5, 0.65, 0.8, 1.0))


@dataclass
class Result:
    #: load -> scheduler -> RunResult
    runs: Dict[float, Dict[str, RunResult]]
    config: Config


def run_cell(config: Config, seed: int, load: float,
             scheduler: str) -> RunResult:
    """One sweep cell: one load level under one scheduler.

    The workload is regenerated from the seed, so the cell is a pure
    function of ``(config, seed, load, scheduler)``."""
    wl = azure_sampled_workload(
        config.n_requests, config.n_cores, load, seed=seed
    )
    base = RunConfig(engine=config.engine, machine=machine(config.n_cores))
    return run_workload(wl, base.with_scheduler(scheduler))


def run(config: Config, seed: int = 0) -> Result:
    runs: Dict[float, Dict[str, RunResult]] = {
        load: {sched: run_cell(config, seed, load, sched)
               for sched in config.schedulers}
        for load in config.loads
    }
    return Result(runs=runs, config=config)
