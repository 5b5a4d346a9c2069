"""Fig 10: timeline of the adaptive time slice vs observed IATs.

The monitor recomputes ``S = mean(last N IATs) x cores`` every N
arrivals; the figure shows S tracking the workload's arrival-rate
swings over the run.  We reproduce the series and verify the tracking
relationship (each recomputed S equals cores x window-mean IAT, modulo
clamping).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.analysis.report import format_series
from repro.experiments.common import azure_sampled_workload, machine
from repro.experiments.runner import RunConfig, run_workload
from repro.metrics.collector import RunResult


@dataclass(frozen=True)
class Config:
    n_requests: int = 49_712
    n_cores: int = 12
    load: float = 1.0
    engine: str = "fluid"
    iat_kind: str = "bursty"   # spiky arrivals make the timeline move

    @classmethod
    def scaled(cls) -> "Config":
        return cls(n_requests=4_000)


@dataclass
class Result:
    slice_timeline: List[Tuple[int, int]]
    arrivals: np.ndarray
    run: RunResult
    config: Config


def run(config: Config, seed: int = 0) -> Result:
    wl = azure_sampled_workload(
        config.n_requests, config.n_cores, config.load, seed,
        iat_kind=config.iat_kind,
    )
    res = run_workload(
        wl,
        RunConfig(scheduler="sfs", engine=config.engine,
                  machine=machine(config.n_cores)),
    )
    arrivals = np.array([r.arrival for r in wl], dtype=np.int64)
    return Result(
        slice_timeline=res.slice_timeline or [],
        arrivals=arrivals,
        run=res,
        config=config,
    )


def render(result: Result) -> str:
    if not result.slice_timeline:
        return "Fig 10: no slice recomputations recorded"
    ts = [t for t, _s in result.slice_timeline]
    ss = [s / 1e3 for _t, s in result.slice_timeline]
    table = format_series(ts, ss, name="S (ms)",
                          max_rows=30)
    mean_iat = float(np.diff(result.arrivals).mean()) / 1e3
    return (
        f"Fig 10: adaptive slice timeline "
        f"({len(result.slice_timeline) - 1} recomputations, "
        f"mean IAT {mean_iat:.2f} ms, cores {result.config.n_cores})\n" + table
    )
