"""Extension: size-based scheduling vs SFS vs the SRTF oracle (§XI).

SFS avoids per-function duration prediction by design; the size-based
scheduling literature (Harchol-Balter et al., web servers) embraces it.
This experiment puts both on the same chassis:

* ``sfs``        — stock SFS (FIFO queue, adaptive global slice);
* ``predictive`` — :class:`repro.core.predictive.PredictiveSFS`
                   (shortest-predicted-first, per-function slices from
                   an EWMA of history);
* ``srtf``       — the clairvoyant oracle (upper bound);
* ``cfs``        — the kernel baseline.

Shape: prediction closes much of the SFS-to-SRTF gap on mean/p90 (the
heavy mid-range), at a small cost around the median (mispredicted cold
functions jump the queue); both user-space schedulers crush CFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.report import format_cdf_probes
from repro.experiments.common import azure_sampled_workload, machine
from repro.experiments.runner import RunConfig, run_workload
from repro.metrics.collector import RunResult


@dataclass(frozen=True)
class Config:
    n_requests: int = 20_000
    n_cores: int = 12
    load: float = 1.0
    notify_latency: int = 200

    @classmethod
    def scaled(cls) -> "Config":
        return cls(n_requests=4_000)


@dataclass
class Result:
    runs: Dict[str, RunResult]
    predictor_apps: int
    config: Config


def run(config: Config, seed: int = 0) -> Result:
    wl = azure_sampled_workload(
        config.n_requests, config.n_cores, config.load, seed
    )
    base = RunConfig(engine="fluid", machine=machine(config.n_cores),
                     notify_latency=config.notify_latency)
    runs: Dict[str, RunResult] = {}
    runs["cfs"] = run_workload(wl, base)
    runs["srtf"] = run_workload(wl, base.with_scheduler("srtf"))
    runs["sfs"] = run_workload(wl, base.with_scheduler("sfs"))
    runs["predictive"] = run_workload(wl, base.with_scheduler("predictive"))
    # the functions PredictiveSFS learned: every one that finished with
    # CPU time (what its predictor observes, keyed as it keys them)
    learned = {r.name or r.app for r in runs["predictive"].records
               if r.cpu_time > 0}
    return Result(runs=runs, predictor_apps=len(learned), config=config)


def gap_closed(result: Result) -> float:
    """Fraction of the SFS-to-SRTF mean-turnaround gap prediction closes."""
    sfs = result.runs["sfs"].turnarounds.mean()
    pred = result.runs["predictive"].turnarounds.mean()
    srtf = result.runs["srtf"].turnarounds.mean()
    gap = sfs - srtf
    if gap <= 0:
        return 1.0
    return float((sfs - pred) / gap)


def render(result: Result) -> str:
    series = {name: r.turnarounds for name, r in result.runs.items()}
    table = format_cdf_probes(
        series,
        title=(
            "ext-predictive: size hints vs SFS vs the oracle "
            f"(load {result.config.load:.0%}, "
            f"{result.predictor_apps} functions learned)"
        ),
    )
    return (
        table
        + f"\nfraction of the SFS->SRTF mean gap closed by prediction: "
        + f"{gap_closed(result):.1%}"
    )
