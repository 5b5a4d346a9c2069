"""Registry mapping paper artifacts to experiment modules.

Used by ``repro experiment`` (one :func:`repro.pool.run_pool` sweep
whose items are whole experiments, or the shards of a shardable one),
and by ``repro.analysis.run_all`` (which regenerates EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Dict

from repro.experiments import (
    ablations,
    chaos,
    ext_billing,
    ext_cluster,
    ext_coldstart,
    ext_eevdf,
    ext_predictive,
    ext_resilience,
    ext_slo,
    fig01_azure_cdf,
    fig02_motivation,
    fig06_loads,
    fig07_rte,
    fig08_percentiles,
    fig09_timeslice,
    fig10_slice_timeline,
    fig11_io,
    fig12_overload,
    fig13_ol_perf,
    fig14_ol_rte,
    fig15_ol_percentiles,
    fig16_ctx,
    headline,
    replay_stream,
    sensitivity,
    table1_bins,
    table2_overhead,
)


@dataclass(frozen=True)
class Entry:
    """One paper artifact and how to regenerate it."""

    exp_id: str
    title: str
    module: ModuleType

    def run_scaled(self, seed: int = 0):
        return self.module.run(self.module.Config.scaled(), seed=seed)

    def render(self, result) -> str:
        return self.module.render(result)

    @property
    def shardable(self) -> bool:
        """Does this experiment expose the repro.pool shard protocol
        (``shards`` / ``run_shard`` / ``render_shards``)?"""
        return all(
            hasattr(self.module, name)
            for name in ("shards", "run_shard", "render_shards")
        )


REGISTRY: Dict[str, Entry] = {
    e.exp_id: e
    for e in (
        Entry("fig1", "Azure duration CDF", fig01_azure_cdf),
        Entry("table1", "duration bins / fib-N mapping", table1_bins),
        Entry("fig2", "motivation: Linux schedulers vs SRTF/IDEAL", fig02_motivation),
        Entry("fig6", "SFS vs CFS duration CDFs across loads", fig06_loads),
        Entry("fig7", "SFS vs CFS RTE CDFs", fig07_rte),
        Entry("fig8", "percentile breakdowns across loads", fig08_percentiles),
        Entry("fig9", "adaptive vs static time slices", fig09_timeslice),
        Entry("fig10", "time-slice adaptation timeline", fig10_slice_timeline),
        Entry("fig11", "I/O handling and polling intervals", fig11_io),
        Entry("fig12", "transient-overload handling", fig12_overload),
        Entry("fig13", "OpenLambda duration CDFs", fig13_ol_perf),
        Entry("fig14", "OpenLambda RTE CDFs", fig14_ol_rte),
        Entry("fig15", "OpenLambda percentiles / p99 speedups", fig15_ol_percentiles),
        Entry("fig16", "context-switch ratio CDF", fig16_ctx),
        Entry("table2", "SFS CPU overhead vs polling interval", table2_overhead),
        Entry("headline", "headline claims", headline),
        Entry("sensitivity", "N and O sensitivity sweeps", sensitivity),
        Entry("ablations", "global-queue and engine ablations", ablations),
        # extensions beyond the paper's evaluation (SI, SX, SXI)
        Entry("ext-slo", "the paper's proposed stretch SLO, measured", ext_slo),
        Entry("ext-coldstart", "keep-alive TTL vs cold starts vs SFS benefit",
              ext_coldstart),
        Entry("ext-eevdf", "SFS on EEVDF (fair-class agnosticism)", ext_eevdf),
        Entry("ext-predictive", "size-based scheduling vs SFS vs SRTF",
              ext_predictive),
        Entry("ext-cluster", "global placement across SFS hosts",
              ext_cluster),
        Entry("ext-billing", "pricing the overcharge claim in dollars",
              ext_billing),
        Entry("chaos", "scheduling under failure: crashes, stragglers, "
              "overload shedding", chaos),
        Entry("ext-resilience", "SLO under chaos: domain outages, failover, "
              "hedging, retry-storm defense", ext_resilience),
        Entry("replay", "streaming long-horizon replay grid", replay_stream),
    )
}
