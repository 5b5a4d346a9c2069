"""Registry mapping paper artifacts to experiment modules, and the one
sweep that runs them.

Every experiment module follows one of two protocols: a whole
experiment exposes ``run(config, seed)`` and ``render(result)``; a grid
exposes the shard protocol ``shards(config, seed)`` /
``run_shard(payload)`` / ``render_shards(texts, config)``.  :func:`sweep`
runs any set of them at their scaled configurations as one
:func:`repro.pool.run_pool` call: a whole experiment is one item, a
grid one item per shard (e.g. every chaos cell), all through the one
work function :func:`run_item`.  ``repro experiment`` prints or stores
what it returns, and ``repro.analysis.run_all`` writes it into
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, Dict, Iterable, Optional

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


def run_item(payload: Dict[str, Any]) -> str:
    """The work function of every experiment sweep.

    Payload ``{"exp_id", "seed"}`` runs a whole experiment at its scaled
    configuration and renders it; ``{"exp_id", "shard"}`` runs one shard
    of a grid, whose module's ``run_shard`` owns the shard schema.
    """
    module = REGISTRY[payload["exp_id"]].module
    if "shard" in payload:
        return module.run_shard(payload["shard"])
    return module.render(module.run(module.Config.scaled(),
                                    seed=payload["seed"]))


@dataclass
class Sweep:
    """What :func:`sweep` ran."""

    #: exp_id -> rendered text of every experiment whose items all
    #: completed in this sweep, in request order
    texts: Dict[str, str]
    #: the pool's report (retries, quarantine)
    report: Any
    #: items and merged grids skipped because their artifact verified
    n_resumed: int


def sweep(ids: Iterable[str], seed: int = 0, cfg=None, store=None,
          resume: bool = False, quarantine_path: Optional[str] = None,
          metrics=None, progress: Optional[Callable[[str], None]] = None,
          ) -> Sweep:
    """Run experiments ``ids`` (repeats run once) at their scaled
    configurations under one :func:`repro.pool.run_pool` call.

    ``cfg`` is the :class:`repro.pool.PoolConfig` (default: inline, no
    worker processes).  With ``store`` every item lands in the artifact
    store and each grid's merged artifact is written with the manifest
    config ``{"exp_id", "seed"}``; with ``resume`` as well, verified
    items are skipped, and so is a whole grid whose merged artifact
    verifies.  The texts are the same bytes at every worker count.
    Raises ``ValueError`` if ``cfg.chaos_kill`` names no item.
    """
    from repro.pool import PoolConfig, run_pool

    if cfg is None:
        cfg = PoolConfig(workers=0)
    say = progress or (lambda _line: None)
    items = []
    configs = {}
    parts = {}  # exp_id -> (scaled config of a grid or None, item ids)
    known = set()  # every item id of the sweep, resumed ones included
    n_resumed = 0
    for exp_id in dict.fromkeys(ids):
        entry = REGISTRY[exp_id]
        exp_cfg = {"exp_id": exp_id, "seed": seed}
        if not entry.shardable:
            known.add(exp_id)
            items.append((exp_id, exp_cfg))
            configs[exp_id] = exp_cfg
            parts[exp_id] = (None, [exp_id])
            continue
        scaled = entry.module.Config.scaled()
        shards = [(f"{exp_id}.{shard_id}", {"exp_id": exp_id, "shard": shard})
                  for shard_id, shard in entry.module.shards(scaled, seed)]
        known.update(item_id for item_id, _ in shards)
        # the merged artifact is written here, not by the pool, so only
        # here can its manifest let the whole grid be skipped
        if resume and store.verify(exp_id, exp_cfg):
            n_resumed += 1
            say(f"  [skip] {exp_id} (artifact verifies)")
            continue
        items.extend(shards)
        for item_id, _ in shards:
            configs[item_id] = {"exp_id": exp_id, "shard": item_id,
                                "seed": seed}
        parts[exp_id] = (scaled, [item_id for item_id, _ in shards])
    if cfg.chaos_kill and cfg.chaos_kill not in known:
        raise ValueError(f"no such item in this sweep (items: "
                         f"{', '.join(sorted(known))})")

    report = run_pool(items, run_item, cfg, store=store,
                      config_for=configs.__getitem__, resume=resume,
                      quarantine_path=quarantine_path, metrics=metrics,
                      progress=say)
    result_of = dict(zip((item_id for item_id, _ in items), report.results))
    texts = {}
    for exp_id, (scaled, item_ids) in parts.items():
        done = [result_of[i] for i in item_ids]
        if any(t is None for t in done):
            continue  # a quarantined item: the experiment has no text
        if scaled is None:
            texts[exp_id] = done[0]
            continue
        texts[exp_id] = REGISTRY[exp_id].module.render_shards(done, scaled)
        if store is not None:
            store.write(exp_id, texts[exp_id], {"exp_id": exp_id,
                                                "seed": seed})
    return Sweep(texts, report, report.n_skipped + n_resumed)
