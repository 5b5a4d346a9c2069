"""Integration tests: every experiment module runs at its scaled size
and its result shows the paper's qualitative shape.

The load sweep and OpenLambda sweep are expensive, so they run once per
module (fixtures) and several figure-tests read from them — exactly how
the paper derives Figs 6-8 and 13-16 from shared runs.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments import (
    ablations,
    fig01_azure_cdf,
    fig02_motivation,
    fig07_rte,
    fig08_percentiles,
    fig09_timeslice,
    fig10_slice_timeline,
    fig11_io,
    fig12_overload,
    fig13_ol_perf,
    fig15_ol_percentiles,
    fig16_ctx,
    headline,
    loadsweep,
    openlambda_sweep,
    sensitivity,
    table1_bins,
    table2_overhead,
)
from repro.experiments.registry import REGISTRY
from repro.metrics.stats import fraction_below


def shrink(cfg, **kw):
    fields = {f.name for f in dataclasses.fields(cfg)}
    return dataclasses.replace(cfg, **{k: v for k, v in kw.items() if k in fields})


@pytest.fixture(scope="module")
def sweep():
    cfg = shrink(loadsweep.Config.scaled(), loads=(0.5, 0.8, 1.0))
    return loadsweep.run(cfg, seed=0)


@pytest.fixture(scope="module")
def ol():
    return openlambda_sweep.run(openlambda_sweep.Config.scaled(), seed=0)


# ----------------------------------------------------------------------
# registry completeness
# ----------------------------------------------------------------------
def test_registry_covers_every_paper_artifact():
    expected = {
        "fig1", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10",
        "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
        "table1", "table2", "headline", "sensitivity", "ablations",
        "ext-slo", "ext-coldstart", "ext-eevdf", "ext-predictive",
        "ext-cluster", "ext-billing", "chaos", "replay",
        "ext-resilience",
    }
    assert set(REGISTRY) == expected


# ----------------------------------------------------------------------
# trace & workload artifacts
# ----------------------------------------------------------------------
def test_fig1_anchors_within_tolerance():
    res = fig01_azure_cdf.run(fig01_azure_cdf.Config(n_apps=20_000), seed=0)
    for _bound, measured, target in res.anchors:
        assert measured == pytest.approx(target, abs=0.05)
    assert res.orders_of_magnitude >= 5.5


def test_table1_bins_match():
    res = table1_bins.run(table1_bins.Config(n_requests=20_000), seed=0)
    for _label, paper_p, emp_p, _ns, _ms in res.rows:
        assert emp_p == pytest.approx(paper_p, abs=0.02)
    assert res.unbinned_fraction < 0.01


# ----------------------------------------------------------------------
# Fig 2: motivation
# ----------------------------------------------------------------------
def test_fig2_ordering_holds():
    res = fig02_motivation.run(fig02_motivation.Config.scaled(), seed=0)
    for load, by in res.runs.items():
        means = {name: r.turnarounds.mean() for name, r in by.items()}
        # IDEAL <= SRTF < CFS; FIFO worst among Linux policies (convoy)
        assert means["ideal"] <= means["srtf"] + 1
        assert means["srtf"] < means["cfs"]
        assert means["fifo"] > means["cfs"]
    by100 = res.runs[1.0]
    # CFS leaves a visible share of requests with terrible RTE at 100%
    assert fraction_below(by100["cfs"].rtes, 0.2) > 0.05
    assert fraction_below(by100["srtf"].rtes, 0.2) < fraction_below(
        by100["cfs"].rtes, 0.2
    )


# ----------------------------------------------------------------------
# Figs 6-8: the load sweep
# ----------------------------------------------------------------------
def test_fig6_sfs_wins_at_high_load(sweep):
    lo, hi = sweep.runs[0.5], sweep.runs[1.0]
    # at 50% load SFS ~ CFS (nothing to fix)
    assert np.median(lo["sfs"].turnarounds) <= np.median(lo["cfs"].turnarounds) * 1.1
    # at 100% load SFS clearly ahead on the median (short majority)
    assert np.median(hi["sfs"].turnarounds) < np.median(hi["cfs"].turnarounds) * 0.5


def test_fig7_rte_separation(sweep):
    rows = {(l, n): ge95 for l, n, ge95, _a, _b in fig07_rte.rte_table(sweep)}
    assert rows[("80%", "sfs")] > rows[("80%", "cfs")]
    assert rows[("80%", "sfs")] > 0.6
    assert rows[("100%", "sfs")] > rows[("100%", "cfs")] + 0.3


def test_fig8_sfs_median_flat_cfs_median_grows(sweep):
    p50_sfs = {
        load: np.percentile(by["sfs"].turnarounds, 50)
        for load, by in sweep.runs.items()
    }
    p50_cfs = {
        load: np.percentile(by["cfs"].turnarounds, 50)
        for load, by in sweep.runs.items()
    }
    # paper: SFS holds ~0.1 s median at every load level
    assert max(p50_sfs.values()) < min(p50_sfs.values()) * 1.3
    # while CFS's median balloons with load
    assert p50_cfs[1.0] > p50_cfs[0.5] * 3
    # the long-function tail price exists at moderate load
    assert fig08_percentiles.tail_ratio(sweep, 0.8) > 1.0


# ----------------------------------------------------------------------
# Fig 9/10: time-slice adaptation
# ----------------------------------------------------------------------
def test_fig9_adaptive_beats_static():
    res = fig09_timeslice.run(fig09_timeslice.Config.scaled(), seed=0)
    means = fig09_timeslice.mean_turnaround(res)
    assert means["adaptive"] < means["S=50ms"]
    assert means["adaptive"] < means["S=100ms"]
    assert means["adaptive"] < means["S=200ms"]


def test_fig10_slice_tracks_iats():
    cfg = shrink(fig10_slice_timeline.Config.scaled(), n_requests=2_000)
    res = fig10_slice_timeline.run(cfg, seed=0)
    assert len(res.slice_timeline) > 5
    ss = [s for _t, s in res.slice_timeline[1:]]
    assert len(set(ss)) > 1  # S actually moves with the bursty arrivals
    # every recomputed S respects the clamp bounds
    from repro.core.config import SFSConfig

    cfg_sfs = SFSConfig()
    assert all(cfg_sfs.min_slice <= s <= cfg_sfs.max_slice for s in ss)


# ----------------------------------------------------------------------
# Fig 11: I/O handling
# ----------------------------------------------------------------------
def test_fig11_io_shape():
    res = fig11_io.run(fig11_io.Config.scaled(), seed=0)
    means = fig11_io.mean_turnaround(res)
    # every SFS variant clearly beats CFS on the I/O-heavy workload
    for k, v in means.items():
        if k != "cfs":
            assert v < means["cfs"] * 0.85, k
    # performance is insensitive to the polling interval (paper finding)
    assert fig11_io.polling_sensitivity(res) < 1.05
    # the oblivious variant is never *better* than polling beyond noise
    best_aware = min(v for k, v in means.items() if k.startswith("sfs-poll"))
    assert means["sfs-oblivious"] > best_aware * 0.98


# ----------------------------------------------------------------------
# Fig 12: overload handling
# ----------------------------------------------------------------------
def test_fig12_hybrid_smooths_overload():
    res = fig12_overload.run(fig12_overload.Config.scaled(), seed=0)
    assert res.runs["sfs"].sfs_stats.bypassed_overload > 100
    assert res.runs["sfs-no-hybrid"].sfs_stats.bypassed_overload == 0
    peak_h = fig12_overload.peak_queue_delay(res, "sfs")
    peak_n = fig12_overload.peak_queue_delay(res, "sfs-no-hybrid")
    # hybrid roughly halves the worst queuing-delay spike
    assert peak_h < peak_n * 0.7
    assert fig12_overload.fraction_improved_by_hybrid(res) > 0.10


# ----------------------------------------------------------------------
# Figs 13-16: OpenLambda end to end
# ----------------------------------------------------------------------
def test_fig13_cfs_degrades_with_load(ol):
    ratios = [fig13_ol_perf.mean_slowdown_cfs(ol, load) for load in ol.config.loads]
    # paper: CFS 14.1% slower at 80%, worse as load grows
    assert ratios[0] > 1.0
    assert ratios == sorted(ratios)  # monotone in load
    assert ratios[-1] > 2.0


def test_fig15_p99_speedup_at_high_load(ol):
    s = {load: fig15_ol_percentiles.p99_speedup(ol, load) for load in ol.config.loads}
    # the tail crossover: SFS's p99 wins once CFS starts thrashing
    assert s[0.9] > 1.0
    assert max(s.values()) > 1.1


def test_fig16_ctx_ratio_grows_with_load(ol):
    frac_gt1 = []
    for load in ol.config.loads:
        r = fig16_ctx.ctx_ratio(ol, load)
        frac_gt1.append(float((r > 1).mean()))
    assert frac_gt1 == sorted(frac_gt1)
    r100 = fig16_ctx.ctx_ratio(ol, 1.0)
    assert (r100 > 1).mean() > 0.6
    assert (r100 >= 10).mean() > 0.15


# ----------------------------------------------------------------------
# Table II, headline, sensitivity, ablations
# ----------------------------------------------------------------------
def test_table2_overhead_shape():
    res = table2_overhead.run(table2_overhead.Config.scaled(), seed=0)
    for p_ms, s in res.summaries.items():
        rel = s.average / res.config.n_cores
        assert 0.001 < rel < 0.25, f"overhead out of band at {p_ms}ms"
    # paper: ~74% of the overhead is polling at the 4 ms interval
    assert res.summaries[4].poll_fraction == pytest.approx(0.744, abs=0.12)
    # finer polling costs more CPU
    assert res.summaries[1].average > res.summaries[8].average


def test_headline_shape():
    res = headline.run(headline.Config.scaled(), seed=0)
    imp = res.improvement
    assert 0.7 < imp["fraction_improved"] < 0.97   # paper: 0.83
    assert imp["mean_speedup_improved"] > 5.0       # paper: 49.6 (scale-bound)
    assert imp["mean_slowdown_rest"] < 2.0          # paper: 1.29
    assert res.cfs_vs_srtf[70] > res.cfs_vs_srtf[40] > 2.0  # paper: 24x/16x
    assert res.cfs_rte_below_02 > res.sfs_rte_below_02 + 0.2


def test_sensitivity_shape():
    cfg = shrink(sensitivity.Config.scaled(), n_requests=1500)
    res = sensitivity.run(cfg, seed=0)
    assert set(res.window_runs) == {10, 100, 1000}
    assert set(res.overload_runs) == {1.0, 3.0, 10.0}
    # a lower O bypasses more aggressively
    assert (
        res.overload_runs[1.0].sfs_stats.bypassed_overload
        >= res.overload_runs[10.0].sfs_stats.bypassed_overload
    )


def test_ablations_shape():
    res = ablations.run(ablations.Config.scaled(), seed=0)
    g = np.median(res.queue_runs["global-queue"].turnarounds)
    m = np.median(res.queue_runs["multi-queue"].turnarounds)
    assert g <= m * 1.05  # the global queue never loses materially
    assert ablations.engine_disagreement(res) < 0.5
    penalties = ablations.cfs_penalty_by_cost(res)
    costs = sorted(penalties)
    # the CFS penalty grows with the context-switch cost
    assert penalties[costs[-1]] > penalties[costs[0]]


def test_all_renders_nonempty():
    for exp_id, entry in REGISTRY.items():
        cfg = shrink(
            entry.module.Config.scaled(),
            n_requests=400,
            n_apps=2000,
            n_cores=8,
        )
        module = entry.module
        if entry.shardable:
            out = module.render_shards(
                [module.run_shard(p) for _, p in module.shards(cfg, 3)], cfg)
        else:
            out = module.render(module.run(cfg, seed=3))
        assert isinstance(out, str) and len(out) > 50, exp_id
