"""Integration tests for the extension experiments (§I, §X, §XI)."""

import dataclasses

import numpy as np
import pytest

from repro.experiments import ext_coldstart, ext_eevdf, ext_predictive, ext_slo
from repro.metrics.slo import SLO
from repro.sim.units import SEC


def shrink(cfg, **kw):
    fields = {f.name for f in dataclasses.fields(cfg)}
    return dataclasses.replace(cfg, **{k: v for k, v in kw.items() if k in fields})


def test_ext_slo_ordering():
    cfg = shrink(ext_slo.Config.scaled(), n_requests=1500, loads=(1.0,))
    res = ext_slo.run(cfg, seed=0)
    by = res.runs[1.0]
    slo = SLO(0.9, 2.0)
    att = {name: slo.attainment(r.records) for name, r in by.items()}
    # the oracle dominates, SFS beats CFS
    assert att["srtf"] >= att["sfs"] >= att["cfs"]
    # tightest promisable p95 bound follows the same order
    from repro.metrics.slo import max_stretch_bound

    bounds = {n: max_stretch_bound(r.records, 0.95) for n, r in by.items()}
    assert bounds["srtf"] <= bounds["sfs"] <= bounds["cfs"]


def test_ext_coldstart_shape():
    cfg = shrink(ext_coldstart.Config.scaled(), n_requests=1500, n_cores=12)
    res = ext_coldstart.run(cfg, seed=0)
    ttls = cfg.keep_alive_ttls
    # prewarmed = zero cold starts; rates grow as the TTL shrinks
    assert ext_coldstart.cold_rate(res, None) == 0.0
    finite = [t for t in ttls if t is not None]
    rates = [ext_coldstart.cold_rate(res, t) for t in sorted(finite, reverse=True)]
    assert rates == sorted(rates)
    assert rates[-1] > 0.1  # a 1 s TTL cannot keep containers warm
    # cold starts inflate everyone's median end-to-end latency
    warm_p50 = np.median(res.runs[None]["sfs"].array("end_to_end"))
    cold_p50 = np.median(res.runs[1 * SEC]["sfs"].array("end_to_end"))
    assert cold_p50 > warm_p50


def test_ext_eevdf_sfs_is_fair_class_agnostic():
    res = ext_eevdf.run(ext_eevdf.Config.scaled(), seed=0)
    for fair in ("cfs", "eevdf"):
        by = res.runs[fair]
        # plain fair classes leave the short majority waiting; SFS fixes it
        assert np.median(by["sfs"].turnarounds) < np.median(by["plain"].turnarounds)
        assert ext_eevdf.sfs_speedup(res, fair) > 1.3
    # the two plain fair classes behave comparably (same fairness goal)
    p_cfs = np.median(res.runs["cfs"]["plain"].turnarounds)
    p_eevdf = np.median(res.runs["eevdf"]["plain"].turnarounds)
    assert 0.4 < p_cfs / p_eevdf < 2.5


def test_ext_predictive_closes_gap():
    cfg = shrink(ext_predictive.Config.scaled(), n_requests=2500)
    res = ext_predictive.run(cfg, seed=0)
    means = {n: r.turnarounds.mean() for n, r in res.runs.items()}
    # oracle <= predictive <= sfs <= cfs on the mean
    assert means["srtf"] <= means["predictive"]
    assert means["predictive"] < means["sfs"]
    assert means["sfs"] < means["cfs"]
    assert ext_predictive.gap_closed(res) > 0.3
    # the predictive run is labelled with its registry row
    pred = res.runs["predictive"]
    assert pred.scheduler == pred.manifest.scheduler == "predictive"
    assert res.runs["sfs"].scheduler == "sfs"
    # SFS keeps the better median (prediction misfires hurt its p50)
    assert np.median(res.runs["sfs"].turnarounds) <= np.median(
        res.runs["predictive"].turnarounds
    ) * 1.2


def test_ext_renders():
    for mod, kw in (
        (ext_slo, dict(n_requests=400, loads=(1.0,))),
        (ext_coldstart, dict(n_requests=400, n_cores=8)),
        (ext_eevdf, dict(n_requests=400)),
        (ext_predictive, dict(n_requests=400)),
    ):
        res = mod.run(shrink(mod.Config.scaled(), **kw), seed=1)
        out = mod.render(res)
        assert isinstance(out, str) and len(out) > 50
