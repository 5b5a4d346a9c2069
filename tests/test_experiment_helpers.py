"""Direct unit tests for the figure-math helpers (independent of the
integration sweeps, using hand-built results)."""

import numpy as np
import pytest

from repro.experiments import (
    ext_predictive,
    fig08_percentiles,
    fig13_ol_perf,
    fig15_ol_percentiles,
    fig16_ctx,
)
from repro.metrics.collector import RequestRecord, RunResult


def make_result(turnarounds, ctx=None, cpu=None, scheduler="cfs"):
    """A RunResult with fabricated per-request numbers."""
    n = len(turnarounds)
    ctx = ctx if ctx is not None else [0] * n
    cpu = cpu if cpu is not None else [t // 2 for t in turnarounds]
    records = [
        RequestRecord(
            req_id=i,
            name=f"t{i}",
            app="fib",
            arrival=0,
            dispatch=0,
            finish=int(turnarounds[i]),
            cpu_demand=int(cpu[i]),
            io_demand=0,
            cpu_time=int(cpu[i]),
            wait_time=int(turnarounds[i] - cpu[i]),
            ctx_involuntary=int(ctx[i]),
            ctx_voluntary=0,
            migrations=0,
            bypassed=False,
            demoted=False,
            slice_granted=None,
        )
        for i in range(n)
    ]
    return RunResult(
        scheduler=scheduler, engine="fluid", records=records,
        sim_time=max(turnarounds), busy_time=sum(cpu), n_cores=4,
    )


class FakeSweep:
    def __init__(self, runs, loads):
        self.runs = runs

        class C:
            pass

        self.config = C()
        self.config.loads = loads


def test_fig08_tail_ratio():
    cfs = make_result([100] * 99 + [1000])
    sfs = make_result([100] * 99 + [2000])
    sweep = FakeSweep({0.8: {"cfs": cfs, "sfs": sfs}}, (0.8,))
    ratio = fig08_percentiles.tail_ratio(sweep, 0.8)
    assert ratio == pytest.approx(
        np.percentile(sfs.turnarounds, 99.9) / np.percentile(cfs.turnarounds, 99.9)
    )
    assert ratio > 1


def test_fig13_mean_slowdown():
    cfs = make_result([200, 400, 600])
    sfs = make_result([100, 200, 300])
    res = FakeSweep({1.0: {"cfs": cfs, "sfs": sfs}}, (1.0,))
    assert fig13_ol_perf.mean_slowdown_cfs(res, 1.0) == pytest.approx(2.0)


def test_fig15_p99_speedup():
    cfs = make_result(list(range(1, 101)))
    sfs = make_result([x // 2 or 1 for x in range(1, 101)])
    res = FakeSweep({0.9: {"cfs": cfs, "sfs": sfs}}, (0.9,))
    assert fig15_ol_percentiles.p99_speedup(res, 0.9) == pytest.approx(
        np.percentile(cfs.turnarounds, 99) / np.percentile(sfs.turnarounds, 99)
    )


def test_fig16_ctx_ratio_smoothing():
    cfs = make_result([100, 100], ctx=[9, 0])
    sfs = make_result([100, 100], ctx=[0, 0])
    res = FakeSweep({1.0: {"cfs": cfs, "sfs": sfs}}, (1.0,))
    r = fig16_ctx.ctx_ratio(res, 1.0)
    # (9+1)/(0+1) = 10 and (0+1)/(0+1) = 1: the +1 keeps ratios finite
    assert list(r) == [10.0, 1.0]


def test_ext_predictive_gap_closed_bounds():
    class R:
        def __init__(self, runs):
            self.runs = runs

    sfs = make_result([300] * 10)
    srtf = make_result([100] * 10)
    pred = make_result([200] * 10)
    res = R({"sfs": sfs, "srtf": srtf, "predictive": pred})
    assert ext_predictive.gap_closed(res) == pytest.approx(0.5)
    # prediction matching the oracle closes the whole gap
    res2 = R({"sfs": sfs, "srtf": srtf, "predictive": make_result([100] * 10)})
    assert ext_predictive.gap_closed(res2) == pytest.approx(1.0)
    # no gap at all counts as fully closed
    res3 = R({"sfs": srtf, "srtf": srtf, "predictive": srtf})
    assert ext_predictive.gap_closed(res3) == 1.0
