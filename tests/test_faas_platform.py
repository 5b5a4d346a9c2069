"""OpenLambda platform model: overheads, sandbox pool, pipeline."""

import numpy as np
import pytest

from conftest import small_workload
from repro.faas.driver import ENGINE_SCHEDULERS, ENGINES
from repro.faas.openlambda import OpenLambdaConfig, OpenLambdaPlatform, run_openlambda
from repro.faas.overheads import HopLatency, OverheadModel
from repro.faas.sandbox import ContainerPool
from repro.machine.base import MachineParams
from repro.sim.engine import Simulator
from repro.workload.faasbench import OPENLAMBDA_MIX


# ----------------------------------------------------------------------
# HopLatency / OverheadModel
# ----------------------------------------------------------------------
def test_hop_latency_positive_and_median(rng):
    hop = HopLatency(500, sigma=0.3)
    draws = np.array([hop.sample(rng) for _ in range(4000)])
    assert (draws >= 1).all()
    assert np.median(draws) == pytest.approx(500, rel=0.08)


def test_hop_latency_zero_median_means_no_delay(rng):
    assert HopLatency(0).sample(rng) == 0


def test_hop_latency_validation():
    with pytest.raises(ValueError):
        HopLatency(-1)


def test_overhead_model_total():
    m = OverheadModel()
    assert m.total_median() == 300 + 500 + 400


# ----------------------------------------------------------------------
# ContainerPool
# ----------------------------------------------------------------------
def test_pool_acquire_release():
    pool = ContainerPool(capacity_per_app=2)
    got = []
    pool.acquire("fib", lambda: got.append(1))
    pool.acquire("fib", lambda: got.append(2))
    assert got == [1, 2]
    assert pool.in_use("fib") == 2
    pool.acquire("fib", lambda: got.append(3))  # queued
    assert got == [1, 2]
    assert pool.total_queued == 1
    pool.release("fib")
    assert got == [1, 2, 3]  # handed to the waiter
    assert pool.in_use("fib") == 2


def test_pool_per_app_isolation():
    pool = ContainerPool(capacity_per_app=1)
    got = []
    pool.acquire("a", lambda: got.append("a"))
    pool.acquire("b", lambda: got.append("b"))  # different app: no queueing
    assert got == ["a", "b"]


def test_pool_release_without_acquire():
    pool = ContainerPool()
    with pytest.raises(RuntimeError):
        pool.release("fib")


def test_pool_validation():
    with pytest.raises(ValueError):
        ContainerPool(0)


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------
def ol_cfg(**kw):
    defaults = dict(machine=MachineParams(n_cores=8), engine="fluid", seed=1)
    defaults.update(kw)
    return OpenLambdaConfig(**defaults)


def test_pipeline_adds_platform_overhead():
    wl = small_workload(n_requests=200, n_cores=8, load=0.5,
                        app_mix=OPENLAMBDA_MIX)
    res = run_openlambda(wl, ol_cfg())
    dispatch_delay = res.array("dispatch") - res.array("arrival")
    # every request pays gateway + worker + sandbox latency before spawn
    assert (dispatch_delay > 0).all()
    assert np.median(dispatch_delay) == pytest.approx(1200, rel=0.5)
    assert (res.array("end_to_end") >= res.array("turnaround")).all()


def test_sfs_port_improves_contended_run():
    wl = small_workload(n_requests=600, n_cores=8, load=1.0, seed=13)
    cfs = run_openlambda(wl, ol_cfg())
    sfs = run_openlambda(wl, ol_cfg(scheduler="sfs"))
    assert np.median(sfs.turnarounds) < np.median(cfs.turnarounds)
    assert sfs.sfs_stats is not None and sfs.sfs_stats.promoted > 0


def test_all_requests_complete_and_conserve():
    wl = small_workload(n_requests=300, n_cores=8, load=0.9,
                        app_mix=OPENLAMBDA_MIX)
    res = run_openlambda(wl, ol_cfg(scheduler="sfs"))
    assert len(res.records) == 300
    assert res.array("cpu_time").sum() == res.array("cpu_demand").sum()


def test_container_capacity_limits_concurrency():
    sim = Simulator()
    cfg = ol_cfg(container_capacity=1)
    platform = OpenLambdaPlatform(sim, cfg)
    wl = small_workload(n_requests=50, n_cores=8, load=1.0)
    for spec in wl:
        sim.schedule_at(spec.arrival, platform.invoke, spec)
    sim.run()
    assert platform.pool.total_queued > 0  # single warm container per app
    assert all(t.finished for _s, t in platform.pairs)


def test_config_validation():
    with pytest.raises(ValueError):
        OpenLambdaConfig(scheduler="srtf")  # an oracle, not an engine row
    with pytest.raises(ValueError):
        OpenLambdaConfig(engine="quantum")


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("scheduler", ENGINE_SCHEDULERS)
def test_scheduler_label_in_result(scheduler, engine):
    wl = small_workload(n_requests=50, n_cores=8, load=0.5)
    res = run_openlambda(wl, ol_cfg(scheduler=scheduler, engine=engine))
    assert res.scheduler == f"openlambda+{scheduler}"
    assert len(res.records) == 50


def test_deterministic_given_seed():
    wl = small_workload(n_requests=100, n_cores=8, load=0.8)
    a = run_openlambda(wl, ol_cfg(seed=5))
    b = run_openlambda(wl, ol_cfg(seed=5))
    assert np.array_equal(a.turnarounds, b.turnarounds)
