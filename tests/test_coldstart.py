"""Keep-alive container cache and cold-start penalties (§X)."""

import numpy as np
import pytest

from conftest import small_workload
from repro.faas.coldstart import ColdStartConfig, ColdStartStats, KeepAliveCache
from repro.faas.openlambda import OpenLambdaConfig, run_openlambda
from repro.faas.overheads import HopLatency
from repro.machine.base import MachineParams
from repro.sim.engine import Simulator
from repro.sim.units import MS, SEC


@pytest.fixture
def cache(sim, rng):
    cfg = ColdStartConfig(keep_alive=10 * SEC, penalty=HopLatency(500 * MS, 0.0))
    return KeepAliveCache(sim, cfg, rng)


def test_config_validation():
    with pytest.raises(ValueError):
        ColdStartConfig(keep_alive=0)
    with pytest.raises(ValueError):
        ColdStartConfig(max_warm_per_app=0)


def test_first_acquire_is_cold(cache):
    delay = cache.acquire("fib-25")
    assert delay > 0
    assert cache.stats.cold_starts == 1
    assert cache.stats.warm_hits == 0


def test_release_then_acquire_is_warm(sim, cache):
    cache.acquire("fib-25")
    cache.release("fib-25")
    assert cache.warm_count("fib-25") == 1
    assert cache.acquire("fib-25") == 0
    assert cache.stats.warm_hits == 1
    assert cache.warm_count("fib-25") == 0  # container handed out


def test_ttl_expiry(sim, cache):
    cache.acquire("fib-25")
    cache.release("fib-25")
    sim.run(until=11 * SEC)  # past the 10 s TTL
    assert cache.warm_count("fib-25") == 0
    assert cache.stats.expirations == 1
    assert cache.acquire("fib-25") > 0  # cold again


def test_reuse_before_ttl_cancels_expiry(sim, cache):
    cache.acquire("fib-25")
    cache.release("fib-25")
    sim.run(until=5 * SEC)
    assert cache.acquire("fib-25") == 0
    sim.run(until=30 * SEC)
    assert cache.stats.expirations == 0  # nothing left to expire


def test_per_app_isolation(cache):
    cache.acquire("a")
    cache.release("a")
    assert cache.acquire("b") > 0  # warm 'a' does not serve 'b'


def test_max_warm_cap(sim, rng):
    cfg = ColdStartConfig(keep_alive=10 * SEC, max_warm_per_app=2)
    cache = KeepAliveCache(sim, cfg, rng)
    for _ in range(4):
        cache.acquire("x")
    for _ in range(4):
        cache.release("x")
    assert cache.warm_count("x") == 2  # over-cap containers torn down


def test_stats_cold_rate():
    s = ColdStartStats(cold_starts=1, warm_hits=3)
    assert s.cold_rate == 0.25
    assert ColdStartStats().cold_rate == 0.0


# ----------------------------------------------------------------------
# integration with the platform
# ----------------------------------------------------------------------
def test_openlambda_prewarmed_has_no_coldstart_meta():
    wl = small_workload(n_requests=100, n_cores=8, load=0.5)
    res = run_openlambda(wl, OpenLambdaConfig(machine=MachineParams(n_cores=8)))
    assert "coldstart_stats" not in res.meta


def test_openlambda_keepalive_records_cold_rate():
    wl = small_workload(n_requests=400, n_cores=8, load=0.8, seed=3)
    cfg = OpenLambdaConfig(
        machine=MachineParams(n_cores=8),
        coldstart=ColdStartConfig(keep_alive=60 * SEC),
    )
    res = run_openlambda(wl, cfg)
    stats = res.meta["coldstart_stats"]
    assert stats.requests == 400
    assert 0 < stats.cold_rate < 1  # repeat invocations hit warm containers


def test_shorter_ttl_more_cold_starts():
    wl = small_workload(n_requests=400, n_cores=8, load=0.8, seed=3)

    def rate(ttl):
        cfg = OpenLambdaConfig(
            machine=MachineParams(n_cores=8),
            coldstart=ColdStartConfig(keep_alive=ttl),
        )
        return run_openlambda(wl, cfg).meta["coldstart_stats"].cold_rate

    assert rate(1 * SEC) > rate(600 * SEC)


def test_cold_starts_inflate_end_to_end():
    wl = small_workload(n_requests=300, n_cores=8, load=0.7, seed=5)
    warm = run_openlambda(wl, OpenLambdaConfig(machine=MachineParams(n_cores=8)))
    cold = run_openlambda(
        wl,
        OpenLambdaConfig(
            machine=MachineParams(n_cores=8),
            coldstart=ColdStartConfig(keep_alive=1 * SEC),
        ),
    )
    assert cold.array("end_to_end").mean() > warm.array("end_to_end").mean()


def test_cold_start_outlasting_the_deadline_times_out():
    # a cold start longer than the 100 ms deadline used to arm the
    # deadline timer in the past and abort the run
    wl = small_workload(n_requests=200, n_cores=4, load=0.8, seed=1)
    res = run_openlambda(wl, OpenLambdaConfig(
        machine=MachineParams(n_cores=4), coldstart=ColdStartConfig(),
        timeout=100 * MS))
    assert sorted(r.req_id for r in res.records) == \
        sorted(s.req_id for s in wl)
    statuses = {r.status for r in res.records}
    assert statuses == {"ok", "timeout"}
    timeouts = sum(r.status == "timeout" for r in res.records)
    assert timeouts == res.meta["fault_stats"]["timeouts"]
