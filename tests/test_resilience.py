"""Cluster-scale fault tolerance (``repro.resilient``).

The serving tier under test: correlated fault domains, health-checked
failover re-dispatch, hedged requests with first-response-wins, and
retry-storm defense (global retry budget + admission control).  The
properties that matter:

* a whole-domain outage strands in-flight work; failover finishes it,
  and the exactly-once closure holds over the merged records;
* with failover *disabled*, work caught on a dying host terminates with
  the distinct ``host_lost`` status — it neither hangs nor masquerades
  as a crash (the silent-strand bug this PR fixes);
* a hedged backup that wins cancels the primary and is blame-attributed
  (``repro.why``) as a hedge, not as queueing;
* the retry budget throttles a storm deterministically, visibly in the
  stats and the trace;
* everything above is a pure function of the seeds: identical configs
  replay byte-identically, serial or pool-sharded.
"""

import dataclasses

import pytest

from conftest import small_workload
from repro.faas.cluster import ClusterConfig, run_cluster
from repro.faas.openlambda import OpenLambdaConfig
from repro.faas.resilience import HedgePolicy, ResilienceConfig, RetryBudget
from repro.faults import (
    STATUS_HOST_LOST,
    AdmissionControl,
    FaultPlan,
    RetryPolicy,
    flaky_host_windows,
)
from repro.machine.base import MachineParams
from repro.sim.task import Burst, BurstKind
from repro.trace.recorder import TraceRecorder
from repro.workload.spec import RequestSpec, Workload

SEC = 1_000_000


def host_cfg(cores=4, scheduler="cfs", **kw):
    return OpenLambdaConfig(machine=MachineParams(n_cores=cores),
                            scheduler=scheduler, **kw)


def one_request(cpu_us=SEC, arrival=0, req_id=0):
    return Workload(
        [RequestSpec(req_id=req_id, arrival=arrival,
                     bursts=(Burst(BurstKind.CPU, cpu_us),),
                     name=f"r{req_id}", app="t")],
        meta={"seed": 0},
    )


# ----------------------------------------------------------------------
# fault domains (plan layer)
# ----------------------------------------------------------------------
def test_domain_validation():
    with pytest.raises(ValueError, match="empty"):
        FaultPlan(fault_domains=((),))
    with pytest.raises(ValueError, match="more than one"):
        FaultPlan(fault_domains=((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="declares"):
        FaultPlan(fault_domains=((0, 1),), domain_failures=((1, 0, 10),))
    with pytest.raises(ValueError, match="down_at < up_at"):
        FaultPlan(fault_domains=((0,),), domain_failures=((0, 10, 10),))
    # a domain outage overlapping a direct window on a member host
    with pytest.raises(ValueError, match="overlapping"):
        FaultPlan(fault_domains=((0, 1),),
                  domain_failures=((0, 100, 200),),
                  host_failures=((1, 150, 300),))
    # a straggler cannot also die via its domain
    with pytest.raises(ValueError, match="contradictory"):
        FaultPlan(stragglers=((2, 0.5),), fault_domains=((2, 3),),
                  domain_failures=((0, 0, 10),))


def test_domain_outage_expands_to_member_windows():
    plan = FaultPlan(
        host_failures=((4, 5, 6),),
        fault_domains=((0, 1), (2, 3)),
        domain_failures=((1, 100, 200), (0, 300, 400)),
    )
    assert plan.expanded_host_failures() == (
        (4, 5, 6),          # direct windows first
        (2, 100, 200), (3, 100, 200),   # then declaration order
        (0, 300, 400), (1, 300, 400),
    )
    assert not plan.is_null
    # round-trips with the new fields
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_flaky_host_windows_deterministic_and_disjoint():
    w1 = flaky_host_windows(seed=9, host=0, horizon_us=10 * SEC,
                            n_windows=3, down_us=SEC)
    assert w1 == flaky_host_windows(seed=9, host=0, horizon_us=10 * SEC,
                                    n_windows=3, down_us=SEC)
    assert len(w1) == 3
    assert all(h == 0 and 0 <= a < b <= 10 * SEC for h, a, b in w1)
    for (_, _, up), (_, down, _) in zip(w1, w1[1:]):
        assert up <= down  # windows never overlap
    assert w1 != flaky_host_windows(seed=10, host=0, horizon_us=10 * SEC,
                                    n_windows=3, down_us=SEC)


# ----------------------------------------------------------------------
# host_lost: the silent-strand fix (failover disabled)
# ----------------------------------------------------------------------
def test_host_death_without_failover_is_host_lost_not_crash():
    wl = one_request(cpu_us=SEC)
    plan = FaultPlan(host_failures=((0, 100_000, 5 * SEC),))
    res = run_cluster(wl, ClusterConfig(n_hosts=2, host=host_cfg(faults=plan)))
    [rec] = res.records
    assert rec.status == STATUS_HOST_LOST
    stats = res.meta["fault_stats"]
    assert stats["host_lost"] == 1
    assert stats["crashes"] == 0 and stats["abandoned"] == 0
    assert stats["host_kills"] == 1


def test_host_lost_satisfies_exactly_once_closure():
    wl = small_workload(n_requests=80, n_cores=8, load=0.8, seed=21)
    plan = FaultPlan(host_failures=((0, 50_000, 20 * SEC),))
    res = run_cluster(wl, ClusterConfig(n_hosts=2, host=host_cfg(faults=plan)),
                      invariants=True)
    assert res.meta["fault_stats"]["host_lost"] > 0
    assert res.meta["invariant_checks"]["exactly-once"] >= 1


# ----------------------------------------------------------------------
# health-checked failover
# ----------------------------------------------------------------------
def test_failover_redispatches_stranded_work():
    wl = one_request(cpu_us=SEC)
    plan = FaultPlan(host_failures=((0, 100_000, 5 * SEC),))
    res = run_cluster(wl, ClusterConfig(
        n_hosts=2, host=host_cfg(faults=plan),
        resilience=ResilienceConfig(health_interval=4_000)))
    [rec] = res.records
    assert rec.status == "ok"
    stats = res.meta["fault_stats"]
    assert stats["failovers"] == 1
    assert stats["host_lost"] == 0
    # the request finished on the surviving host after detection
    assert rec.finish >= 100_000


def test_domain_outage_with_failover_completes_exactly_once():
    wl = small_workload(n_requests=150, n_cores=16, load=0.9, seed=22)
    plan = FaultPlan(
        fault_domains=((0, 1), (2, 3)),
        domain_failures=((0, 200_000, 30 * SEC),),
    )
    res = run_cluster(
        wl,
        ClusterConfig(n_hosts=4, host=host_cfg(faults=plan),
                      resilience=ResilienceConfig(
                          health_interval=4_000,
                          hedge=HedgePolicy(delay=100_000))),
        invariants=True,
    )
    assert len(res.records) == 150
    stats = res.meta["fault_stats"]
    assert stats["failovers"] > 0
    assert res.meta["invariant_checks"]["exactly-once"] >= 1
    assert res.meta["resilience"]["health_interval"] == 4_000


def test_max_failovers_caps_redispatch():
    # every host the request lands on dies: after the cap it is lost
    wl = one_request(cpu_us=10 * SEC)
    plan = FaultPlan(host_failures=((0, 100_000, 60 * SEC),
                                    (1, 200_000, 60 * SEC)))
    res = run_cluster(wl, ClusterConfig(
        n_hosts=2, host=host_cfg(faults=plan),
        resilience=ResilienceConfig(health_interval=4_000,
                                    max_failovers=1)))
    [rec] = res.records
    assert rec.status == STATUS_HOST_LOST
    assert res.meta["fault_stats"]["failovers"] == 1


# ----------------------------------------------------------------------
# hedged requests
# ----------------------------------------------------------------------
def _hedged_straggler_run(trace=None, hedge=True):
    """One long request lands on a 4x-slow host 0; the hedge (if on)
    launches a backup on fast host 1 which must win."""
    wl = one_request(cpu_us=SEC)
    plan = FaultPlan(stragglers=((0, 0.25),))
    res_cfg = ResilienceConfig(
        health_interval=4_000,
        hedge=HedgePolicy(delay=50_000) if hedge else None,
    )
    return run_cluster(wl, ClusterConfig(
        n_hosts=2, host=host_cfg(faults=plan), resilience=res_cfg),
        trace=trace, invariants=True)


def test_hedge_backup_wins_and_cancels_primary():
    res = _hedged_straggler_run()
    [rec] = res.records
    assert rec.status == "ok"
    stats = res.meta["fault_stats"]
    assert stats["hedges"] == 1
    assert stats["hedge_wins"] == 1  # the backup beat the straggler
    # first-response-wins: turnaround ~ hedge delay + fast execution,
    # far below the 4s the straggler alone would have taken
    assert rec.turnaround < 2 * SEC
    unhedged = _hedged_straggler_run(hedge=False)
    assert unhedged.records[0].turnaround >= 4 * SEC


def test_hedge_win_is_blame_attributed():
    from repro.why import blame_totals, build_timelines

    trace = TraceRecorder()
    res = _hedged_straggler_run(trace=trace)
    timelines = build_timelines(res.records, trace)
    tl = timelines[0]
    assert tl.hedge == "backup-won"
    assert tl.exact  # segments still partition [arrival, finish]
    # the pre-backup wait is attributed to the hedge, not to queueing
    assert any(s.kind == "retry" and s.reason == "hedge"
               for s in tl.segments)
    totals = blame_totals(timelines)
    assert totals["hedged"] == {"backup-won": 1}


def test_hedge_delay_is_pure_per_request():
    hp = HedgePolicy(delay=50_000, jitter=0.5, seed=3)
    delays = [hp.hedge_delay(req) for req in range(20)]
    assert delays == [hp.hedge_delay(req) for req in range(20)]
    assert len(set(delays)) > 5  # jitter spreads per request
    assert all(d >= 1 for d in delays)
    assert HedgePolicy(delay=50_000).hedge_delay(7) == 50_000  # no jitter


# ----------------------------------------------------------------------
# retry-storm defense
# ----------------------------------------------------------------------
def test_retry_budget_throttles_a_storm():
    wl = small_workload(n_requests=120, n_cores=8, load=1.0, seed=23)
    plan = FaultPlan(seed=5, crash_prob=0.5)
    res = run_cluster(
        wl,
        ClusterConfig(
            n_hosts=2,
            host=host_cfg(faults=plan,
                          retry=RetryPolicy(max_attempts=4, seed=5),
                          admission=AdmissionControl(max_outstanding=200)),
            resilience=ResilienceConfig(
                retry_budget=RetryBudget(rate_per_sec=2.0, burst=2)),
        ),
        invariants=True,
    )
    stats = res.meta["fault_stats"]
    assert stats["retry_throttled"] > 0
    # throttled requests fail instead of retrying: retries stay under
    # what the crash rate alone would have demanded
    assert stats["retries"] < stats["crashes"]
    assert res.meta["invariant_checks"]["exactly-once"] >= 1


def test_retry_budget_validation_and_json():
    with pytest.raises(ValueError):
        RetryBudget(rate_per_sec=0.0)
    with pytest.raises(ValueError):
        RetryBudget(burst=0)
    cfg = ResilienceConfig(health_interval=2_000,
                           hedge=HedgePolicy(delay=10_000, jitter=0.1),
                           retry_budget=RetryBudget(rate_per_sec=5.0,
                                                    burst=3))
    assert ResilienceConfig.from_json(cfg.to_json()) == cfg
    with pytest.raises(ValueError):
        ResilienceConfig.from_json({"health_interval": 10, "bogus": 1})
    with pytest.raises(ValueError):
        ResilienceConfig(health_interval=0)


# ----------------------------------------------------------------------
# heterogeneous clusters (host_speeds)
# ----------------------------------------------------------------------
def test_host_speeds_validated_and_surfaced():
    with pytest.raises(ValueError, match="entries"):
        ClusterConfig(n_hosts=2, host_speeds=(1.0,))
    with pytest.raises(ValueError):
        ClusterConfig(n_hosts=2, host_speeds=(1.0, 0.0))
    with pytest.raises(ValueError):
        ClusterConfig(n_hosts=2, host_speeds=(1.0, 1.5))
    wl = one_request(cpu_us=SEC)
    fast = run_cluster(wl, ClusterConfig(n_hosts=2, host=host_cfg()))
    assert "host_speeds" not in fast.meta
    slow = run_cluster(wl, ClusterConfig(n_hosts=2, host=host_cfg(),
                                         host_speeds=(0.5, 0.5)))
    assert slow.meta["host_speeds"] == [0.5, 0.5]
    # platform overheads are wall-clock and identical; only the CPU
    # service doubles at half speed, so the *delta* is exact
    assert (slow.records[0].turnaround
            == fast.records[0].turnaround + SEC)


# ----------------------------------------------------------------------
# determinism: the whole tier is a pure function of the seeds
# ----------------------------------------------------------------------
def test_resilient_runs_replay_byte_identically():
    wl = small_workload(n_requests=100, n_cores=8, load=0.9, seed=24)
    plan = FaultPlan(seed=2, crash_prob=0.2,
                     fault_domains=((0,), (1,)),
                     domain_failures=((0, 300_000, 3 * SEC),))
    cfg = ClusterConfig(
        n_hosts=2,
        host=host_cfg(faults=plan, retry=RetryPolicy(max_attempts=3)),
        resilience=ResilienceConfig(health_interval=4_000,
                                    hedge=HedgePolicy(delay=80_000),
                                    retry_budget=RetryBudget()))
    a = run_cluster(wl, cfg)
    b = run_cluster(wl, cfg)
    assert a.records == b.records
    assert a.meta["fault_stats"] == b.meta["fault_stats"]


def test_resilience_off_is_byte_identical_to_legacy():
    """config.resilience=None must leave the event stream untouched —
    the fault-handling path without a poller is the seed behavior."""
    wl = small_workload(n_requests=100, n_cores=8, load=0.9, seed=25)
    plan = FaultPlan(seed=3, crash_prob=0.1)
    base = ClusterConfig(n_hosts=2, host=host_cfg(
        faults=plan, retry=RetryPolicy(max_attempts=3)))
    legacy = run_cluster(wl, base)
    again = run_cluster(wl, base)
    assert legacy.records == again.records
    assert "resilience" not in legacy.meta


# ----------------------------------------------------------------------
# the ext-resilience grid (pool-shardable scorecard)
# ----------------------------------------------------------------------
def test_ext_resilience_shard_payloads_survive_json():
    import json as _json

    from repro.experiments import ext_resilience

    sid, payload = ext_resilience.shards(
        ext_resilience.Config(n_requests=8), seed=0)[0]
    assert sid == "domain_outage.cfs.h4"
    restored = _json.loads(_json.dumps(payload))
    assert (ext_resilience.Config(**restored["config"])
            == ext_resilience.Config(n_requests=8))


def test_ext_resilience_registered():
    from repro.experiments.registry import REGISTRY

    entry = REGISTRY["ext-resilience"]
    assert entry.shardable
