"""Fault injection, retries and graceful degradation (repro.faults)."""

import dataclasses
from functools import partial

import pytest

from conftest import small_workload
from repro.experiments.runner import RunConfig, run_workload
from repro.faas.cluster import ClusterConfig, run_cluster
from repro.faas.openlambda import OpenLambdaConfig, run_openlambda
from repro.faults import (
    STATUS_FAILED,
    STATUS_HOST_LOST,
    STATUS_OK,
    STATUS_SHED,
    STATUS_TIMEOUT,
    AdmissionControl,
    FaultPlan,
    NULL_PLAN,
    RetryPolicy,
)
from repro.machine.base import MachineParams
from repro.machine.discrete import DiscreteMachine
from repro.machine.fluid import FluidMachine
from repro.metrics.faults import fault_summary
from repro.sched.srtf import SRTFMachine
from repro.sim.engine import Simulator
from repro.sim.task import Burst, BurstKind, SchedPolicy, Task, TaskState
from repro.sim.units import MS, SEC


# ----------------------------------------------------------------------
# FaultPlan: validation, determinism, serialisation
# ----------------------------------------------------------------------
def test_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(crash_prob=1.5)
    with pytest.raises(ValueError):
        FaultPlan(coldstart_fail_prob=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(stragglers=((0, 0.0),))  # speed must be > 0
    with pytest.raises(ValueError):
        FaultPlan(stragglers=((-1, 0.5),))
    with pytest.raises(ValueError):
        FaultPlan(host_failures=((0, 5, 5),))  # empty window


def test_plan_rejects_internally_contradictory_faults():
    with pytest.raises(ValueError, match="appears twice in stragglers"):
        FaultPlan(stragglers=((1, 0.5), (1, 0.8)))
    with pytest.raises(ValueError, match="overlapping failure windows"):
        FaultPlan(host_failures=((0, 10, 100), (0, 50, 200)))
    # back-to-back windows on one host are fine (down, up, down again)
    FaultPlan(host_failures=((0, 10, 100), (0, 100, 200)))
    # the same window on different hosts is fine too
    FaultPlan(host_failures=((0, 10, 100), (1, 10, 100)))
    with pytest.raises(ValueError, match="contradictory fault models"):
        FaultPlan(stragglers=((0, 0.5),), host_failures=((0, 10, 100),))


def test_plan_is_null():
    assert NULL_PLAN.is_null
    assert not FaultPlan(crash_prob=0.1).is_null
    assert not FaultPlan(stragglers=((1, 0.5),)).is_null


def test_crash_decision_is_pure_and_interior():
    plan = FaultPlan(seed=3, crash_prob=0.5)
    for req in range(50):
        a = plan.crashes(req, 1)
        b = plan.crashes(req, 1)
        assert a == b  # pure function of (seed, req_id, attempt)
        if a is not None:
            assert 0.0 < a < 1.0
    # different attempts of the same request decide independently
    outcomes = {plan.crashes(7, k) is None for k in range(1, 20)}
    assert outcomes == {True, False}


def test_zero_prob_plans_never_touch_rng():
    plan = FaultPlan(seed=1)
    assert plan.crashes(0, 1) is None
    assert not plan.coldstart_fails(0, 1)
    assert plan.straggler_speed(0) == 1.0
    assert plan.straggler_speed(99) == 1.0


def test_plan_json_roundtrip(tmp_path):
    plan = FaultPlan(seed=9, crash_prob=0.2, coldstart_fail_prob=0.05,
                     stragglers=((1, 0.5),), host_failures=((0, 10, 20),))
    path = tmp_path / "plan.json"
    plan.save(path)
    assert FaultPlan.load(path) == plan


def test_plan_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        FaultPlan.from_json({"seed": 1, "explode_prob": 0.5})


# ----------------------------------------------------------------------
# RetryPolicy / AdmissionControl
# ----------------------------------------------------------------------
def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_backoff=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_backoff=100, max_backoff=50)


def test_retry_allows_caps_attempts():
    p = RetryPolicy(max_attempts=3)
    assert p.allows(1) and p.allows(2)
    assert not p.allows(3)
    assert not RetryPolicy(max_attempts=1).allows(1)  # fail fast


def test_backoff_deterministic_and_bounded():
    p = RetryPolicy(max_attempts=5, base_backoff=1000, max_backoff=50_000)
    for req in range(20):
        for attempt in (1, 2, 3, 4):
            d = p.backoff(req, attempt)
            assert d == p.backoff(req, attempt)
            assert 1 <= d <= 50_000


def test_backoff_jitters_across_requests():
    p = RetryPolicy(base_backoff=1000, max_backoff=10 * SEC)
    delays = {p.backoff(req, 2) for req in range(30)}
    assert len(delays) > 15  # decorrelated jitter actually spreads


def test_backoff_is_pure_across_instances_and_call_order():
    """The delay is a function of (seed, req_id, attempt) alone: a
    freshly built policy agrees with a heavily used one, and querying
    attempts out of order changes nothing (no hidden stream state)."""
    a = RetryPolicy(max_attempts=5, base_backoff=1000, max_backoff=50_000,
                    seed=7)
    want = {(req, att): a.backoff(req, att)
            for req in range(5) for att in (1, 2, 3, 4)}
    b = RetryPolicy(max_attempts=5, base_backoff=1000, max_backoff=50_000,
                    seed=7)
    for (req, att) in sorted(want, key=lambda k: (-k[1], k[0])):
        assert b.backoff(req, att) == want[(req, att)]
    # a different seed moves the jitter
    c = RetryPolicy(max_attempts=5, base_backoff=1000, max_backoff=50_000,
                    seed=8)
    assert any(c.backoff(req, 2) != want[(req, 2)] for req in range(5))


def test_admission_watermark():
    ac = AdmissionControl(max_outstanding=4)
    assert ac.admits(3)
    assert not ac.admits(4)
    with pytest.raises(ValueError):
        AdmissionControl(max_outstanding=0)


def test_admission_boundary_exact():
    """The watermark is exclusive: outstanding == limit sheds, one
    below admits — at every limit down to the degenerate 1."""
    for limit in (1, 2, 256):
        ac = AdmissionControl(max_outstanding=limit)
        assert ac.admits(limit - 1)
        assert not ac.admits(limit)
        assert not ac.admits(limit + 1)


# ----------------------------------------------------------------------
# machine.kill(): every engine, every task state
# ----------------------------------------------------------------------
ENGINES = {
    "fluid": FluidMachine,
    "discrete": DiscreteMachine,
    "srtf": SRTFMachine,
    "ideal": partial(SRTFMachine, unbounded=True),
}


def _cpu_task(ms=50, io_first_ms=0, policy=SchedPolicy.CFS):
    bursts = []
    if io_first_ms:
        bursts.append(Burst(BurstKind.IO, io_first_ms * MS))
    bursts.append(Burst(BurstKind.CPU, ms * MS))
    return Task(bursts=bursts, policy=policy)


def _kill_cases(engines):
    """Each engine with a CFS task (id: the engine) and a FIFO task
    (id: engine-fifo), which the fluid engine runs on a dedicated core
    whose burst-end timer the kill must cancel."""
    return ([pytest.param(e, SchedPolicy.CFS, id=e) for e in engines]
            + [pytest.param(e, SchedPolicy.FIFO, id=f"{e}-fifo")
               for e in engines])


@pytest.mark.parametrize("engine,policy", _kill_cases(list(ENGINES)))
def test_kill_running_task(engine, policy):
    sim = Simulator()
    m = ENGINES[engine](sim, MachineParams(n_cores=1))
    finished = []
    m.on_finish(lambda t: finished.append(t.tid))
    task = _cpu_task(50, policy=policy)
    m.spawn(task)
    sim.schedule(10 * MS, m.kill, task, "crash")
    sim.run()
    assert task.killed and task.kill_reason == "crash"
    assert task.state is TaskState.FINISHED
    assert finished == [task.tid]
    assert task.finish_time == 10 * MS
    assert task.cpu_time <= 10 * MS  # charged only what it received
    assert task.timer is None
    assert sim.now == 10 * MS  # the burst end never fires


@pytest.mark.parametrize("engine", ["fluid", "discrete", "srtf"])
def test_kill_queued_task(engine):
    sim = Simulator()
    m = ENGINES[engine](sim, MachineParams(n_cores=1))
    a, b = _cpu_task(100), _cpu_task(100)
    m.spawn(a)
    m.spawn(b)  # b waits behind a on the single core (or shares the pool)
    sim.schedule(1 * MS, m.kill, b, "timeout")
    sim.run()
    assert b.killed and b.kill_reason == "timeout"
    assert a.finished and not a.killed  # the survivor runs to completion


@pytest.mark.parametrize("engine,policy",
                         _kill_cases(["fluid", "discrete", "srtf"]))
def test_kill_blocked_task(engine, policy):
    sim = Simulator()
    m = ENGINES[engine](sim, MachineParams(n_cores=1))
    # blocked on IO at kill time
    task = _cpu_task(20, io_first_ms=50, policy=policy)
    m.spawn(task)
    sim.schedule(5 * MS, m.kill, task, "host")
    sim.run()
    assert task.killed and task.kill_reason == "host"
    assert task.timer is None
    assert sim.now == 5 * MS  # the pending IO wake never fires


def test_srtf_runnable_count_skips_killed_tasks():
    # a killed READY task leaves a stale entry deep in the SRTF heap; the
    # runnable gauge must not count it
    sim = Simulator()
    m = SRTFMachine(sim, MachineParams(n_cores=1))
    tasks = [_cpu_task(ms) for ms in (100, 200, 300)]
    for t in tasks:
        m.spawn(t)
    assert m.runnable_count() == 2
    assert m.kill(tasks[2], "timeout")
    assert m.runnable_count() == 1


def test_kill_finished_task_is_noop():
    sim = Simulator()
    m = FluidMachine(sim, MachineParams(n_cores=1))
    task = _cpu_task(5)
    m.spawn(task)
    sim.run()
    assert not m.kill(task, "crash")
    assert not task.killed


def test_kill_frees_the_core_for_waiting_work():
    sim = Simulator()
    m = DiscreteMachine(sim, MachineParams(n_cores=1, ctx_switch_cost=0))
    a, b = _cpu_task(1000), _cpu_task(10)
    m.spawn(a)
    m.spawn(b)
    sim.schedule(1 * MS, m.kill, a, "crash")
    sim.run()
    assert b.finished and not b.killed
    assert b.finish_time < 1000 * MS  # b did not wait out a's full burst


# ----------------------------------------------------------------------
# straggler speed: degraded machines serve work proportionally slower
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_straggler_speed_scales_runtime(engine):
    def finish_at(speed):
        sim = Simulator()
        m = ENGINES[engine](
            sim, MachineParams(n_cores=1, ctx_switch_cost=0, speed=speed)
        )
        task = _cpu_task(100)
        m.spawn(task)
        sim.run()
        assert task.cpu_time == 100 * MS  # demand fully served...
        return task.finish_time

    assert finish_at(1.0) == 100 * MS
    assert finish_at(0.5) == 200 * MS  # ...but at half speed, twice the wall


def test_speed_validation():
    with pytest.raises(ValueError):
        MachineParams(speed=0.0)
    with pytest.raises(ValueError):
        MachineParams(speed=1.5)


# ----------------------------------------------------------------------
# end-to-end fault handling through the experiment runner
# ----------------------------------------------------------------------
def _faulted_cfg(**kw):
    base = dict(
        scheduler="cfs",
        engine="fluid",
        machine=MachineParams(n_cores=8),
        faults=FaultPlan(seed=5, crash_prob=0.2, coldstart_fail_prob=0.05),
        retry=RetryPolicy(max_attempts=3),
        timeout=30 * SEC,
    )
    base.update(kw)
    return RunConfig(**base)


def test_runner_recovers_crashes_with_retries():
    wl = small_workload(n_requests=150, n_cores=8, load=0.6)
    res = run_workload(wl, _faulted_cfg())
    assert len(res.records) == 150
    stats = res.meta["fault_stats"]
    assert stats["crashes"] > 0
    assert stats["retries"] > 0
    by_status = {r.status for r in res.records}
    assert STATUS_OK in by_status
    ok = [r for r in res.records if r.ok]
    assert all(r.attempts >= 1 for r in res.records)
    # someone needed more than one attempt yet still succeeded
    assert any(r.attempts > 1 for r in ok)


def test_runner_fail_fast_without_retry():
    wl = small_workload(n_requests=150, n_cores=8, load=0.6)
    res = run_workload(wl, _faulted_cfg(retry=RetryPolicy(max_attempts=1)))
    failed = [r for r in res.records if r.status == STATUS_FAILED]
    assert failed  # crash_prob 0.2 over 150 requests must kill someone
    assert all(r.attempts == 1 for r in failed)
    assert res.meta["fault_stats"]["retries"] == 0


def test_runner_timeout_kills_long_requests():
    wl = small_workload(n_requests=200, n_cores=8, load=1.0)
    res = run_workload(
        wl,
        RunConfig(scheduler="cfs", machine=MachineParams(n_cores=8),
                  timeout=200 * MS),
    )
    timed_out = [r for r in res.records if r.status == STATUS_TIMEOUT]
    assert timed_out  # the workload has plenty of >200ms requests
    assert res.meta["fault_stats"]["timeouts"] == len(timed_out)
    # a timed-out request never runs past its deadline
    for r in timed_out:
        assert r.finish <= r.arrival + 200 * MS


def test_runner_sheds_overload():
    wl = small_workload(n_requests=300, n_cores=4, load=2.0)
    res = run_workload(
        wl,
        RunConfig(scheduler="cfs", machine=MachineParams(n_cores=4),
                  admission=AdmissionControl(max_outstanding=16)),
    )
    shed = [r for r in res.records if r.status == STATUS_SHED]
    assert shed
    assert res.meta["fault_stats"]["shed"] == len(shed)
    assert all(r.attempts == 0 for r in shed)  # never started
    assert all(r.cpu_time == 0 for r in shed)
    assert len(res.records) == 300  # shed requests still accounted


def test_fault_summary_accounting():
    wl = small_workload(n_requests=150, n_cores=8, load=0.6)
    res = run_workload(wl, _faulted_cfg())
    s = fault_summary(res)
    assert s.total == 150
    assert s.ok + s.failed + s.timeout + s.shed == s.total
    assert 0.0 <= s.goodput_fraction <= 1.0
    assert s.goodput_rps <= s.throughput_rps
    assert s.retries_per_request >= 0.0


# ----------------------------------------------------------------------
# determinism: the acceptance criteria
# ----------------------------------------------------------------------
def test_same_seed_same_plan_bit_identical():
    wl = small_workload(n_requests=150, n_cores=8, load=0.8)
    a = run_workload(wl, _faulted_cfg())
    b = run_workload(wl, _faulted_cfg())
    assert a.records == b.records
    assert a.sim_time == b.sim_time
    assert a.meta["fault_stats"] == b.meta["fault_stats"]


def test_no_fault_run_identical_to_baseline():
    """Enabling the subsystem without any fault must not perturb the
    simulation: same records, same timing, bit for bit."""
    wl = small_workload(n_requests=200, n_cores=8, load=0.9)
    baseline = run_workload(
        wl, RunConfig(scheduler="sfs", machine=MachineParams(n_cores=8))
    )
    nulled = run_workload(
        wl,
        RunConfig(scheduler="sfs", machine=MachineParams(n_cores=8),
                  faults=NULL_PLAN, retry=RetryPolicy(max_attempts=3)),
    )
    strip = lambda r: dataclasses.replace(r)  # records compare field-wise
    assert [strip(r) for r in nulled.records] == [strip(r) for r in baseline.records]
    assert nulled.sim_time == baseline.sim_time
    assert nulled.busy_time == baseline.busy_time
    stats = nulled.meta["fault_stats"]
    assert all(v == 0 for v in stats.values())


def test_plan_identical_across_schedulers():
    """The paired-run property: the same plan makes the same requests
    crash under CFS and SFS, whatever the interleaving differences."""
    wl = small_workload(n_requests=150, n_cores=8, load=0.7)
    plan = FaultPlan(seed=11, crash_prob=0.3)
    runs = {
        s: run_workload(wl, _faulted_cfg(scheduler=s, faults=plan,
                                         retry=RetryPolicy(max_attempts=1)))
        for s in ("cfs", "sfs")
    }
    failed = {
        s: {r.req_id for r in runs[s].records if r.status == STATUS_FAILED}
        for s in runs
    }
    assert failed["cfs"] == failed["sfs"]


# ----------------------------------------------------------------------
# OpenLambda platform and cluster under faults
# ----------------------------------------------------------------------
def _ol_cfg(**kw):
    base = dict(
        machine=MachineParams(n_cores=8),
        scheduler="cfs",
        faults=FaultPlan(seed=2, crash_prob=0.15, coldstart_fail_prob=0.05),
        retry=RetryPolicy(max_attempts=3),
        timeout=60 * SEC,
    )
    base.update(kw)
    return OpenLambdaConfig(**base)


def test_openlambda_faulted_run_completes_and_repeats():
    wl = small_workload(n_requests=150, n_cores=8, load=0.6)
    a = run_openlambda(wl, _ol_cfg())
    b = run_openlambda(wl, _ol_cfg())
    assert len(a.records) == 150
    assert a.meta["fault_stats"]["crashes"] > 0
    assert a.records == b.records  # deterministic


def test_openlambda_nominal_unchanged_by_null_governor():
    wl = small_workload(n_requests=150, n_cores=8, load=0.6)
    plain = run_openlambda(wl, OpenLambdaConfig(machine=MachineParams(n_cores=8)))
    nulled = run_openlambda(wl, _ol_cfg(faults=NULL_PLAN))
    assert nulled.records == plain.records
    assert nulled.sim_time == plain.sim_time


def test_cluster_survives_host_failure_window():
    wl = small_workload(n_requests=200, n_cores=16, load=0.5, seed=3)
    host = _ol_cfg(
        machine=MachineParams(n_cores=4),
        faults=FaultPlan(seed=2, crash_prob=0.1,
                         host_failures=((0, 2 * SEC, 8 * SEC),),
                         stragglers=((1, 0.5),)),
    )
    cfg = ClusterConfig(n_hosts=4, host=host, placement="least_loaded")
    a = run_cluster(wl, cfg)
    b = run_cluster(wl, cfg)
    assert len(a.records) == 200
    assert a.records == b.records
    stats = a.meta["fault_stats"]
    assert stats["crashes"] > 0
    # every record reached a terminal status
    assert all(r.status in (STATUS_OK, STATUS_FAILED, STATUS_TIMEOUT,
                            STATUS_SHED, STATUS_HOST_LOST)
               for r in a.records)


def test_cluster_rejects_failure_of_unknown_host():
    host = _ol_cfg(faults=FaultPlan(host_failures=((9, 1, 2),)))
    with pytest.raises(ValueError):
        sim = Simulator()
        from repro.faas.cluster import FaaSCluster
        FaaSCluster(sim, ClusterConfig(n_hosts=2, host=host))


# ----------------------------------------------------------------------
# chaos experiment (scaled far down)
# ----------------------------------------------------------------------
def test_chaos_experiment_tiny():
    import json

    from repro.experiments import chaos

    cfg = chaos.Config(n_requests=300, n_hosts=2, cores_per_host=4)
    cells = [(p["scenario"], p["scheduler"])
             for _, p in chaos.shards(cfg, seed=0)]
    assert cells == [(sc, s) for sc in ("crash", "straggler", "overload")
                     for s in ("cfs", "sfs")]
    texts = []
    for scenario, scheduler in cells:
        r = chaos.run_cell(cfg, 0, scenario, scheduler)
        assert len(r.records) == 300
        texts.append(json.dumps(chaos.cell_summary(scenario, scheduler, r)))
    out = chaos.render_shards(texts, cfg)
    assert "goodput" in out and "crash" in out and "straggler" in out
