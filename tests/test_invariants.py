"""repro.invariants: the checker catches seeded bugs and stays invisible
when disabled.

Three properties matter:

1. **Soundness on clean runs** — every scheduler x engine combination
   completes under an active checker with zero violations.
2. **Sensitivity** — a deliberately seeded accounting bug (an engine
   that undercharges CPU service) is caught with a replayable report.
3. **Zero interference** — a run with the checker enabled produces
   records bit-identical to a run with it disabled.
"""

import pytest

from conftest import quick_run, small_workload
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.core.sfs import SFS, SFSStats
from repro.faas.cluster import ClusterConfig, run_cluster
from repro.faas.openlambda import OpenLambdaConfig
from repro.invariants import (
    NULL_CHECKER,
    InvariantChecker,
    InvariantViolation,
    NullChecker,
    invariants_enabled_by_default,
    resolve_checker,
)
from repro.machine.base import MachineParams
from repro.machine.fluid import FluidMachine
from repro.sched.cfs import CfsParams, CfsRunqueue
from repro.sim.engine import Simulator
from repro.sim.task import Task, cpu_task


# ----------------------------------------------------------------------
# clean runs: no false positives
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheduler", ["cfs", "sfs", "fifo", "srtf", "ideal"])
@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_clean_run_has_no_violations(scheduler, engine):
    wl = small_workload(n_requests=120, load=0.9, seed=31)
    res = quick_run(wl, scheduler, engine=engine, invariants=True)
    checks = res.meta["invariant_checks"]
    assert sum(checks.values()) > 0
    assert checks["work-conservation"] >= len(wl)


def test_faulted_run_has_no_violations():
    wl = small_workload(n_requests=150, load=0.9, seed=32)
    res = quick_run(
        wl, "cfs", engine="fluid", invariants=True,
        faults=FaultPlan(seed=9, crash_prob=0.1),
        retry=RetryPolicy(max_attempts=3),
    )
    assert res.meta["fault_stats"]["crashes"] > 0
    assert res.meta["invariant_checks"]["fault-closure"] >= 1


# ----------------------------------------------------------------------
# zero interference: enabled == disabled, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_checker_does_not_perturb_results(engine):
    wl = small_workload(n_requests=150, load=0.9, seed=33)
    on = quick_run(wl, "sfs", engine=engine, invariants=True)
    off = quick_run(wl, "sfs", engine=engine, invariants=False)
    assert on.records == off.records


def test_disabled_run_reports_no_checks():
    wl = small_workload(n_requests=50, load=0.8, seed=34)
    res = quick_run(wl, "cfs", invariants=False)
    assert "invariant_checks" not in res.meta


# ----------------------------------------------------------------------
# sensitivity: a seeded accounting bug is caught with a replayable report
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_seeded_undercharge_bug_is_caught(engine, monkeypatch):
    """Mutate the engine-shared charging helper so every task silently
    loses 1us of charged service — the classic lost-work accounting bug.
    The work-conservation check at the exit boundary must catch it and
    name the seed needed to replay."""
    real = Task.consume_cpu

    def undercharging(self, amount):
        real(self, amount)
        if self.cpu_time > 0:
            self.cpu_time -= 1  # work vanishes from the books

    monkeypatch.setattr(Task, "consume_cpu", undercharging)
    wl = small_workload(n_requests=40, load=0.8, seed=35)
    with pytest.raises(InvariantViolation) as exc_info:
        quick_run(wl, "cfs", engine=engine, invariants=True)
    v = exc_info.value
    assert v.invariant == "work-conservation"
    assert v.seed == wl.meta["seed"]
    assert "cfs" in v.label and engine in v.label
    assert "replay with" in v.report()
    assert "REPRO_INVARIANTS=1" in v.report()


def test_seeded_time_travel_is_caught():
    chk = InvariantChecker(seed=1, label="unit")
    chk.on_event(now=100, prev=0)
    with pytest.raises(InvariantViolation) as exc_info:
        chk.on_event(now=50, prev=100)
    assert exc_info.value.invariant == "monotone-clock"
    assert exc_info.value.sim_time == 50


def test_runqueue_corruption_is_caught():
    rq = CfsRunqueue(CfsParams())
    for _ in range(8):
        rq.enqueue(cpu_task(1000))
    chk = InvariantChecker(deep_every=1)
    chk.on_runqueue(rq)  # sound tree passes
    rq.total_weight += 512  # corrupt the aggregate
    with pytest.raises(InvariantViolation) as exc_info:
        chk.on_runqueue(rq)
    assert exc_info.value.invariant == "runqueue-soundness"


def test_double_finish_is_caught():
    chk = InvariantChecker()
    t = cpu_task(100)
    t.dispatch_time = 0
    t.finish_time = 100
    t.cpu_time = 100
    t.burst_remaining = 0
    t.burst_index = 1
    chk.on_task_finish(t, now=100)
    with pytest.raises(InvariantViolation) as exc_info:
        chk.on_task_finish(t, now=100)
    assert exc_info.value.invariant == "no-lost-tasks"


def _busy_fluid_pool() -> FluidMachine:
    """Three CPU tasks sharing a two-core fluid pool."""
    machine = FluidMachine(Simulator(), MachineParams(n_cores=2))
    for _ in range(3):
        machine.spawn(cpu_task(5000))
    return machine


def test_stale_pool_rates_are_caught():
    machine = _busy_fluid_pool()
    chk = InvariantChecker(deep_every=1)
    chk.on_fluid_pool(machine)  # a sound pool passes
    rate, slice_rate, busy = machine._pool_rates()
    machine._rates = (rate * 2, slice_rate, busy)  # a stale cache
    with pytest.raises(InvariantViolation, match="cached pool rates") as e:
        chk.on_fluid_pool(machine)
    assert e.value.invariant == "runqueue-soundness"


def test_misplaced_pool_completion_is_caught():
    machine = _busy_fluid_pool()
    chk = InvariantChecker(deep_every=1)
    event = machine._pool_event
    machine._pool_event = machine.sim.move(event, event.time + 1)
    with pytest.raises(InvariantViolation,
                       match="pool completion event at") as e:
        chk.on_fluid_pool(machine)
    assert e.value.invariant == "runqueue-soundness"


# ----------------------------------------------------------------------
# SFS accounting: every queue entry and promotion has one outcome
# ----------------------------------------------------------------------
def _forget_in_slice_completions(monkeypatch):
    """Seeded bug: SFS stops counting functions that finish inside
    their FILTER slice."""
    monkeypatch.setattr(SFSStats, "completed_in_filter",
                        property(lambda self: 0, lambda self, value: None))


def _sfs_cluster(wl):
    config = ClusterConfig(n_hosts=2, host=OpenLambdaConfig(
        machine=MachineParams(n_cores=4), scheduler="sfs"))
    return run_cluster(wl, config, invariants=True)


def test_sfs_closure_runs_on_every_sfs_host():
    wl = small_workload(n_requests=120, load=0.9, seed=31)
    res = quick_run(wl, "sfs", invariants=True)
    assert res.meta["invariant_checks"]["sfs-accounting"] == 1
    res = _sfs_cluster(wl)
    assert res.meta["invariant_checks"]["sfs-accounting"] == 2
    res = quick_run(wl, "cfs", invariants=True)
    assert "sfs-accounting" not in res.meta["invariant_checks"]


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_seeded_sfs_counter_skip_is_caught(engine, monkeypatch):
    _forget_in_slice_completions(monkeypatch)
    wl = small_workload(n_requests=120, load=0.9, seed=31)
    with pytest.raises(InvariantViolation) as exc_info:
        quick_run(wl, "sfs", engine=engine, invariants=True)
    v = exc_info.value
    assert v.invariant == "sfs-accounting"
    assert "promotions but" in v.detail
    assert v.seed == wl.meta["seed"]


def test_seeded_sfs_counter_skip_is_caught_in_cluster(monkeypatch):
    _forget_in_slice_completions(monkeypatch)
    wl = small_workload(n_requests=120, load=0.9, seed=31)
    with pytest.raises(InvariantViolation) as exc_info:
        _sfs_cluster(wl)
    assert exc_info.value.invariant == "sfs-accounting"
    assert "cluster" in exc_info.value.label


def test_seeded_sfs_idle_count_drift_is_caught(monkeypatch):
    """Seeded bug: releasing a worker counts it idle twice."""
    real = SFS._release

    def generous(self, worker):
        real(self, worker)
        self._idle += 1

    monkeypatch.setattr(SFS, "_release", generous)
    wl = small_workload(n_requests=120, load=0.9, seed=31)
    with pytest.raises(InvariantViolation) as exc_info:
        quick_run(wl, "sfs", invariants=True)
    assert exc_info.value.invariant == "sfs-accounting"
    assert "idle workers" in exc_info.value.detail


# ----------------------------------------------------------------------
# post-run accounting closure
# ----------------------------------------------------------------------
def _run_with_records():
    wl = small_workload(n_requests=60, load=0.8, seed=36)
    res = quick_run(wl, "cfs", engine="fluid")
    return wl, list(res.records)


def test_accounting_closure_accepts_clean_records():
    wl, records = _run_with_records()
    InvariantChecker().check_accounting(wl, records)


def test_accounting_closure_catches_lost_request():
    wl, records = _run_with_records()
    with pytest.raises(InvariantViolation) as exc_info:
        InvariantChecker().check_accounting(wl, records[:-1])
    v = exc_info.value
    assert v.invariant == "no-lost-tasks"
    assert "missing" in v.detail


def test_accounting_closure_catches_duplicate_request():
    # a duplicated record means one request got two terminal outcomes —
    # the exactly-once guarantee (not merely a lost task)
    wl, records = _run_with_records()
    with pytest.raises(InvariantViolation) as exc_info:
        InvariantChecker().check_accounting(wl, records + [records[0]])
    assert exc_info.value.invariant == "exactly-once"


def test_accounting_closure_catches_bogus_status():
    import dataclasses

    wl, records = _run_with_records()
    records[3] = dataclasses.replace(records[3], status="exploded")
    with pytest.raises(InvariantViolation) as exc_info:
        InvariantChecker().check_accounting(wl, records)
    assert exc_info.value.invariant == "fault-closure"


def test_accounting_closure_catches_failure_without_governor():
    import dataclasses

    wl, records = _run_with_records()
    records[0] = dataclasses.replace(records[0], status="failed")
    with pytest.raises(InvariantViolation) as exc_info:
        InvariantChecker().check_accounting(wl, records, fault_stats=None)
    assert exc_info.value.invariant == "fault-closure"


def test_accounting_closure_checks_governor_counters():
    import dataclasses

    wl, records = _run_with_records()
    records[0] = dataclasses.replace(records[0], status="shed", attempts=0)
    stats = {"shed": 0, "abandoned": 0, "retries": 0}
    with pytest.raises(InvariantViolation) as exc_info:
        InvariantChecker().check_accounting(wl, records, fault_stats=stats)
    assert exc_info.value.invariant == "fault-closure"
    stats["shed"] = 1
    InvariantChecker().check_accounting(wl, records, fault_stats=stats)


# ----------------------------------------------------------------------
# plumbing: resolution, env switch, null checker
# ----------------------------------------------------------------------
def test_resolve_checker_explicit():
    assert resolve_checker(False) is NULL_CHECKER
    chk = resolve_checker(True, seed=7, label="x")
    assert chk.enabled and chk.seed == 7 and chk.label == "x"


def test_resolve_checker_env(monkeypatch):
    monkeypatch.delenv("REPRO_INVARIANTS", raising=False)
    assert not invariants_enabled_by_default()
    assert resolve_checker(None) is NULL_CHECKER
    monkeypatch.setenv("REPRO_INVARIANTS", "1")
    assert invariants_enabled_by_default()
    assert resolve_checker(None).enabled
    monkeypatch.setenv("REPRO_INVARIANTS", "0")
    assert resolve_checker(None) is NULL_CHECKER


def test_null_checker_is_inert():
    assert not NULL_CHECKER.enabled
    assert NULL_CHECKER.summary() == {}
    assert isinstance(NULL_CHECKER, NullChecker)
    # every hook is a no-op on arbitrary junk
    NULL_CHECKER.on_event(5, 99)
    NULL_CHECKER.on_charge(object())
    NULL_CHECKER.check_accounting(None, None)


def test_violation_report_is_replayable():
    v = InvariantViolation(
        "work-conservation", "lost 3us", sim_time=42, tid=7,
        seed=123, label="scheduler=cfs engine=fluid", context={"name": "fib"},
    )
    r = v.report()
    assert "invariant violated: work-conservation" in r
    assert "t=42us" in r and "tid=7" in r
    assert "seed=123" in r and "scheduler=cfs engine=fluid" in r
    assert "name='fib'" in r
