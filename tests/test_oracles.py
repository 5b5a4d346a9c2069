"""SRTF oracle and IDEAL baseline."""

import numpy as np
import pytest

from conftest import make_cpu_task, make_io_task, quick_run, small_workload
from repro.experiments.runner import RunConfig, run_workload
from repro.machine.base import MachineParams
from repro.sched.srtf import SRTFMachine
from repro.sim.engine import Simulator
from repro.sim.task import SchedPolicy
from repro.sim.units import MS
from repro.why import AuditLog
from repro.workload.faasbench import FaaSBench, FaaSBenchConfig


def test_srtf_prefers_shortest(sim):
    m = SRTFMachine(sim, MachineParams(n_cores=1))
    long_ = make_cpu_task(100 * MS)
    short = make_cpu_task(10 * MS)
    m.spawn(long_)
    sim.schedule_at(5 * MS, m.spawn, short)
    sim.run()
    # the short arrival preempts the long task immediately
    assert short.finish_time == 15 * MS
    assert long_.finish_time == 110 * MS
    assert long_.ctx_involuntary == 1


def test_srtf_no_needless_preemption(sim):
    m = SRTFMachine(sim, MachineParams(n_cores=1))
    a = make_cpu_task(10 * MS)
    b = make_cpu_task(100 * MS)
    m.spawn(a)
    sim.schedule_at(5 * MS, m.spawn, b)
    sim.run()
    assert a.ctx_involuntary == 0  # remaining 5ms < 100ms: keeps the core
    assert a.finish_time == 10 * MS


def test_srtf_uses_remaining_not_total(sim):
    m = SRTFMachine(sim, MachineParams(n_cores=1))
    big = make_cpu_task(100 * MS)
    m.spawn(big)
    mid = make_cpu_task(8 * MS)
    # big has only 5 ms left when mid (8 ms) arrives: no preemption
    sim.schedule_at(95 * MS, m.spawn, mid)
    sim.run()
    assert big.finish_time == 100 * MS
    assert mid.finish_time == 108 * MS


def test_srtf_multicore_fills_cores(sim):
    m = SRTFMachine(sim, MachineParams(n_cores=2))
    ts = [make_cpu_task(d * MS) for d in (30, 20, 10)]
    for t in ts:
        m.spawn(t)
    sim.run()
    # 10 and 20 run first; 30 preempted, resumes when 10 finishes
    assert ts[2].finish_time == 10 * MS
    assert ts[1].finish_time == 20 * MS
    assert ts[0].finish_time == 40 * MS


def test_srtf_with_io(sim):
    m = SRTFMachine(sim, MachineParams(n_cores=1))
    t = make_io_task(20 * MS, 10 * MS)
    other = make_cpu_task(15 * MS)
    m.spawn(t)
    m.spawn(other)
    sim.run()
    assert other.finish_time == 15 * MS  # ran during the I/O
    assert t.finish_time == 30 * MS


def test_srtf_beats_cfs_on_mean_turnaround():
    wl = small_workload(n_requests=300, load=1.0)
    cfs = quick_run(wl, "cfs")
    srtf = quick_run(wl, "srtf")
    assert srtf.turnarounds.mean() < cfs.turnarounds.mean()


def test_srtf_ignores_set_policy(sim):
    m = SRTFMachine(sim, MachineParams(n_cores=1))
    t = make_cpu_task(10 * MS)
    m.spawn(t)
    m.set_policy(t, SchedPolicy.FIFO)  # no-op, no error
    sim.run()
    assert t.finished


def test_ideal_turnaround_equals_demand(sim):
    m = SRTFMachine(sim, unbounded=True)
    tasks = [make_cpu_task(d * MS) for d in (5, 50, 500)]
    tasks.append(make_io_task(20 * MS, 30 * MS))
    for t in tasks:
        m.spawn(t)
    sim.run()
    for t in tasks:
        assert t.turnaround == t.ideal_duration
        assert t.ctx_involuntary == 0
        assert t.cpu_time == t.cpu_demand
        assert t.io_time == t.io_demand


def test_ideal_unbounded_parallelism(sim):
    m = SRTFMachine(sim, unbounded=True)
    tasks = [make_cpu_task(100 * MS) for _ in range(500)]
    for t in tasks:
        m.spawn(t)
    sim.run()
    # all 500 in parallel on a 12-core host: none waits or is preempted
    for t in tasks:
        assert t.finish_time == 100 * MS
        assert t.wait_time == 0
        assert t.ctx_involuntary == 0
    assert m.idle_cores() == 0 and m.runnable_count() == 0


def test_ideal_bare_and_audited_runs_execute_the_same_events():
    # IDEAL steps every burst whether or not a probe is live, so an
    # audit (or trace) changes no event and no record
    wl = FaaSBench(FaaSBenchConfig(n_requests=400, n_cores=8,
                                   io_fraction=0.3), seed=3).generate()
    cfg = RunConfig(scheduler="ideal", machine=MachineParams(n_cores=8))
    bare = run_workload(wl, cfg)
    audited = run_workload(wl, cfg, audit=AuditLog())
    assert bare.manifest.events_executed == audited.manifest.events_executed
    assert bare.records == audited.records
    assert all(r.wait_time == 0 for r in bare.records)


def test_ideal_lower_bounds_everyone():
    wl = small_workload(n_requests=300, load=1.0)
    ideal = quick_run(wl, "ideal")
    for sched in ("cfs", "sfs", "srtf", "fifo"):
        other = quick_run(wl, sched)
        assert np.all(other.turnarounds >= ideal.turnarounds - 1), sched


def test_rte_is_one_under_ideal_for_cpu_tasks():
    wl = small_workload(n_requests=200, load=0.8)
    ideal = quick_run(wl, "ideal")
    assert np.allclose(ideal.rtes, 1.0, atol=1e-9)
