"""Scenario tests for the fluid (processor-sharing) engine."""

from conftest import make_cpu_task, make_io_task
from repro.machine.base import MachineParams
from repro.machine.fluid import FluidMachine
from repro.sim.engine import Simulator
from repro.sim.task import SchedPolicy, TaskState
from repro.sim.units import MS


def machine(sim, cores=2, **kw):
    return FluidMachine(sim, MachineParams(n_cores=cores), **kw)


def test_single_task_exact(sim):
    m = machine(sim, cores=1)
    t = make_cpu_task(50 * MS)
    m.spawn(t)
    sim.run()
    assert t.turnaround == 50 * MS
    assert t.cpu_time == 50 * MS


def test_processor_sharing_two_tasks(sim):
    m = machine(sim, cores=1)
    a, b = make_cpu_task(100 * MS), make_cpu_task(100 * MS)
    m.spawn(a)
    m.spawn(b)
    sim.run()
    # perfect sharing: both at rate 1/2 -> both finish at 200 ms
    assert a.finish_time == 200 * MS
    assert b.finish_time == 200 * MS


def test_processor_sharing_short_vs_long(sim):
    m = machine(sim, cores=1)
    short, long_ = make_cpu_task(50 * MS), make_cpu_task(150 * MS)
    m.spawn(short)
    m.spawn(long_)
    sim.run()
    # short finishes at 100 ms (rate 1/2); long then runs alone
    assert short.finish_time == 100 * MS
    assert long_.finish_time == 200 * MS


def test_rate_capped_at_one(sim):
    m = machine(sim, cores=4)
    a = make_cpu_task(10 * MS)
    m.spawn(a)
    sim.run()
    assert a.finish_time == 10 * MS  # one task cannot use 4 cores


def test_service_conservation(sim):
    m = machine(sim, cores=3)
    tasks = [make_cpu_task((5 + i) * MS) for i in range(30)]
    for i, t in enumerate(tasks):
        sim.schedule_at(i * 2 * MS, m.spawn, t)
    sim.run()
    assert sum(t.cpu_time for t in tasks) == sum(t.cpu_demand for t in tasks)


def test_fifo_occupies_dedicated_core(sim):
    m = machine(sim, cores=1)
    rt = make_cpu_task(50 * MS, policy=SchedPolicy.FIFO)
    cfs = make_cpu_task(50 * MS)
    m.spawn(cfs)
    sim.schedule_at(10 * MS, m.spawn, rt)
    sim.run()
    # RT freezes the pool: finishes exactly 50 ms after arrival
    assert rt.finish_time == 60 * MS
    # cfs served 10 ms before the freeze, resumes at 60 for its last 40
    assert cfs.finish_time == 100 * MS


def test_fifo_queue_when_cores_full(sim):
    m = machine(sim, cores=1)
    first = make_cpu_task(100 * MS, policy=SchedPolicy.FIFO)
    second = make_cpu_task(10 * MS, policy=SchedPolicy.FIFO)
    m.spawn(first)
    sim.schedule_at(1 * MS, m.spawn, second)
    sim.run()
    assert first.finish_time == 100 * MS
    assert second.finish_time == 110 * MS


def test_higher_rt_priority_preempts(sim):
    m = machine(sim, cores=1)
    low = make_cpu_task(100 * MS, policy=SchedPolicy.FIFO, rt_priority=1)
    high = make_cpu_task(10 * MS, policy=SchedPolicy.FIFO, rt_priority=50)
    m.spawn(low)
    sim.schedule_at(5 * MS, m.spawn, high)
    sim.run()
    assert high.finish_time == 15 * MS
    assert low.finish_time == 110 * MS
    assert low.ctx_involuntary >= 1


def test_io_task_lifecycle(sim):
    m = machine(sim, cores=1)
    t = make_io_task(20 * MS, 30 * MS)
    m.spawn(t)
    sim.run()
    assert t.io_time == 20 * MS and t.cpu_time == 30 * MS
    assert t.turnaround == 50 * MS


def test_io_overlaps_with_cpu_work(sim):
    m = machine(sim, cores=1)
    io = make_io_task(50 * MS, 10 * MS)
    cpu = make_cpu_task(40 * MS)
    m.spawn(io)
    m.spawn(cpu)
    sim.run()
    assert cpu.finish_time == 40 * MS


def test_promotion_from_pool_to_fifo(sim):
    m = machine(sim, cores=1)
    a, b = make_cpu_task(100 * MS), make_cpu_task(100 * MS)
    m.spawn(a)
    m.spawn(b)
    sim.schedule_at(10 * MS, m.set_policy, a, SchedPolicy.FIFO)
    sim.run()
    # a: 5 ms served by 10 ms (rate 1/2), then dedicated -> 10 + 95 = 105
    assert a.finish_time == 105 * MS
    assert b.finish_time == 200 * MS  # total work conserved


def test_demotion_from_fifo_to_pool(sim):
    m = machine(sim, cores=1)
    rt = make_cpu_task(100 * MS, policy=SchedPolicy.FIFO)
    other = make_cpu_task(100 * MS)
    m.spawn(rt)
    m.spawn(other)
    sim.schedule_at(20 * MS, m.set_policy, rt, SchedPolicy.CFS)
    sim.run()
    # after demotion the two share; totals conserve
    assert rt.finished and other.finished
    assert max(rt.finish_time, other.finish_time) == 200 * MS
    assert rt.ctx_involuntary >= 1


def test_policy_change_while_blocked(sim):
    m = machine(sim, cores=1)
    t = make_io_task(50 * MS, 10 * MS)
    hog = make_cpu_task(500 * MS)
    m.spawn(hog)
    m.spawn(t)
    sim.schedule_at(10 * MS, m.set_policy, t, SchedPolicy.FIFO)
    sim.run()
    assert t.finish_time == 60 * MS


def test_poll_state_views(sim):
    m = machine(sim, cores=1)
    t = make_io_task(10 * MS, 10 * MS)
    m.spawn(t)
    states = []
    for at in (5 * MS, 15 * MS, 25 * MS):
        sim.schedule_at(at, lambda: states.append(m.poll_state(t)))
    sim.run()
    assert states == [TaskState.BLOCKED, TaskState.RUNNING, TaskState.FINISHED]


def test_ctx_switch_estimate_grows_with_contention():
    def run(n_tasks):
        s = Simulator()
        m = FluidMachine(s, MachineParams(n_cores=1))
        ts = [make_cpu_task(50 * MS) for _ in range(n_tasks)]
        for t in ts:
            m.spawn(t)
        s.run()
        return sum(t.ctx_involuntary for t in ts)

    assert run(8) > run(2)


def test_rr_as_sharing_matches_cfs_rates(sim):
    m = machine(sim, cores=1)
    a = make_cpu_task(100 * MS, policy=SchedPolicy.RR)
    b = make_cpu_task(100 * MS, policy=SchedPolicy.RR)
    m.spawn(a)
    m.spawn(b)
    sim.run()
    assert a.finish_time == 200 * MS and b.finish_time == 200 * MS


def test_pool_frozen_when_all_cores_rt(sim):
    m = machine(sim, cores=1)
    cfs = make_cpu_task(10 * MS)
    rt = make_cpu_task(100 * MS, policy=SchedPolicy.FIFO)
    m.spawn(rt)
    m.spawn(cfs)
    sim.run(until=50 * MS)
    assert cfs.cpu_time == 0  # starved while the FIFO task holds the core
    sim.run()
    assert cfs.finish_time == 110 * MS


def test_wait_time_accounting(sim):
    m = machine(sim, cores=1)
    a, b = make_cpu_task(100 * MS), make_cpu_task(100 * MS)
    m.spawn(a)
    m.spawn(b)
    sim.run()
    # each received 100 ms of service over a 200 ms residence
    assert a.wait_time == 100 * MS
    assert b.wait_time == 100 * MS
