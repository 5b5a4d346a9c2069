"""Scenario tests for the discrete (reference) machine engine."""

from conftest import make_cpu_task, make_io_task
from repro.machine.base import MachineParams
from repro.machine.discrete import DiscreteMachine
from repro.sched.cfs import CfsParams
from repro.sim.engine import Simulator
from repro.sim.task import SchedPolicy, TaskState
from repro.sim.units import MS


def machine(sim, cores=2, **kw):
    return DiscreteMachine(sim, MachineParams(n_cores=cores, **kw))


def test_single_task_runs_to_completion(sim):
    m = machine(sim, cores=1)
    t = make_cpu_task(50 * MS)
    m.spawn(t)
    sim.run()
    assert t.finished
    assert t.turnaround == 50 * MS
    assert t.cpu_time == 50 * MS
    assert t.wait_time == 0
    assert t.ctx_involuntary == 0


def test_two_tasks_two_cores_no_interference(sim):
    m = machine(sim, cores=2)
    a, b = make_cpu_task(30 * MS), make_cpu_task(40 * MS)
    m.spawn(a)
    m.spawn(b)
    sim.run()
    assert a.turnaround == 30 * MS
    assert b.turnaround == 40 * MS


def test_cfs_interleaves_on_one_core(sim):
    m = machine(sim, cores=1)
    a, b = make_cpu_task(100 * MS), make_cpu_task(100 * MS)
    m.spawn(a)
    m.spawn(b)
    sim.run()
    # both finish; the one finishing last ends at 200 ms total work
    assert max(a.finish_time, b.finish_time) == 200 * MS
    # interleaving means the first-finisher took well over its demand
    assert min(a.turnaround, b.turnaround) > 100 * MS
    assert a.ctx_involuntary + b.ctx_involuntary > 0


def test_service_conservation(sim):
    m = machine(sim, cores=3)
    tasks = [make_cpu_task((10 + i) * MS) for i in range(20)]
    for i, t in enumerate(tasks):
        sim.schedule_at(i * MS, m.spawn, t)
    sim.run()
    assert sum(t.cpu_time for t in tasks) == sum(t.cpu_demand for t in tasks)
    assert m.busy_time == sum(t.cpu_demand for t in tasks)


def test_fifo_runs_to_completion(sim):
    m = machine(sim, cores=1)
    first = make_cpu_task(500 * MS, policy=SchedPolicy.FIFO)
    second = make_cpu_task(10 * MS, policy=SchedPolicy.FIFO)
    m.spawn(first)
    sim.schedule_at(1 * MS, m.spawn, second)
    sim.run()
    # convoy effect: the short task waits for the long head-of-line task
    assert first.finish_time == 500 * MS
    assert second.finish_time == 510 * MS
    assert first.ctx_involuntary == 0


def test_rr_rotates_on_quantum(sim):
    m = machine(sim, cores=1, rr_quantum=50 * MS)
    a = make_cpu_task(100 * MS, policy=SchedPolicy.RR)
    b = make_cpu_task(100 * MS, policy=SchedPolicy.RR)
    m.spawn(a)
    m.spawn(b)
    sim.run()
    # unlike FIFO, both alternate: a runs 0-50, b 50-100, ...
    assert a.finish_time == 150 * MS
    assert b.finish_time == 200 * MS
    assert a.ctx_involuntary >= 1


def test_rt_preempts_cfs_instantly(sim):
    m = machine(sim, cores=1)
    cfs_task = make_cpu_task(100 * MS)
    m.spawn(cfs_task)
    rt_task = make_cpu_task(20 * MS, policy=SchedPolicy.FIFO)
    sim.schedule_at(10 * MS, m.spawn, rt_task)
    sim.run()
    assert rt_task.finish_time == 30 * MS  # ran immediately on arrival
    assert cfs_task.finish_time == 120 * MS
    assert cfs_task.ctx_involuntary >= 1


def test_equal_priority_fifo_does_not_preempt(sim):
    m = machine(sim, cores=1)
    a = make_cpu_task(100 * MS, policy=SchedPolicy.FIFO)
    b = make_cpu_task(10 * MS, policy=SchedPolicy.FIFO)
    m.spawn(a)
    sim.schedule_at(1 * MS, m.spawn, b)
    sim.run()
    assert a.finish_time == 100 * MS  # kept the core


def test_higher_rt_priority_preempts_lower(sim):
    m = machine(sim, cores=1)
    low = make_cpu_task(100 * MS, policy=SchedPolicy.FIFO, rt_priority=1)
    high = make_cpu_task(10 * MS, policy=SchedPolicy.FIFO, rt_priority=50)
    m.spawn(low)
    sim.schedule_at(5 * MS, m.spawn, high)
    sim.run()
    assert high.finish_time == 15 * MS
    assert low.finish_time == 110 * MS


def test_io_blocks_and_wakes(sim):
    m = machine(sim, cores=1)
    t = make_io_task(20 * MS, 30 * MS)
    m.spawn(t)
    sim.run()
    assert t.finished
    assert t.io_time == 20 * MS
    assert t.cpu_time == 30 * MS
    assert t.turnaround == 50 * MS


def test_io_frees_core_for_others(sim):
    m = machine(sim, cores=1)
    io = make_io_task(50 * MS, 10 * MS)
    cpu = make_cpu_task(40 * MS)
    m.spawn(io)
    m.spawn(cpu)
    sim.run()
    # CPU task runs during the I/O wait: finishes at 40 ms, not 60
    assert cpu.finish_time == 40 * MS


def test_promote_running_task_to_fifo(sim):
    m = machine(sim, cores=1)
    a, b = make_cpu_task(100 * MS), make_cpu_task(100 * MS)
    m.spawn(a)
    m.spawn(b)

    def promote():
        # whichever is running gets promoted and then monopolises the core
        running = a if a.state is TaskState.RUNNING else b
        m.set_policy(running, SchedPolicy.FIFO)
        promote.task = running

    sim.schedule_at(1 * MS, promote)
    sim.run()
    promoted = promote.task
    other = b if promoted is a else a
    assert promoted.finish_time < other.finish_time
    assert promoted.finish_time <= 101 * MS


def test_demote_running_fifo_to_cfs(sim):
    m = machine(sim, cores=1)
    rt = make_cpu_task(100 * MS, policy=SchedPolicy.FIFO)
    cfs = make_cpu_task(100 * MS)
    m.spawn(rt)
    m.spawn(cfs)
    sim.schedule_at(10 * MS, m.set_policy, rt, SchedPolicy.CFS)
    sim.run()
    # after demotion both share fairly; without it cfs would start at 100ms
    assert cfs.first_run_time < 100 * MS
    assert rt.finished and cfs.finished


def test_set_policy_on_queued_ready_task(sim):
    m = machine(sim, cores=1)
    hog = make_cpu_task(500 * MS, policy=SchedPolicy.FIFO)
    waiting = make_cpu_task(10 * MS)  # CFS, starved by the FIFO hog
    m.spawn(hog)
    m.spawn(waiting)
    sim.schedule_at(5 * MS, m.set_policy, waiting, SchedPolicy.FIFO)
    sim.run()
    # now FIFO but behind the hog: runs right after it
    assert waiting.finish_time == 510 * MS


def test_set_policy_on_blocked_task_takes_effect_at_wake(sim):
    m = machine(sim, cores=1)
    t = make_io_task(50 * MS, 10 * MS)
    hog = make_cpu_task(500 * MS)
    m.spawn(hog)
    m.spawn(t)
    sim.schedule_at(10 * MS, m.set_policy, t, SchedPolicy.FIFO)
    sim.run()
    assert t.finish_time == 60 * MS  # woke at 50ms straight into RT


def test_set_policy_noop_cases(sim):
    m = machine(sim, cores=1)
    t = make_cpu_task(10 * MS)
    m.spawn(t)
    m.set_policy(t, SchedPolicy.CFS)  # same policy: no-op
    sim.run()
    m.set_policy(t, SchedPolicy.FIFO)  # finished: no-op
    assert t.policy is SchedPolicy.CFS


def test_finish_callback_fires_once_per_task(sim):
    m = machine(sim, cores=2)
    seen = []
    m.on_finish(seen.append)
    tasks = [make_cpu_task(5 * MS) for _ in range(6)]
    for t in tasks:
        m.spawn(t)
    sim.run()
    assert sorted(x.tid for x in seen) == sorted(t.tid for t in tasks)


def test_idle_balance_steals_queued_work(sim):
    # one core hogged by an RT task; its CFS queue must migrate away
    m = machine(sim, cores=2)
    rt = make_cpu_task(1000 * MS, policy=SchedPolicy.FIFO)
    m.spawn(rt)
    waiters = [make_cpu_task(10 * MS) for _ in range(4)]
    for w in waiters:
        m.spawn(w)
    sim.run(until=200 * MS)
    assert all(w.finished for w in waiters)  # ran on the other core


def test_work_conservation_no_idle_with_backlog(sim):
    m = machine(sim, cores=2)
    tasks = [make_cpu_task(20 * MS) for _ in range(10)]
    for t in tasks:
        m.spawn(t)

    def check():
        if m.runnable_count() > 0:
            assert m.idle_cores() == 0

    for k in range(1, 20):
        sim.schedule_at(k * 5 * MS, check)
    sim.run()
    assert all(t.finished for t in tasks)


def test_migrations_counted(sim):
    m = machine(sim, cores=2)
    tasks = [make_cpu_task(30 * MS) for _ in range(8)]
    for t in tasks:
        m.spawn(t)
    sim.run()
    # with stealing enabled some tasks move cores; counter must be sane
    assert all(t.migrations >= 0 for t in tasks)


def test_poll_state_tracks_lifecycle(sim):
    m = machine(sim, cores=1)
    t = make_io_task(10 * MS, 10 * MS)
    states = []
    m.spawn(t)
    for at in (5 * MS, 15 * MS, 25 * MS):
        sim.schedule_at(at, lambda: states.append(m.poll_state(t)))
    sim.run()
    assert states == [TaskState.BLOCKED, TaskState.RUNNING, TaskState.FINISHED]


def test_utilization_bounded(sim):
    m = machine(sim, cores=4)
    for i in range(10):
        sim.schedule_at(i * MS, m.spawn, make_cpu_task(20 * MS))
    sim.run()
    assert 0 < m.utilization() <= 1.0


def test_min_granularity_limits_switching(sim):
    # identical workload, larger min_granularity => fewer context switches
    def run_with(gran):
        s = Simulator()
        m = DiscreteMachine(
            s,
            MachineParams(n_cores=1, cfs=CfsParams(min_granularity=gran)),
        )
        ts = [make_cpu_task(100 * MS) for _ in range(4)]
        for t in ts:
            m.spawn(t)
        s.run()
        return sum(t.ctx_involuntary for t in ts)

    assert run_with(1 * MS) > run_with(20 * MS)
