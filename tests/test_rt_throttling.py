"""RT group bandwidth (sched_rt_runtime_us) in the discrete engine."""

import pytest

from conftest import make_cpu_task
from repro.machine.base import MachineParams
from repro.machine.discrete import DiscreteMachine
from repro.sim.engine import Simulator
from repro.sim.task import Burst, BurstKind, SchedPolicy, Task
from repro.sim.units import MS, SEC

#: Linux default: 950 ms of RT runtime per 1 s period.
DEFAULT_BW = (950 * MS, 1 * SEC)


def machine(sim, cores=1, bw=DEFAULT_BW):
    return DiscreteMachine(
        sim, MachineParams(n_cores=cores, rt_bandwidth=bw)
    )


def test_bandwidth_validation():
    with pytest.raises(ValueError):
        MachineParams(rt_bandwidth=(0, 100))
    with pytest.raises(ValueError):
        MachineParams(rt_bandwidth=(100, 100))
    MachineParams(rt_bandwidth=None)  # disabled is fine


def test_rt_task_throttled_at_budget(sim):
    m = machine(sim)
    hog = make_cpu_task(3 * SEC, policy=SchedPolicy.FIFO)
    m.spawn(hog)
    sim.run(until=1 * SEC)
    # in the first period the hog may use at most 950 ms
    assert hog.cpu_time == 950 * MS
    sim.run()
    # it needs ceil(3s / 950ms) = 4 periods; finishes in the 4th
    assert hog.finish_time > 3 * SEC
    assert hog.ctx_involuntary >= 3  # one throttle per exhausted period


def test_cfs_gets_guaranteed_share(sim):
    m = machine(sim)
    hog = make_cpu_task(10 * SEC, policy=SchedPolicy.FIFO)
    cfs = make_cpu_task(100 * MS)  # needs two 50 ms throttle windows
    m.spawn(hog)
    m.spawn(cfs)
    sim.run(until=2 * SEC)
    # without throttling cfs would be starved for the full 10 s;
    # with it, each 1 s period donates 50 ms to CFS
    assert cfs.cpu_time == 100 * MS
    assert cfs.finished


def test_no_throttle_when_disabled(sim):
    m = machine(sim, bw=None)
    hog = make_cpu_task(10 * SEC, policy=SchedPolicy.FIFO)
    cfs = make_cpu_task(100 * MS)
    m.spawn(hog)
    m.spawn(cfs)
    sim.run(until=5 * SEC)
    assert cfs.cpu_time == 0  # fully starved, as the paper assumes
    sim.run()
    assert cfs.finished


def test_budget_resets_each_period(sim):
    m = machine(sim)
    first = make_cpu_task(950 * MS, policy=SchedPolicy.FIFO)
    m.spawn(first)
    sim.run(until=1 * SEC)
    assert first.finished  # exactly one budget's worth
    second = make_cpu_task(500 * MS, policy=SchedPolicy.FIFO)
    m.spawn(second)
    sim.run()
    # spawned at 1 s with a fresh budget: runs uninterrupted
    assert second.turnaround == 500 * MS
    assert second.ctx_involuntary == 0


def test_rr_rotation_leaves_no_stale_throttle(sim):
    """A rotated SCHED_RR task takes its throttle timer off the core
    with it: nothing fires after both tasks are done."""
    m = machine(sim)
    rr = [make_cpu_task(300 * MS, policy=SchedPolicy.RR) for _ in range(2)]
    for t in rr:
        m.spawn(t)
    sim.run()
    assert [t.finish_time for t in rr] == [500 * MS, 600 * MS]


def _fifo_1500ms(m, shape):
    """1.5 s of FIFO work on the core, reached three ways."""
    if shape == "one-burst":
        task = make_cpu_task(1500 * MS, policy=SchedPolicy.FIFO)
    elif shape == "back-to-back":
        task = Task(bursts=[Burst(BurstKind.CPU, 500 * MS),
                            Burst(BurstKind.CPU, 1000 * MS)],
                    policy=SchedPolicy.FIFO)
    else:  # promoted while it runs (SFS's FILTER)
        task = make_cpu_task(1500 * MS)
    m.spawn(task)
    if shape == "promoted":
        m.set_policy(task, SchedPolicy.FIFO)
    return task


@pytest.mark.parametrize("shape", ["one-burst", "back-to-back", "promoted"])
def test_every_running_rt_task_is_throttled(sim, shape):
    """However the FIFO task came to run — in one burst, across a
    back-to-back CPU burst, or by promotion in place — it is throttled
    at 950 ms and the CFS task runs in the 50 ms window."""
    m = machine(sim)
    hog = _fifo_1500ms(m, shape)
    cfs = make_cpu_task(10 * MS)
    m.spawn(cfs)
    sim.run()
    assert cfs.finish_time == 960 * MS
    assert hog.ctx_involuntary == 1


def test_promotion_in_switch_window_throttles_once(sim):
    """A task promoted while its core still pays the switch cost gets
    its full budget from the end of that window: one throttle, not a
    second one for the switch cost's worth of budget."""
    m = DiscreteMachine(sim, MachineParams(
        n_cores=1, ctx_switch_cost=1 * MS, rt_bandwidth=DEFAULT_BW))
    m.spawn(make_cpu_task(1 * MS))  # so the next start pays the switch
    hog = make_cpu_task(1500 * MS)
    cfs = make_cpu_task(10 * MS)

    def promote():
        m.spawn(hog)  # running from 2 ms, after the 1 ms switch
        m.set_policy(hog, SchedPolicy.FIFO)
        m.spawn(cfs)

    sim.schedule_at(1 * MS, promote)
    sim.run()
    assert hog.ctx_involuntary == 1
    assert cfs.finish_time == 963 * MS


def test_throttling_with_sfs_bounds_filter_monopoly():
    from collections import Counter

    from repro.core.config import SFSConfig
    from repro.core.sfs import SFS
    from repro.why import AuditLog
    from repro.why import audit as aud

    audit = AuditLog()
    sim = Simulator(audit=audit)
    m = machine(sim, cores=2)
    sfs = SFS(m, SFSConfig(initial_slice=10 * SEC, adaptive=False))
    longs = [make_cpu_task(3 * SEC) for _ in range(2)]
    waiter = make_cpu_task(200 * MS)

    def go(task):
        m.spawn(task)
        sfs.submit(task)

    for t in longs:
        sim.schedule_at(0, go, t)
    sim.schedule_at(10 * MS, m.spawn, waiter)  # plain CFS process
    sim.run(until=2500 * MS)
    # FILTER promoted both longs while they ran and they hold both
    # cores, but throttling still leaks 50 ms per period to the one
    # CFS waiter: two periods have passed
    assert waiter.cpu_time == 100 * MS
    throttled = Counter(r.displaced for r in audit.by_op(aud.OP_THROTTLE))
    assert all(throttled[t.tid] >= 2 for t in longs)
    sim.run()
    assert waiter.finished
    assert all(t.finished for t in longs)
