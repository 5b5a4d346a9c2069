"""RT (FIFO/RR) runqueue semantics."""

import pytest

from repro.sched.rt import DEFAULT_RR_QUANTUM, RTRunqueue
from repro.sim.task import SchedPolicy, cpu_task
from repro.sim.units import MS


def rt_task(prio=1, policy=SchedPolicy.FIFO):
    return cpu_task(100, policy=policy, rt_priority=prio)


def test_default_quantum_is_100ms():
    assert DEFAULT_RR_QUANTUM == 100 * MS


def test_fifo_order_within_priority():
    q = RTRunqueue()
    tasks = [rt_task() for _ in range(4)]
    for t in tasks:
        q.enqueue(t)
    assert [q.pop() for _ in range(4)] == tasks
    assert q.pop() is None


def test_higher_priority_first():
    q = RTRunqueue()
    low = rt_task(prio=1)
    high = rt_task(prio=50)
    q.enqueue(low)
    q.enqueue(high)
    assert q.pop() is high
    assert q.pop() is low


def test_peek_does_not_remove():
    q = RTRunqueue()
    t = rt_task()
    q.enqueue(t)
    assert q.peek() is t
    assert q.peek_priority() == 1
    assert len(q) == 1


def test_non_rt_task_rejected():
    q = RTRunqueue()
    with pytest.raises(ValueError):
        q.enqueue(cpu_task(100))  # CFS task


def test_double_enqueue_rejected():
    q = RTRunqueue()
    t = rt_task()
    q.enqueue(t)
    with pytest.raises(RuntimeError):
        q.enqueue(t)


def test_lazy_remove():
    q = RTRunqueue()
    a, b, c = rt_task(), rt_task(), rt_task()
    for t in (a, b, c):
        q.enqueue(t)
    q.remove(b)
    assert len(q) == 2
    assert q.pop() is a
    assert q.pop() is c
    with pytest.raises(RuntimeError):
        q.remove(b)


def test_remove_then_reenqueue():
    q = RTRunqueue()
    t = rt_task()
    q.enqueue(t)
    q.remove(t)
    q.enqueue(t)  # legal again after removal
    assert q.pop() is t


def test_stale_entry_stays_dead_after_reenqueue():
    """A removed task's old heap entry, still buried behind a live
    head, must not count again once the task re-enqueues: the task
    queues once, behind the tasks that arrived while it was out."""
    q = RTRunqueue()
    a, t, b = rt_task(), rt_task(), rt_task()
    q.enqueue(a)
    q.enqueue(t)
    q.remove(t)
    q.enqueue(b)
    q.enqueue(t)
    assert len(q) == 3
    q.validate(deep=True)
    assert q.tasks() == [a, b, t]
    assert [q.pop() for _ in range(3)] == [a, b, t]
    assert q.pop() is None and len(q) == 0


def test_tasks_snapshot():
    q = RTRunqueue()
    hi, lo = rt_task(prio=10), rt_task(prio=1)
    q.enqueue(lo)
    q.enqueue(hi)
    assert q.tasks() == [hi, lo]


def test_bool_reflects_liveness():
    q = RTRunqueue()
    assert not q
    t = rt_task()
    q.enqueue(t)
    assert q
    q.remove(t)
    assert not q
