"""Unit tests for the task/burst model."""

import pytest

from repro.sim.task import (
    Burst,
    BurstKind,
    SchedPolicy,
    Task,
    TaskState,
    cpu_task,
    io_cpu_task,
)


def test_cpu_task_demands():
    t = cpu_task(5000)
    assert t.cpu_demand == 5000
    assert t.io_demand == 0
    assert t.ideal_duration == 5000
    assert t.total_remaining == 5000
    assert t.cpu_remaining == 5000


def test_io_cpu_task_demands():
    t = io_cpu_task(2000, 3000)
    assert t.cpu_demand == 3000
    assert t.io_demand == 2000
    assert t.ideal_duration == 5000
    assert t.cpu_remaining == 3000  # only CPU counts for SRTF
    assert t.total_remaining == 5000


def test_empty_bursts_rejected():
    with pytest.raises(ValueError):
        Task(bursts=[])


def test_nonpositive_burst_rejected():
    with pytest.raises(ValueError):
        Burst(BurstKind.CPU, 0)
    with pytest.raises(ValueError):
        Burst(BurstKind.IO, -5)


def test_consume_cpu_accounting():
    t = cpu_task(1000)
    t.consume_cpu(400)
    assert t.cpu_time == 400
    assert t.burst_remaining == 600
    assert t.vruntime == 400  # nice-0 weight: 1:1


def test_consume_cpu_weighted_vruntime():
    t = cpu_task(1000, weight=2048)
    t.consume_cpu(400)
    assert t.vruntime == 200  # heavier tasks accrue vruntime slower


def test_consume_cpu_overrun_rejected():
    t = cpu_task(100)
    with pytest.raises(RuntimeError):
        t.consume_cpu(101)


def test_consume_cpu_negative_rejected():
    t = cpu_task(100)
    with pytest.raises(ValueError):
        t.consume_cpu(-1)


def test_consume_cpu_wrong_burst_kind():
    t = io_cpu_task(100, 100)
    with pytest.raises(RuntimeError):
        t.consume_cpu(10)  # current burst is I/O


def test_advance_burst_requires_completion():
    t = cpu_task(100)
    with pytest.raises(RuntimeError):
        t.advance_burst()


def test_advance_burst_sequence():
    t = io_cpu_task(100, 200)
    nxt = t.complete_io()
    assert nxt is not None and nxt.kind is BurstKind.CPU
    assert t.burst_remaining == 200
    assert t.io_time == 100
    t.consume_cpu(200)
    assert t.advance_burst() is None
    assert t.current_burst is None


def test_complete_io_on_cpu_burst_rejected():
    t = cpu_task(100)
    with pytest.raises(RuntimeError):
        t.complete_io()


def test_turnaround_requires_timestamps():
    t = cpu_task(100)
    assert t.turnaround is None
    t.dispatch_time = 10
    t.finish_time = 150
    assert t.turnaround == 140


def test_policy_recording():
    t = cpu_task(100)
    t.record_policy_change(50, SchedPolicy.FIFO)
    t.record_policy_change(80, SchedPolicy.CFS)
    assert t.policy is SchedPolicy.CFS
    assert t.policy_changes == [(50, SchedPolicy.FIFO), (80, SchedPolicy.CFS)]


def test_is_rt():
    assert cpu_task(1, policy=SchedPolicy.FIFO).is_rt
    assert cpu_task(1, policy=SchedPolicy.RR).is_rt
    assert not cpu_task(1).is_rt


def test_unique_tids():
    tids = {cpu_task(1).tid for _ in range(100)}
    assert len(tids) == 100


def test_initial_state():
    t = cpu_task(10)
    assert t.state is TaskState.CREATED
    assert not t.finished
    assert t.context_switches == 0


def test_task_is_slotted():
    # every engine's and policy's per-task state is a declared field, so
    # a typo or a new undeclared attribute fails loudly instead of
    # quietly adding state
    t = cpu_task(10)
    assert not hasattr(t, "__dict__")
    with pytest.raises(AttributeError):
        t._ready_since = 0
    t.since = 5  # declared fields stay writable
    assert t.since == 5
