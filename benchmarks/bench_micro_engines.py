"""Micro-benchmarks: simulator-kernel and substrate throughput.

Unlike the per-figure benches (one round each — a whole experiment is
the unit), these are classic multi-round micro-benchmarks guarding the
hot paths: event-heap churn, red-black-tree ops, and per-engine
scheduling throughput.
"""

import numpy as np
import pytest

from repro.machine.base import MachineParams
from repro.machine.discrete import DiscreteMachine
from repro.machine.fluid import FluidMachine
from repro.sched.rbtree import RBTree
from repro.sim.engine import Chain, Simulator
from repro.sim.task import Burst, BurstKind, Task
from repro.sim.units import MS
from repro.trace import TraceRecorder


def test_event_heap_throughput(benchmark):
    """Schedule+fire 10k chained events."""

    def run():
        sim = Simulator()
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(1, tick)

        sim.schedule(1, tick)
        sim.run()
        return sim.events_executed

    assert benchmark(run) == 10_000


def test_rbtree_insert_delete(benchmark):
    """5k random inserts followed by ordered drain."""
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1_000_000, size=5000).tolist()

    def run():
        t = RBTree()
        for k in keys:
            t.insert(k)
        n = 0
        while t.pop_min() is not None:
            n += 1
        return n

    assert benchmark(run) == 5000


def _workload_tasks(n=400, seed=1):
    rng = np.random.default_rng(seed)
    out = []
    at = 0
    for _ in range(n):
        at += int(rng.exponential(8 * MS))
        dur = int(rng.uniform(5 * MS, 60 * MS))
        out.append((at, dur))
    return out


def _drive(machine_cls):
    specs = _workload_tasks()

    def run():
        sim = Simulator()
        m = machine_cls(sim, MachineParams(n_cores=4))
        tasks = []
        for at, dur in specs:
            task = Task(bursts=[Burst(BurstKind.CPU, dur)])
            tasks.append(task)
            sim.schedule_at(at, m.spawn, task)
        sim.run()
        assert all(t.finished for t in tasks)
        return sim.events_executed

    return run


def test_discrete_engine_throughput(benchmark):
    benchmark(_drive(DiscreteMachine))


def test_fluid_engine_throughput(benchmark):
    """The fluid engine should need far fewer events than the discrete
    one on the same workload — that is its reason to exist."""
    events_fluid = _drive(FluidMachine)()
    events_discrete = _drive(DiscreteMachine)()
    assert events_fluid < events_discrete
    benchmark(_drive(FluidMachine))


class _Pending(Chain):
    """A chain of virtual firings left pending until the run ends (a
    rotation plan stands in the way of every parked timer's ranks)."""

    __slots__ = ()

    def settle(self, pos):
        self.sim.drop_chain(self, self.count_before(pos))


def _always_idle() -> bool:
    return True


def _parked_polls(park):
    """2,000 timers of 4 ms, each armed idle (as an SFS FILTER poll is),
    then settled and cancelled 50 ms later (a released worker), while a
    chain with an expiry every 3 ms is pending."""

    def run():
        sim = Simulator()
        chain = _Pending(sim, range(MS, 400 * MS, 3 * MS), sim.reserve(1))
        sim.add_chain(chain)
        live = []
        elided = [0]

        def arm():
            live.append(sim.every(4 * MS, _always_idle, pytest.fail,
                                  park=park))

        def release():
            handle = live.pop(0)
            sim.settle(handle)
            elided[0] += handle.elided
            handle.cancel()

        for i in range(2000):  # a phase of its own for each timer
            sim.schedule_at(i * 97 + 7, arm)
            sim.schedule_at(i * 97 + 50 * MS, release)
        sim.run()
        return sim.events_executed, elided[0]

    return run


def test_parked_poll_churn(benchmark):
    """Parked timers count their idle firings on a settle; the literal
    timers fire each one as a heap event, to the same counts."""
    assert benchmark(_parked_polls(True)) == _parked_polls(False)()


class _Reads:
    """A gauge source with no keys that counts the sampler's reads: one
    per heap firing of the sampler."""

    def __init__(self):
        self.n = 0

    def gauge_keys(self):
        return ()

    def gauge_values(self, out):
        self.n += 1


def _sparse_sampled(stepped):
    """A traced fluid run of 100 tasks arriving about every 40 ms, with
    a 1 ms gauge sampler, driven by ``step()`` (every tick a heap
    event) or ``run()``; returns the tick rows and the sampler reads."""
    rng = np.random.default_rng(3)
    sim = Simulator(trace=TraceRecorder(gauge_interval=MS))
    m = FluidMachine(sim, MachineParams(n_cores=4))
    reads = _Reads()
    sim.probe.attach_sampler(m, reads)
    at = 0
    for _ in range(100):
        at += int(rng.exponential(40 * MS))
        task = Task(bursts=[Burst(BurstKind.CPU,
                                  int(rng.uniform(5 * MS, 60 * MS)))])
        sim.schedule_at(at, m.spawn, task)
    if stepped:
        while sim.step():
            pass
    else:
        sim.run()
    return (sim.trace.tick_ts, sim.trace.tick_values), reads.n


def test_sparse_gauge_sampler(benchmark):
    """One sampler firing covers every tick of a quiet stretch, to the
    rows of the stepped run, where each tick is a heap event."""
    rows, firings = benchmark(_sparse_sampled, False)
    literal, ticks = _sparse_sampled(True)
    assert rows == literal and ticks == len(literal[0])
    assert firings < ticks / 2
