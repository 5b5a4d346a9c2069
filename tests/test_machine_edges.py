"""Edge cases across machine engines: switch costs, params, accounting."""

from functools import partial

import pytest

from conftest import make_cpu_task, make_io_task
from repro.machine.base import MachineParams
from repro.machine.discrete import DiscreteMachine
from repro.machine.fluid import FluidMachine
from repro.sched.srtf import SRTFMachine
from repro.sim.engine import Simulator
from repro.sim.task import Burst, BurstKind, SchedPolicy, Task
from repro.sim.units import MS


def test_machine_params_validation():
    with pytest.raises(ValueError):
        MachineParams(n_cores=0)
    with pytest.raises(ValueError):
        MachineParams(rr_quantum=0)
    with pytest.raises(ValueError):
        MachineParams(ctx_switch_cost=-1)


# ----------------------------------------------------------------------
# context-switch cost
# ----------------------------------------------------------------------
def test_discrete_switch_cost_extends_makespan():
    def run(cost):
        sim = Simulator()
        m = DiscreteMachine(sim, MachineParams(n_cores=1, ctx_switch_cost=cost))
        tasks = [make_cpu_task(60 * MS) for _ in range(3)]
        for t in tasks:
            m.spawn(t)
        sim.run()
        return sim.now

    base = run(0)
    costly = run(1000)
    assert costly > base  # switching burns wall-clock capacity
    assert base == 180 * MS  # zero-cost makespan is exactly the work


def test_discrete_no_cost_for_single_task():
    sim = Simulator()
    m = DiscreteMachine(sim, MachineParams(n_cores=1, ctx_switch_cost=5000))
    t = make_cpu_task(50 * MS)
    m.spawn(t)
    sim.run()
    assert t.turnaround == 50 * MS  # first placement is free


def test_fluid_switch_cost_slows_contended_pool():
    def run(cost):
        sim = Simulator()
        m = FluidMachine(sim, MachineParams(n_cores=1, ctx_switch_cost=cost))
        tasks = [make_cpu_task(60 * MS) for _ in range(4)]
        for t in tasks:
            m.spawn(t)
        sim.run()
        return sim.now

    assert run(1000) > run(0)


def test_fluid_switch_cost_free_when_uncontended():
    sim = Simulator()
    m = FluidMachine(sim, MachineParams(n_cores=4, ctx_switch_cost=5000))
    tasks = [make_cpu_task(50 * MS) for _ in range(3)]
    for t in tasks:
        m.spawn(t)
    sim.run()
    for t in tasks:
        assert t.turnaround == 50 * MS  # a core each: nobody switches


def test_engines_agree_with_switch_cost():
    from conftest import quick_run, small_workload
    from repro.experiments.runner import RunConfig, run_workload

    wl = small_workload(n_requests=300, load=1.0, seed=19)
    runs = {}
    for engine in ("fluid", "discrete"):
        cfg = RunConfig(
            scheduler="cfs", engine=engine,
            machine=MachineParams(n_cores=8, ctx_switch_cost=500),
        )
        runs[engine] = run_workload(wl, cfg)
    f = runs["fluid"].turnarounds.mean()
    d = runs["discrete"].turnarounds.mean()
    assert abs(f - d) / d < 0.25


# ----------------------------------------------------------------------
# burst-shape edge cases (every machine shares MachineBase's lifecycle)
# ----------------------------------------------------------------------
MACHINES = [DiscreteMachine, FluidMachine, SRTFMachine,
            pytest.param(partial(SRTFMachine, unbounded=True),
                         id="IdealMachine")]


@pytest.mark.parametrize("engine_cls", MACHINES)
def test_double_spawn_rejected(engine_cls):
    m = engine_cls(Simulator(), MachineParams(n_cores=1))
    t = make_cpu_task(10)
    m.spawn(t)
    with pytest.raises(RuntimeError, match="already spawned"):
        m.spawn(t)


@pytest.mark.parametrize("engine_cls", MACHINES)
def test_back_to_back_cpu_bursts(engine_cls):
    sim = Simulator()
    m = engine_cls(sim, MachineParams(n_cores=1))
    t = Task(bursts=[Burst(BurstKind.CPU, 10 * MS), Burst(BurstKind.CPU, 15 * MS)])
    m.spawn(t)
    sim.run()
    assert t.finished
    assert t.cpu_time == 25 * MS
    assert t.turnaround == 25 * MS


@pytest.mark.parametrize("engine_cls", MACHINES)
def test_task_ending_with_io(engine_cls):
    sim = Simulator()
    m = engine_cls(sim, MachineParams(n_cores=1))
    t = Task(bursts=[Burst(BurstKind.CPU, 10 * MS), Burst(BurstKind.IO, 20 * MS)])
    m.spawn(t)
    sim.run()
    assert t.finished
    assert t.finish_time == 30 * MS
    assert t.io_time == 20 * MS


@pytest.mark.parametrize("engine_cls", MACHINES)
def test_io_only_task(engine_cls):
    sim = Simulator()
    m = engine_cls(sim, MachineParams(n_cores=1))
    t = Task(bursts=[Burst(BurstKind.IO, 25 * MS)])
    m.spawn(t)
    sim.run()
    assert t.finished
    assert t.turnaround == 25 * MS
    assert t.cpu_time == 0


@pytest.mark.parametrize("engine_cls", MACHINES)
def test_many_alternating_bursts(engine_cls):
    sim = Simulator()
    m = engine_cls(sim, MachineParams(n_cores=1))
    bursts = []
    for _ in range(5):
        bursts.append(Burst(BurstKind.CPU, 5 * MS))
        bursts.append(Burst(BurstKind.IO, 3 * MS))
    t = Task(bursts=bursts)
    m.spawn(t)
    sim.run()
    assert t.finished
    assert t.cpu_time == 25 * MS
    assert t.io_time == 15 * MS
    assert t.turnaround == 40 * MS
    assert t.ctx_voluntary == 5  # one per I/O block


@pytest.mark.parametrize("engine_cls", MACHINES)
def test_one_microsecond_task(engine_cls):
    sim = Simulator()
    m = engine_cls(sim, MachineParams(n_cores=1))
    t = make_cpu_task(1)
    m.spawn(t)
    sim.run()
    assert t.finished and t.turnaround == 1


# ----------------------------------------------------------------------
# accounting details
# ----------------------------------------------------------------------
def test_discrete_wait_time_sums_with_service():
    sim = Simulator()
    m = DiscreteMachine(sim, MachineParams(n_cores=1))
    a, b = make_cpu_task(40 * MS), make_cpu_task(40 * MS)
    m.spawn(a)
    m.spawn(b)
    sim.run()
    for t in (a, b):
        # turnaround decomposes into service + runnable-wait (no I/O)
        assert t.turnaround == t.cpu_time + t.wait_time


def test_fluid_busy_time_matches_demand():
    sim = Simulator()
    m = FluidMachine(sim, MachineParams(n_cores=2))
    tasks = [make_cpu_task(30 * MS) for _ in range(5)]
    for t in tasks:
        m.spawn(t)
    sim.run()
    assert abs(m.busy_time - 150 * MS) <= 5  # float accumulator rounding


def test_finish_time_monotone_under_fifo():
    sim = Simulator()
    m = DiscreteMachine(sim, MachineParams(n_cores=1))
    tasks = [make_cpu_task((10 + i) * MS, policy=SchedPolicy.FIFO)
             for i in range(5)]
    for i, t in enumerate(tasks):
        sim.schedule_at(i * MS, m.spawn, t)
    sim.run()
    finishes = [t.finish_time for t in tasks]
    assert finishes == sorted(finishes)  # FIFO preserves arrival order
