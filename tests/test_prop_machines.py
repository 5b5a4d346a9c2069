"""Property-based tests: invariants every engine must satisfy on
arbitrary small workloads."""

from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SFSConfig
from repro.core.sfs import SFS
from repro.machine.base import MachineParams
from repro.machine.discrete import DiscreteMachine
from repro.machine.fluid import FluidMachine
from repro.sched.srtf import SRTFMachine
from repro.sim.engine import Simulator
from repro.sim.task import Burst, BurstKind, SchedPolicy, Task
from repro.sim.units import MS

# a workload item: (arrival offset ms, cpu ms, io ms)
work_items = st.lists(
    st.tuples(
        st.integers(0, 50),    # inter-arrival gap, ms
        st.integers(1, 120),   # cpu demand, ms
        st.integers(0, 40),    # optional leading io, ms
    ),
    min_size=1,
    max_size=25,
)

engines = st.sampled_from(["discrete", "fluid", "srtf", "ideal"])
core_counts = st.integers(1, 4)


def build_tasks(items, policy=SchedPolicy.CFS):
    tasks, arrivals = [], []
    t = 0
    for gap, cpu, io in items:
        t += gap * MS
        bursts = []
        if io:
            bursts.append(Burst(BurstKind.IO, io * MS))
        bursts.append(Burst(BurstKind.CPU, cpu * MS))
        tasks.append(Task(bursts=bursts, policy=policy))
        arrivals.append(t)
    return tasks, arrivals


def run_machine(engine, items, cores, policy=SchedPolicy.CFS, sfs=False):
    sim = Simulator()
    cls = {
        "discrete": DiscreteMachine,
        "fluid": FluidMachine,
        "srtf": SRTFMachine,
        "ideal": partial(SRTFMachine, unbounded=True),
    }[engine]
    m = cls(sim, MachineParams(n_cores=cores))
    layer = SFS(m, SFSConfig()) if sfs else None
    tasks, arrivals = build_tasks(items, policy)

    def dispatch(task):
        m.spawn(task)
        if layer:
            layer.submit(task)

    for task, at in zip(tasks, arrivals):
        sim.schedule_at(at, dispatch, task)
    sim.run()
    return sim, m, tasks, arrivals


@settings(max_examples=40, deadline=None)
@given(items=work_items, engine=engines, cores=core_counts)
def test_everything_finishes_and_conserves(items, engine, cores):
    sim, m, tasks, arrivals = run_machine(engine, items, cores)
    assert all(t.finished for t in tasks)
    # exact service conservation: every CPU microsecond demanded is served
    assert sum(t.cpu_time for t in tasks) == sum(t.cpu_demand for t in tasks)
    assert sum(t.io_time for t in tasks) == sum(t.io_demand for t in tasks)


@settings(max_examples=40, deadline=None)
@given(items=work_items, engine=engines, cores=core_counts)
def test_turnaround_lower_bound(items, engine, cores):
    _sim, _m, tasks, _arr = run_machine(engine, items, cores)
    for t in tasks:
        assert t.turnaround >= t.ideal_duration


@settings(max_examples=40, deadline=None)
@given(items=work_items, engine=engines, cores=core_counts)
def test_rte_in_unit_interval(items, engine, cores):
    _sim, _m, tasks, _arr = run_machine(engine, items, cores)
    for t in tasks:
        r = t.cpu_demand / max(1, t.turnaround)
        assert 0 < r <= 1.0 + 1e-9


@settings(max_examples=30, deadline=None)
@given(items=work_items, cores=core_counts)
def test_discrete_makespan_optimal_when_saturated(items, cores):
    """With everything arriving at t=0, a work-conserving machine must
    finish no later than total_work/cores + max_item (greedy bound)."""
    items = [(0, cpu, 0) for _gap, cpu, _io in items]
    sim, m, tasks, _ = run_machine("discrete", items, cores)
    total = sum(t.cpu_demand for t in tasks)
    longest = max(t.cpu_demand for t in tasks)
    assert sim.now <= total // cores + longest + 1


@settings(max_examples=30, deadline=None)
@given(items=work_items, cores=core_counts)
def test_srtf_mean_turnaround_not_worse_than_fluid_cfs(items, cores):
    """SRTF is optimal for mean turnaround on CPU-only workloads — but
    only on a single processor.  On multiple cores SRTF is just a
    heuristic (hypothesis finds 3-core examples where it loses to
    processor sharing by ~0.5 %), so the multicore bound allows slack."""
    items = [(gap, cpu, 0) for gap, cpu, _io in items]
    _s1, _m1, srtf_tasks, _ = run_machine("srtf", items, cores)
    _s2, _m2, cfs_tasks, _ = run_machine("fluid", items, cores)
    srtf_mean = np.mean([t.turnaround for t in srtf_tasks])
    cfs_mean = np.mean([t.turnaround for t in cfs_tasks])
    slack = 1.001 if cores == 1 else 1.25
    assert srtf_mean <= cfs_mean * slack + 1


@settings(max_examples=30, deadline=None)
@given(items=work_items, cores=core_counts)
def test_fifo_identical_across_engines(items, cores):
    """The fluid engine models FIFO exactly (no sharing involved)."""
    _s1, _m1, t1, _ = run_machine("discrete", items, cores, policy=SchedPolicy.FIFO)
    _s2, _m2, t2, _ = run_machine("fluid", items, cores, policy=SchedPolicy.FIFO)
    assert [t.finish_time for t in t1] == [t.finish_time for t in t2]


@settings(max_examples=25, deadline=None)
@given(items=work_items, cores=core_counts)
def test_sfs_invariants(items, cores):
    """SFS on top of either engine: everything finishes, stats add up."""
    for engine in ("discrete", "fluid"):
        sim, m, tasks, _ = run_machine(engine, items, cores, sfs=True)
        assert all(t.finished for t in tasks)
        assert sum(t.cpu_time for t in tasks) == sum(t.cpu_demand for t in tasks)
        # no simulator events leak after the run drains
        assert sim.pending == 0


@settings(max_examples=25, deadline=None)
@given(items=work_items, cores=core_counts)
def test_ideal_is_pointwise_optimal(items, cores):
    _s, _m, ideal_tasks, _ = run_machine("ideal", items, cores)
    for engine in ("discrete", "fluid", "srtf"):
        _s2, _m2, other, _ = run_machine(engine, items, cores)
        for a, b in zip(ideal_tasks, other):
            assert b.turnaround >= a.turnaround - 1
