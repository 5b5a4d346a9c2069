"""EEVDF fair-class model (Linux 6.6+)."""

import numpy as np
import pytest

from conftest import make_cpu_task
from repro.machine.base import MachineParams
from repro.machine.discrete import DiscreteMachine
from repro.sched.eevdf import EevdfParams, EevdfRunqueue
from repro.sim.engine import Simulator
from repro.sim.task import SchedPolicy
from repro.sim.units import MS


def test_params_validation():
    with pytest.raises(ValueError):
        EevdfParams(base_slice=0)
    with pytest.raises(ValueError):
        MachineParams(fair_class="bogus")


def test_enqueue_dequeue_roundtrip():
    rq = EevdfRunqueue()
    a, b = make_cpu_task(10 * MS), make_cpu_task(10 * MS)
    rq.enqueue(a)
    rq.enqueue(b)
    assert len(rq) == 2 and a in rq
    rq.dequeue(a)
    assert len(rq) == 1 and a not in rq
    with pytest.raises(RuntimeError):
        rq.dequeue(a)
    with pytest.raises(RuntimeError):
        rq.enqueue(b)


def test_pick_earliest_deadline_among_eligible():
    rq = EevdfRunqueue(EevdfParams(base_slice=3 * MS))
    behind = make_cpu_task(10 * MS)   # vruntime 0: eligible
    ahead = make_cpu_task(10 * MS)
    ahead.vruntime = 100 * MS          # far ahead of average: ineligible
    rq.enqueue(behind)
    rq.enqueue(ahead)
    assert rq.peek_next() is behind
    assert rq.pick_next() is behind


def test_zero_lag_placement():
    rq = EevdfRunqueue()
    old = make_cpu_task(10 * MS)
    old.vruntime = 50 * MS
    rq.enqueue(old)
    fresh = make_cpu_task(10 * MS)  # vruntime 0
    rq.enqueue(fresh)
    # the joiner is clamped to the average so it cannot starve the queue
    assert fresh.vruntime == 50 * MS


def test_timeslice_runs_to_virtual_deadline():
    params = EevdfParams(base_slice=3 * MS)
    rq = EevdfRunqueue(params)
    t = make_cpu_task(100 * MS)
    rq.enqueue(t)
    rq.pick_next()
    assert rq.timeslice_for(t) == 3 * MS
    # consume the slice: a new request is granted
    t.consume_cpu(3 * MS)
    assert rq.timeslice_for(t) == 3 * MS


def test_deadline_rotation_round_robins():
    """Equal entities share the core alternately, not in one long run."""
    sim = Simulator()
    m = DiscreteMachine(sim, MachineParams(n_cores=1, fair_class="eevdf"))
    a, b = make_cpu_task(30 * MS), make_cpu_task(30 * MS)
    m.spawn(a)
    m.spawn(b)
    sim.run()
    assert max(a.finish_time, b.finish_time) == 60 * MS
    assert a.ctx_involuntary + b.ctx_involuntary >= 2  # they interleaved


def test_should_preempt_requires_eligibility_and_earlier_deadline():
    params = EevdfParams(base_slice=3 * MS)
    rq = EevdfRunqueue(params)
    curr = make_cpu_task(100 * MS)
    curr.vruntime = 10 * MS
    curr.eevdf_deadline = 13 * MS
    woken = make_cpu_task(10 * MS)
    woken.vruntime = 0
    woken.eevdf_deadline = 3 * MS
    assert rq.should_preempt(woken, curr)
    late = make_cpu_task(10 * MS)
    late.vruntime = 50 * MS  # above average: not eligible
    late.eevdf_deadline = 1
    assert not rq.should_preempt(late, curr)


@pytest.mark.parametrize("fair", ["cfs", "eevdf"])
def test_fairness_on_identical_tasks(fair):
    """Both fair classes give near-equal service to identical tasks."""
    sim = Simulator()
    m = DiscreteMachine(sim, MachineParams(n_cores=1, fair_class=fair))
    tasks = [make_cpu_task(60 * MS) for _ in range(4)]
    for t in tasks:
        m.spawn(t)
    sim.run(until=120 * MS)
    served = [t.cpu_time for t in tasks]
    assert max(served) - min(served) <= 6 * MS  # within two slices


def test_eevdf_machine_completes_workload_with_sfs():
    from repro.core.config import SFSConfig
    from repro.core.sfs import SFS

    sim = Simulator()
    m = DiscreteMachine(sim, MachineParams(n_cores=2, fair_class="eevdf"))
    sfs = SFS(m, SFSConfig())
    rng = np.random.default_rng(1)
    tasks = []
    t = 0
    for _ in range(150):
        d = int(rng.uniform(5 * MS, 80 * MS))
        t += int(rng.exponential(15 * MS))
        task = make_cpu_task(d)
        tasks.append(task)

        def go(task=task):
            m.spawn(task)
            sfs.submit(task)

        sim.schedule_at(t, go)
    sim.run()
    assert all(x.finished for x in tasks)
    assert sum(x.cpu_time for x in tasks) == sum(x.cpu_demand for x in tasks)
