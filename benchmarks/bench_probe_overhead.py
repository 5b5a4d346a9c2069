"""Probe overhead guard: the null sinks cost one branch per decision.

Every instrumented component caches the simulator's probe
(:mod:`repro.obs.probe`) and its ``enabled`` flag, so a run carrying
only the shared null sinks (``NULL_RECORDER``, ``NULL_REGISTRY``,
``NULL_AUDIT``) pays one attribute load and a predictable branch per
decision site, and none of the nulls ever records anything.  The
400-task/4-core workload from ``bench_micro_engines`` is driven on each
engine with the null default and with each live sink set:

* ``trace``    — a :class:`repro.trace.TraceRecorder`;
* ``metrics``  — a :class:`repro.obs.MetricsRegistry`;
* ``audit``    — a :class:`repro.why.AuditLog`;
* ``all``      — trace, metrics and audit at once.

Best-of-5 wall times and the live/null ratio land in
``benchmark.extra_info``, so the benchmark JSON documents what opting
in costs on the host that ran it; the benchmark itself times the null
path.  Each case also asserts that the live sinks recorded (the ratio
measures real work, not a silently-null sink) and that the nulls stayed
empty.
"""

import time

import numpy as np
import pytest

from repro.machine.base import MachineParams
from repro.machine.discrete import DiscreteMachine
from repro.machine.fluid import FluidMachine
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.task import Burst, BurstKind, Task
from repro.sim.units import MS
from repro.trace import NULL_RECORDER, TraceRecorder
from repro.why import NULL_AUDIT, AuditLog

#: live sink set -> Simulator keyword arguments (fresh sinks per call)
SINKS = {
    "trace": lambda: {"trace": TraceRecorder()},
    "metrics": lambda: {"metrics": MetricsRegistry()},
    "audit": lambda: {"audit": AuditLog()},
    "all": lambda: {"trace": TraceRecorder(), "metrics": MetricsRegistry(),
                    "audit": AuditLog()},
}

ENGINES = {"discrete": DiscreteMachine, "fluid": FluidMachine}


def _workload_tasks(n=400, seed=1):
    rng = np.random.default_rng(seed)
    out = []
    at = 0
    for _ in range(n):
        at += int(rng.exponential(8 * MS))
        dur = int(rng.uniform(5 * MS, 60 * MS))
        out.append((at, dur))
    return out


def _drive(machine_cls, sinks=None):
    specs = _workload_tasks()

    def run():
        sim = Simulator(**(sinks() if sinks else {}))
        m = machine_cls(sim, MachineParams(n_cores=4))
        tasks = []
        for at, dur in specs:
            task = Task(bursts=[Burst(BurstKind.CPU, dur)])
            tasks.append(task)
            sim.schedule_at(at, m.spawn, task)
        sim.run()
        assert all(t.finished for t in tasks)
        return sim

    return run


def _best_of(fn, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("sinks", sorted(SINKS))
def test_probe_overhead(benchmark, sinks, engine):
    null_run = _drive(ENGINES[engine])  # default: the shared null sinks
    live_run = _drive(ENGINES[engine], SINKS[sinks])

    null_s = _best_of(null_run)
    live_s = _best_of(live_run)
    sim = live_run()
    live = [s for s in (sim.trace, sim.metrics, sim.audit) if s.enabled]
    assert live and all(len(s) > 0 for s in live)  # live sinks recorded
    assert not null_run().probe.enabled
    # ... and the nulls never do
    assert len(NULL_RECORDER) == len(NULL_REGISTRY) == len(NULL_AUDIT) == 0

    benchmark.extra_info["null_best_s"] = round(null_s, 6)
    benchmark.extra_info["live_best_s"] = round(live_s, 6)
    benchmark.extra_info["live_over_null_ratio"] = round(live_s / null_s, 3)
    benchmark(null_run)


@pytest.mark.parametrize("sinks", ["metrics", "all"])
def test_enabled_registry_actually_measures(sinks):
    """Guard the guard: a live registry counts the one task's spawn
    and exit, alone or behind the probe with the other sinks."""
    kw = SINKS[sinks]()
    sim = Simulator(**kw)
    m = FluidMachine(sim, MachineParams(n_cores=4))
    task = Task(bursts=[Burst(BurstKind.CPU, 5 * MS)])
    sim.schedule_at(0, m.spawn, task)
    sim.run()
    assert task.finished
    reg = kw["metrics"]
    assert reg.get("repro_tasks_spawned_total").value == 1
    assert reg.get("repro_tasks_finished_total").value == 1
