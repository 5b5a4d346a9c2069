"""Pins of the fluid engine's timers: the pool completion, the dedicated
(FIFO) completions and the SFS slice and poll timers around them.

Every CPU burst, arrival and I/O wait below is a whole number of
milliseconds, so with a pool rate of ``free_cores / n`` a pool
completion keeps landing on the very instant of an arrival, a wakeup,
a FIFO completion or a FILTER slice expiry; at such an instant the
order of the events decides what the pool's rate is next.  Each variant
adds one mechanism that changes the pool's rate or membership:

* ``pool``: CFS tasks sharing the pool, blocking on I/O in between;
* ``ctx``: a context-switch cost, which shrinks the pool's rate by the
  integrated switch rate;
* ``straggler``: a slow machine (``speed`` < 1);
* ``rr``: SCHED_RR tasks sharing the pool with its quantum, and FIFO
  tasks taking whole cores;
* ``frozen``: FIFO tasks holding every core, so the pool's rate is 0
  and its completion is dropped until a core frees;
* ``sfs``: SFS promoting pool tasks to FIFO and demoting them at
  FILTER slice expiry, with and without a switch cost;
* ``kill``: :class:`FaultPlan` crash points, rounded to whole ms, that
  kill pool tasks mid-stay.

Every run has the invariant checker armed with ``deep_every=8``.  Each
run is reduced to a digest of every task's finish, wait, context-switch
counts and CPU time, plus ``events_executed``, the final clock and the
final schedule counter (every event keeps its tie-break rank only if
each reschedule still takes one counter value).  A change to how the
pool completion is computed or queued must leave every digest
unchanged.  To print the digests of the current tree, run
``PYTHONPATH=src python tests/test_fluid_timers.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np
import pytest

import repro.sim.task as task_mod
from repro.core.config import SFSConfig
from repro.core.sfs import SFS
from repro.faults.plan import FaultPlan
from repro.invariants.checker import InvariantChecker
from repro.machine.base import MachineParams
from repro.machine.fluid import FluidMachine
from repro.sim.engine import Simulator
from repro.sim.task import Burst, BurstKind, SchedPolicy, Task, TaskState
from repro.sim.units import MS

SEEDS = tuple(range(6))
N_TASKS = 120

#: MachineParams of each variant (``sfs`` and ``kill`` add their own)
VARIANTS: Dict[str, dict] = {
    "pool": {},
    "ctx": {"ctx_switch_cost": 1 * MS},
    "straggler": {"speed": 0.75},
    "rr": {"rr_quantum": 4 * MS},
    "frozen": {},
    "sfs": {},
    "kill": {},
}

#: the share of each variant's tasks that start in an RT class
RT_SHARE = {"rr": 1 / 3, "frozen": 1 / 2}


def _bursts(rng: np.random.Generator) -> List[Burst]:
    """Whole-ms CPU bursts; most tasks block on I/O in between."""
    def ms(lo: int, hi: int) -> int:
        return int(rng.integers(lo, hi)) * MS

    kind = rng.random()
    if kind < 0.6:
        return [Burst(BurstKind.CPU, ms(1, 13)), Burst(BurstKind.IO, ms(1, 9)),
                Burst(BurstKind.CPU, ms(1, 13))]
    if kind < 0.75:
        return [Burst(BurstKind.CPU, ms(1, 7)), Burst(BurstKind.CPU, ms(1, 7))]
    return [Burst(BurstKind.CPU, ms(1, 49))]


def _task(rng: np.random.Generator, variant: str) -> Task:
    bursts = _bursts(rng)
    share = RT_SHARE.get(variant, 0.0)
    if share and rng.random() < share:
        rr = variant == "rr" and rng.random() < 0.5
        return Task(bursts=bursts,
                    policy=SchedPolicy.RR if rr else SchedPolicy.FIFO,
                    rt_priority=int(rng.integers(1, 4)))
    return Task(bursts=bursts)


@lru_cache(maxsize=None)
def _stress(variant: str, seed: int) -> Tuple[str, Dict[str, int]]:
    """One run: its digest text and a few coverage counts."""
    rng = np.random.default_rng(seed)
    task_mod._task_ids = itertools.count()
    params = dict(VARIANTS[variant])
    if variant == "sfs" and seed % 2:
        params["ctx_switch_cost"] = 1 * MS
    sim = Simulator(invariants=InvariantChecker(seed=seed, label=variant,
                                                deep_every=8))
    machine = FluidMachine(
        sim, MachineParams(n_cores=int(rng.integers(2, 5)), **params))
    sfs = None
    if variant == "sfs":
        sfs = SFS(machine, SFSConfig(
            poll_interval=int(rng.integers(1, 5)) * MS, adaptive=False,
            initial_slice=int(rng.integers(2, 9)) * MS))
    plan = FaultPlan(seed=seed, crash_prob=0.4) if variant == "kill" else None
    tasks = [_task(rng, variant) for _ in range(N_TASKS)]
    counts = {"promoted_running": 0, "frozen": 0, "killed_in_pool": 0}

    def frozen() -> bool:
        """The pool holds tasks but FIFO tasks hold every core."""
        return bool(machine._pool) and \
            len(machine._rt_running) == machine.n_cores

    def kill(task: Task) -> None:
        counts["killed_in_pool"] += task.tid in machine._pool
        machine.kill(task, "crash")

    at = 0
    for task in tasks:
        at += int(rng.integers(0, 5)) * MS

        def go(task: Task = task) -> None:
            machine.spawn(task)
            counts["frozen"] += frozen()
            if sfs is not None:
                running = task.state is TaskState.RUNNING
                sfs.submit(task)
                counts["promoted_running"] += running and task.is_rt
            frac = plan.crashes(task.tid, 0) if plan is not None else None
            if frac is not None:
                after = max(1, round(frac * task.ideal_duration / MS)) * MS
                sim.schedule(after, kill, task)

        sim.schedule_at(at, go)
    sim.run()
    lines = [
        f"{t.finish_time} {t.wait_time} {t.ctx_voluntary} "
        f"{t.ctx_involuntary} {t.cpu_time}"
        for t in tasks
    ]
    lines.append(f"events={sim.events_executed} now={sim.now} "
                 f"counter={sim.reserve(0)}")
    coverage = {
        "preempted": sum(t.ctx_involuntary > 0 for t in tasks),
        "rt": sum(any(p is not SchedPolicy.CFS for _, p in t.policy_changes)
                  or t.is_rt for t in tasks),
        "frozen": counts["frozen"],
        "killed_in_pool": counts["killed_in_pool"],
    }
    if sfs is not None:
        coverage["demoted"] = sfs.stats.demoted_slice
        coverage["promoted_running"] = counts["promoted_running"]
    return "\n".join(lines), coverage


def stress_digest(variant: str) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        h.update(_stress(variant, seed)[0].encode())
    return h.hexdigest()


STRESS: Dict[str, str] = {
    'pool':
        '3b8516490b59b82e086778580e1625584a2247c26510ad6dd61a95b8b7b951a9',
    'ctx':
        'dd250d16cc9e0cdf7f7f0b6faec28f96d10cdc8dbc04d49880e16d88718e6aa7',
    'straggler':
        '13b31bb4308c4cf2c7c99d058307e6c4e894e24d656b723dc4d3aafda53173a2',
    'rr':
        '0a2c7e7892c0a5cc76abca97ac2973f0610afea372ee0e91abeff92aac9c0b77',
    'frozen':
        '5d14806f3a3070e27ba3cc35659c773149e80af379886e9a90bc25a0138d200a',
    'sfs':
        'a1c2db5ac2beb1d0991564a034a55b5a195f4a6006d23b9806fe0f277ec875f4',
    'kill':
        'fa6e3a9002685b3c1aff064e6ae92de78e89ab41efc2ace523f710c1ac034996',
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_timer_tie_stress_digest(variant):
    assert stress_digest(variant) == STRESS[variant]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_stress_exercises_its_mechanism(variant):
    """Each variant really reaches the path it is there for."""
    total: Dict[str, int] = {}
    for seed in SEEDS:
        for key, n in _stress(variant, seed)[1].items():
            total[key] = total.get(key, 0) + n
    assert total["preempted"] > 0
    if variant in RT_SHARE or variant == "sfs":
        assert total["rt"] > 0
    if variant == "frozen":
        assert total["frozen"] > 0
    if variant == "kill":
        assert total["killed_in_pool"] > 0
    if variant == "sfs":
        assert total["demoted"] > 0
        assert total["promoted_running"] > 0


if __name__ == "__main__":  # print the digests of the current tree
    print("STRESS = {")
    for name in VARIANTS:
        print(f"    {name!r}:\n        {stress_digest(name)!r},")
    print("}")
    sys.exit(0)
