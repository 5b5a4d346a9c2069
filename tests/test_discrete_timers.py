"""Pins of the discrete engine's per-core timers: completion, fair slice,
RR quantum and RT throttle.

Every CPU burst, arrival, I/O wait, quantum, switch cost and throttle
window below is a whole number of milliseconds, as is the fair slice
(24 ms / n, at least 3 ms) of n runnable tasks for every n but 5 and
7, so a burst's completion keeps landing on the very instant of a
slice expiry, a quantum rotation, a throttle or a wakeup; at such an
instant the order of the timers decides who runs next.  Each variant adds one mechanism
that moves or replaces a running task's timers:

* ``cfs``: fair slices and I/O wakeup preemption;
* ``ctx``: a context-switch cost, so a task's service starts in the
  future (``run_start`` after ``now``);
* ``straggler``: a slow core (``speed`` < 1) carrying a service residue;
* ``rr``: SCHED_RR quanta and FIFO tasks among CFS ones;
* ``throttle``: the same under RT bandwidth (``rt_bandwidth``);
* ``sfs``: SFS promoting running CFS tasks to FIFO and demoting them at
  FILTER slice expiry, with and without a switch cost;
* ``kill``: :class:`FaultPlan` crash points, rounded to whole ms, that
  kill tasks mid-slice;
* ``eevdf``: the EEVDF fair class.

Each run is reduced to a digest of every task's finish, wait,
context-switch counts, CPU time and vruntime, plus ``events_executed``
and the final clock.  A change to how
the timers are armed or queued must leave every digest unchanged.  To
print the digests of the current tree, run
``PYTHONPATH=src python tests/test_discrete_timers.py``.

Every variant but ``eevdf`` also runs under
``InvariantChecker(deep_every=8)``, which keeps the engine on its
per-slice reference path, and must give the same digest; the ``cfs``
variant also runs through ``Simulator.run(until=)`` in whole-ms chunks.
The ``eevdf`` variant runs bare: its woken tasks can hold a deadline
behind their vruntime, which the checker's deep runqueue audit
rejects.
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
from repro.machine.discrete import DiscreteMachine
from repro.sim.engine import Simulator
from repro.sim.task import Burst, BurstKind, SchedPolicy, Task, TaskState
from repro.sim.units import MS

SEEDS = tuple(range(6))
N_TASKS = 120

#: MachineParams of each variant (``sfs`` and ``kill`` add their own)
VARIANTS: Dict[str, dict] = {
    "cfs": {},
    "ctx": {"ctx_switch_cost": 1 * MS},
    "straggler": {"speed": 0.75},
    "rr": {"rr_quantum": 4 * MS},
    "throttle": {"rr_quantum": 3 * MS, "rt_bandwidth": (7 * MS, 10 * MS)},
    "sfs": {},
    "kill": {},
    "eevdf": {"fair_class": "eevdf"},
}

#: the variants whose tasks start in an RT class a third of the time
RT_MIX = ("rr", "throttle")

#: the variants also run under the invariant checker (per-slice path)
CHECKED = tuple(v for v in VARIANTS if v != "eevdf")


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
    if variant in RT_MIX and rng.random() < 1 / 3:
        policy = SchedPolicy.RR if rng.random() < 0.5 else SchedPolicy.FIFO
        return Task(bursts=bursts, policy=policy,
                    rt_priority=int(rng.integers(1, 4)))
    return Task(bursts=bursts)


@lru_cache(maxsize=None)
def _stress(variant: str, seed: int, mode: str = "bare"
            ) -> Tuple[str, Dict[str, int]]:
    """One run: its digest text and a few coverage counts.  ``mode`` is
    ``bare``, ``checked`` (invariant checker armed) or ``chunked``
    (run in whole-ms ``run(until=)`` chunks)."""
    rng = np.random.default_rng(seed)
    task_mod._task_ids = itertools.count()
    params = dict(VARIANTS[variant])
    if variant == "sfs" and seed % 2:
        params["ctx_switch_cost"] = 1 * MS
    checker = None
    if mode == "checked":
        checker = InvariantChecker(seed=seed, label=variant, deep_every=8)
    sim = Simulator(invariants=checker)
    machine = DiscreteMachine(
        sim, MachineParams(n_cores=int(rng.integers(2, 5)), **params))
    sfs = None
    if variant == "sfs":
        sfs = SFS(machine, SFSConfig(
            poll_interval=int(rng.integers(1, 5)) * MS, adaptive=False,
            initial_slice=int(rng.integers(2, 9)) * MS))
    plan = FaultPlan(seed=seed, crash_prob=0.4) if variant == "kill" else None
    tasks = [_task(rng, variant) for _ in range(N_TASKS)]
    promoted_running = [0]
    at = 0
    for task in tasks:
        at += int(rng.integers(0, 5)) * MS

        def go(task: Task = task) -> None:
            machine.spawn(task)
            if sfs is not None:
                running = task.state is TaskState.RUNNING
                sfs.submit(task)
                promoted_running[0] += running and task.is_rt
            frac = plan.crashes(task.tid, 0) if plan is not None else None
            if frac is not None:
                after = max(1, round(frac * task.ideal_duration / MS)) * MS
                sim.schedule(after, machine.kill, task, "crash")

        sim.schedule_at(at, go)
    if mode == "chunked":
        while sim.pending_work:
            sim.run(until=sim.now + 1 * MS)
    else:
        sim.run()
    # a chunked run ends on a chunk boundary; the last event of these
    # runs is the last task's exit
    now = (max(t.finish_time for t in tasks) if mode == "chunked"
           else sim.now)
    lines = [
        f"{t.finish_time} {t.wait_time} {t.ctx_voluntary} "
        f"{t.ctx_involuntary} {t.cpu_time} {t.vruntime}"
        for t in tasks
    ]
    lines.append(f"events={sim.events_executed} now={now}")
    coverage = {
        "preempted": sum(t.ctx_involuntary > 0 for t in tasks),
        "killed_mid_run": sum(t.killed and 0 < t.cpu_time < t.cpu_demand
                              for t in tasks),
        "rt": sum(any(p is not SchedPolicy.CFS for _, p in t.policy_changes)
                  or t.is_rt for t in tasks),
    }
    if sfs is not None:
        coverage["demoted"] = sfs.stats.demoted_slice
        coverage["promoted_running"] = promoted_running[0]
    return "\n".join(lines), coverage


def stress_digest(variant: str, mode: str = "bare") -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        h.update(_stress(variant, seed, mode)[0].encode())
    return h.hexdigest()


STRESS: Dict[str, str] = {
    'cfs':
        '1259f460c0e2dc7e1691d15684130b154a77ca9f3aa818e1678f664bde9e40d8',
    'ctx':
        'f177d9d506fec42270e90cce776007043a9265f3cc25c6de0bf504a8dc117c41',
    'straggler':
        '9d590e40c825a93b23a16001432950b4f5f13f13b5e428ef3fa8b79ce6c36aac',
    'rr':
        '10c1d217f6198af7c90127ef90f1f95736eeb56294a71c96afad0309146f66c1',
    'throttle':
        '490fc74b071f0a39f75c0a7406aac1d720ffed41c20fa1429969ea18d76c75aa',
    'sfs':
        'ff21cc9d9af222616d58f25587932ffcdb2fc82555f5a5bfbb54dccc0b304b7c',
    'kill':
        '52f3ff3047c22a78316864baf1b3bdd164192c417e68fdbd4e02cd3e1975d36b',
    'eevdf':
        'c8472ea5ae3eaa873575b98c52839a9902ea048d8faf18dc26ea1422d80fdfed',
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_timer_tie_stress_digest(variant):
    assert stress_digest(variant) == STRESS[variant]


@pytest.mark.parametrize("variant", sorted(CHECKED))
def test_timer_tie_stress_digest_checked(variant):
    """The checked run takes the per-slice path and pins the same
    digest as the bare run."""
    assert stress_digest(variant, "checked") == STRESS[variant]


def test_timer_tie_stress_digest_chunked():
    assert stress_digest("cfs", "chunked") == STRESS["cfs"]


@pytest.mark.parametrize("variant", ["cfs", "sfs"])
def test_bare_run_rotates_without_a_heap_event_per_slice(variant,
                                                        monkeypatch):
    """A bare run advances most slice expiries off the heap: it calls
    the slice-expiry handler far less often than the checked run, for
    the same events_executed."""
    calls = {"bare": 0, "checked": 0}
    mode = ["bare"]
    handler = DiscreteMachine._on_slice_expiry

    def counted(self, core, task):
        calls[mode[0]] += 1
        handler(self, core, task)

    monkeypatch.setattr(DiscreteMachine, "_on_slice_expiry", counted)
    texts = {}
    for mode[0] in ("bare", "checked"):
        texts[mode[0]] = _stress.__wrapped__(variant, 0, mode[0])[0]
    assert texts["bare"] == texts["checked"]
    assert calls["bare"] * 2 < calls["checked"]


def _lone_touched(checked: bool) -> Tuple[int, int, int, int]:
    """One task alone on one core for 100 ms of CPU, polled at 30 and
    60 ms: each poll settles its lone plan between two slice expiries,
    before its completion is due."""
    task_mod._task_ids = itertools.count()
    sim = Simulator(invariants=InvariantChecker() if checked else None)
    machine = DiscreteMachine(sim, MachineParams(n_cores=1))
    task = Task(bursts=[Burst(BurstKind.CPU, 100 * MS)])
    machine.spawn(task)
    sim.schedule_at(30 * MS, machine.poll_state, task)
    sim.schedule_at(60 * MS, machine.poll_state, task)
    sim.run()
    return task.finish_time, task.cpu_time, sim.events_executed, sim.now


def test_lone_task_settled_mid_plan_completes_once():
    assert _lone_touched(False) == _lone_touched(True) == (
        100 * MS, 100 * MS, 7, 100 * MS)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_stress_exercises_its_mechanism(variant):
    """Each variant really reaches the path it is there for."""
    total: Dict[str, int] = {}
    for seed in SEEDS:
        for key, n in _stress(variant, seed)[1].items():
            total[key] = total.get(key, 0) + n
    assert total["preempted"] > 0
    if variant == "kill":
        assert total["killed_mid_run"] > 0
    if variant in RT_MIX or variant == "sfs":
        assert total["rt"] > 0
    if variant == "sfs":
        assert total["demoted"] > 0
        assert total["promoted_running"] > 0


if __name__ == "__main__":  # print the digests of the current tree
    print("STRESS = {")
    for name in VARIANTS:
        print(f"    {name!r}:\n        {stress_digest(name)!r},")
    print("}")
    sys.exit(0)
