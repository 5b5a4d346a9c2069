"""Pins of SFS's status polling: every observable a poll can move.

SFS polls each FILTER function's kernel state every ``poll_interval``
(§V-D) and polls the blocked-function watch list at the same rate.  The
stress runs below are built to land those polls on the same instants as
blocks, wakes, finishes, slice expiries and arrivals: whole-millisecond
CPU/I/O/CPU bursts and arrivals, 1/4/8 ms polls, both engines.  Unlike
the FaaSBench and Azure workloads (whose I/O is leading only), most of
these tasks block *mid-slice*, so the FILTER poll itself detects the
block (``demoted_io``).

Each run is reduced to a digest of each task's finish, wait, CPU,
context-switch and first-run stamps, the :class:`SFSStats` counters,
the :class:`OverheadMeter` poll count and per-window poll and
scheduling costs, ``events_executed`` and the final clock.  The meter's
window is cut to 7 ms, so that a poll metered one interval early or
late moves a cost between windows.  Half the seeds space their arrivals
out, so that the watch list stays unchanged across several of its
polls.  The scaled
fig9, fig11 and table2 runs pin their overhead summaries.  A change to
how polls are executed must leave every digest unchanged.  To print the
digests of the current tree, run
``PYTHONPATH=src python tests/test_poll_elision.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from dataclasses import astuple
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np
import pytest

import repro.sim.task as task_mod
from repro.core.config import SFSConfig
from repro.core.overhead import OverheadMeter
from repro.core.sfs import SFS
from repro.experiments import fig09_timeslice, fig11_io, table2_overhead
from repro.machine.base import MachineParams
from repro.machine.discrete import DiscreteMachine
from repro.machine.fluid import FluidMachine
from repro.sim.engine import Simulator
from repro.sim.task import Burst, BurstKind, Task
from repro.sim.units import MS

ENGINES = {"discrete": DiscreteMachine, "fluid": FluidMachine}
POLLS_MS = (1, 4, 8)
SEEDS = tuple(range(8))
N_TASKS = 200


def _bursts(rng: np.random.Generator) -> List[Burst]:
    """CPU/I/O/CPU mostly; some leading-I/O and CPU-only tasks."""
    def ms(lo: int, hi: int) -> int:
        return int(rng.integers(lo, hi)) * MS

    kind = rng.random()
    if kind < 0.7:
        return [Burst(BurstKind.CPU, ms(1, 9)), Burst(BurstKind.IO, ms(1, 17)),
                Burst(BurstKind.CPU, ms(1, 13))]
    if kind < 0.85:
        return [Burst(BurstKind.IO, ms(1, 9)), Burst(BurstKind.CPU, ms(1, 13))]
    return [Burst(BurstKind.CPU, ms(1, 41))]


@lru_cache(maxsize=None)
def _stress(engine: str, poll_ms: int, seed: int) -> Tuple[str, Dict[str, int]]:
    """One stress run: its digest text and its SFS counters."""
    rng = np.random.default_rng(seed)
    task_mod._task_ids = itertools.count()
    sim = Simulator()
    machine = ENGINES[engine](sim, MachineParams(n_cores=int(rng.integers(2, 5))))
    cfg = SFSConfig(poll_interval=poll_ms * MS, adaptive=seed % 2 == 0,
                    initial_slice=int(rng.integers(4, 17)) * MS)
    sfs = SFS(machine, cfg)
    sfs.overhead = OverheadMeter(window=7 * MS)
    tasks = [Task(bursts=_bursts(rng)) for _ in range(N_TASKS)]
    max_gap_ms = 6 if seed % 4 < 2 else 40
    at = 0
    for task in tasks:
        at += int(rng.integers(0, max_gap_ms)) * MS

        def go(task: Task = task) -> None:
            machine.spawn(task)
            sfs.submit(task)

        sim.schedule_at(at, go)
    sim.run()
    meter = sfs.overhead
    lines = [
        f"{t.finish_time} {t.wait_time} {t.cpu_time} {t.ctx_voluntary} "
        f"{t.ctx_involuntary} {t.first_run_time}"
        for t in tasks
    ]
    lines.append(repr(astuple(sfs.stats)))
    lines.append(f"polls={meter.poll_count} sched_ops={meter.sched_op_count}")
    lines.append(repr(sorted(meter._poll_cost.items())))
    lines.append(repr(sorted(meter._sched_cost.items())))
    lines.append(f"events={sim.events_executed} now={sim.now}")
    return "\n".join(lines), vars(sfs.stats)


def stress_digest(engine: str, poll_ms: int) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        h.update(_stress(engine, poll_ms, seed)[0].encode())
    return h.hexdigest()


def _summaries(runs) -> List[str]:
    return [
        f"{name} polls={r.overhead.poll_count} "
        f"{r.overhead.summary(r.sim_time)!r} {r.sim_time}"
        for name, r in runs.items()
    ]


def render_digest(name: str) -> str:
    """The overhead summaries of one scaled experiment (seed 0)."""
    task_mod._task_ids = itertools.count()
    if name == "fig9":
        runs = fig09_timeslice.run(fig09_timeslice.Config.scaled()).runs
        lines = _summaries(runs)
    elif name == "fig11":
        runs = fig11_io.run(fig11_io.Config.scaled()).runs
        lines = _summaries({k: r for k, r in runs.items() if r.overhead})
    else:
        result = table2_overhead.run(table2_overhead.Config.scaled())
        lines = [f"{p} {s!r}" for p, s in result.summaries.items()]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


STRESS: Dict[Tuple[str, int], str] = {
    ('discrete', 1):
        '9b9718d85c378e84cf3a2d274fefe6331caf61159b4fc82a367813e220879233',
    ('discrete', 4):
        'ff448a5800c5d5f9a2b9372d7219aed20835ad68e49e35713e749d25bb4f4fb8',
    ('discrete', 8):
        'b20bbd8f9799c551dc631828ac20ed0c83466f98194788a336aa2d217f221bbf',
    ('fluid', 1):
        'da9215c066ccbcf9c6f18dcd5e5d5e17decea12a75ad77a8c927f907b3728f05',
    ('fluid', 4):
        'fe8e3cc2ece574c3f88892d060849c3cf44fc59fe267927e7a67cd9edf7d7c36',
    ('fluid', 8):
        '2c79a5bbf06ebb6ab62a274b45d346fae7950b74f559d85c3f513f8115fdb089',
}

SUMMARIES: Dict[str, str] = {
    'fig9':
        '7e7c1440f9d1d7b1948ed6d06a44481618c8e666c0177b07e3281dfbae06369c',
    'fig11':
        'a555f3141cf9b481bc801aa66610c24b6a47e3b3a7399470df5418a2f647a1d4',
    'table2':
        '983c3c5560fb5c3c6d2cf9ff9e325a08682b77574b1b67e8c803cc886fda17c4',
}


@pytest.fixture(autouse=True)
def _fresh_task_ids(monkeypatch):
    monkeypatch.setattr(task_mod, "_task_ids", itertools.count())


@pytest.mark.parametrize("engine,poll_ms", sorted(STRESS))
def test_stress_digest(engine, poll_ms):
    assert stress_digest(engine, poll_ms) == STRESS[(engine, poll_ms)]


def test_stress_detects_mid_slice_blocks():
    """The stress reaches every poll outcome, not only leading I/O."""
    totals: Dict[str, int] = {}
    for engine, poll_ms, seed in itertools.product(ENGINES, POLLS_MS, SEEDS):
        for key, value in _stress(engine, poll_ms, seed)[1].items():
            totals[key] = totals.get(key, 0) + value
    assert totals["demoted_io"] > 0
    assert totals["watched_at_pop"] > 0
    assert totals["finished_while_watched"] > 0
    assert totals["demoted_slice"] > 0
    assert totals["completed_in_filter"] > 0


@pytest.mark.parametrize("name", sorted(SUMMARIES))
def test_scaled_overhead_summaries(name):
    assert render_digest(name) == SUMMARIES[name]


if __name__ == "__main__":  # pragma: no cover - prints the pin tables
    print("STRESS = {")
    for engine in ENGINES:
        for poll_ms in POLLS_MS:
            print(f"    ({engine!r}, {poll_ms}):\n"
                  f"        {stress_digest(engine, poll_ms)!r},")
    print("}\n\nSUMMARIES = {")
    for name in ("fig9", "fig11", "table2"):
        print(f"    {name!r}:\n        {render_digest(name)!r},")
    print("}")
    sys.exit(0)
