"""Self-validation: is this installation simulating correctly?

One table of pinned cases (:func:`cases`) backs two commands:

* ``python -m repro validate [ROW...]`` runs every row (or the named
  ones) and prints a pass/fail table;
* ``python -m repro check [--quick] [--seed N]`` runs the differential
  rows and prints each :class:`~repro.invariants.diff.DiffReport`.

Each law is written once, where it belongs, and the rows only choose
what to run it on:

* **runtime invariants** (:mod:`repro.invariants.checker`) — every run
  row arms the checker, so conservation is checked per task and SFS's
  outcome closure (``sfs-accounting``) on every ``sfs`` row;
* **engine agreement** (:func:`~repro.invariants.diff.diff_engines`) —
  ``engines:*`` rows: fluid vs discrete, FIFO exact;
* **lower bound** (:func:`~repro.invariants.diff.diff_oracle`) —
  ``oracle:*`` rows: IDEAL is exact and no request beats it; the
  ``:io`` and ``:load1`` rows run ``validate``'s I/O-heavy and
  saturated workloads;
* three whole-install rows: **oracle ordering** (IDEAL <= SRTF <= CFS
  on mean turnaround), **trace calibration** (the synthetic Azure trace
  hits the paper's Fig 1 anchors) and **determinism** (identical seeds
  give bit-identical results).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.experiments.runner import RunConfig, run_workload
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.invariants.diff import DiffReport, diff_engines, diff_oracle
from repro.machine.base import MachineParams
from repro.workload.azure import FIG1_ANCHORS, AzureTraceSynthesizer
from repro.workload.faasbench import FaaSBench, FaaSBenchConfig

CORES = 8
#: the workload seed of the differential rows (``repro check --seed``)
CHECK_SEED = 21


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class Case:
    """One row: what it runs, and which ``repro check`` modes show it."""

    run: Callable[[], Union[DiffReport, Tuple[bool, str]]]
    check: Tuple[str, ...] = ()


def _workload(n: int, load: float, seed: int, io: float = 0.0):
    cfg = FaaSBenchConfig(n_requests=n, n_cores=CORES, target_load=load,
                          io_fraction=io)
    return FaaSBench(cfg, seed=seed).generate()


def _config(scheduler: str, **kw) -> RunConfig:
    return RunConfig(scheduler=scheduler,
                     machine=MachineParams(n_cores=CORES), invariants=True,
                     **kw)


def _run(wl, scheduler: str):
    return run_workload(wl, _config(scheduler))


# ---------------------------------------------------------------------------
# whole-install rows
# ---------------------------------------------------------------------------
def check_oracle_ordering() -> Tuple[bool, str]:
    wl = _workload(400, 1.0, 3)
    means = {s: _run(wl, s).turnarounds.mean() for s in ("ideal", "srtf", "cfs")}
    ok = means["ideal"] <= means["srtf"] + 1 and means["srtf"] <= means["cfs"]
    return ok, "IDEAL <= SRTF <= CFS on mean turnaround: " + ", ".join(
        f"{k}={v/1e3:.1f}ms" for k, v in means.items())


def check_trace_calibration() -> Tuple[bool, str]:
    syn = AzureTraceSynthesizer(n_apps=20_000, seed=1)
    d = syn.sample_avg_durations(20_000)
    deltas = {
        bound: abs(float((d < bound).mean()) - target)
        for bound, target in FIG1_ANCHORS
    }
    ok = all(delta < 0.05 for delta in deltas.values())
    return ok, ", ".join(f"<{b/1e6:g}s off by {v:.3f}"
                         for b, v in deltas.items())


def check_determinism() -> Tuple[bool, str]:
    wl = _workload(400, 1.0, 11)
    a = _run(wl, "sfs")
    b = _run(wl, "sfs")
    ok = bool(
        np.array_equal(a.turnarounds, b.turnarounds)
        and np.array_equal(a.rtes, b.rtes)
    )
    return ok, ("identical seeds give bit-identical results" if ok
                else "runs diverged")


# ---------------------------------------------------------------------------
# the case table
# ---------------------------------------------------------------------------
QUICK = ("quick", "full")
FULL = ("full",)


def cases(seed: int = CHECK_SEED, quick: bool = False) -> Dict[str, Case]:
    """Every row, by name.  ``seed`` and ``quick`` (150 instead of 400
    requests) size the differential rows, whose order and report names
    are ``repro check``'s output."""
    n = 150 if quick else 400

    def diff(compare, scheduler, load=0.9, seed=seed, io=0.0, **kw):
        return lambda: compare(_workload(n, load, seed, io),
                               _config(scheduler, **kw))

    table = {
        "engines:cfs": Case(diff(diff_engines, "cfs"), QUICK),
        "engines:sfs": Case(diff(diff_engines, "sfs"), QUICK),
        "oracle:cfs": Case(diff(diff_oracle, "cfs"), QUICK),
        "oracle:sfs": Case(diff(diff_oracle, "sfs"), QUICK),
        "engines:cfs:faulted": Case(diff(
            diff_engines, "cfs", faults=FaultPlan(seed=seed + 1, crash_prob=0.08),
            retry=RetryPolicy(max_attempts=3)), QUICK),
        "engines:cfs:heavy": Case(diff(diff_engines, "cfs", 1.0, seed + 7), FULL),
        "engines:sfs:heavy": Case(diff(diff_engines, "sfs", 1.0, seed + 7), FULL),
        "oracle:srtf:heavy": Case(diff(diff_oracle, "srtf", 1.0, seed + 7), FULL),
        "engines:fifo": Case(diff(diff_engines, "fifo")),
    }
    # validate's I/O-heavy and saturated workloads; every oracle row
    # also runs IDEAL
    for scheduler in ("cfs", "fifo", "sfs", "srtf"):
        table[f"oracle:{scheduler}:io"] = Case(
            diff(diff_oracle, scheduler, seed=7, io=0.3))
        table[f"oracle:{scheduler}:load1"] = Case(
            diff(diff_oracle, scheduler, 1.0, seed=7))
    table["oracle-ordering"] = Case(check_oracle_ordering)
    table["trace-calibration"] = Case(check_trace_calibration)
    table["determinism"] = Case(check_determinism)
    return table


#: every row name, in table order (``repro validate``'s choices)
ALL_CHECKS = tuple(cases())


def run_check(quick: bool = False, seed: int = CHECK_SEED) -> List[DiffReport]:
    """``repro check``: the differential rows, in table order."""
    mode = "quick" if quick else "full"
    return [case.run() for case in cases(seed, quick).values()
            if mode in case.check]


def run_battery(names: Optional[List[str]] = None) -> List[CheckResult]:
    """Run the selected (default: all) rows."""
    table = cases()
    results = []
    for name in names or ALL_CHECKS:
        t0 = time.time()
        try:
            out = table[name].run()
        except RuntimeError as exc:  # an InvariantViolation, unfinished work
            out = (False, f"{type(exc).__name__}: {exc}")
        if isinstance(out, DiffReport):
            out = (out.ok, "; ".join(out.divergences[:3])
                   or f"{out.n_requests} requests agree")
        results.append(CheckResult(name, *out, time.time() - t0))
    return results


def render(results: List[CheckResult]) -> str:
    from repro.analysis.report import format_table

    rows = [
        (r.name, "PASS" if r.passed else "FAIL", f"{r.seconds:.1f}s", r.detail)
        for r in results
    ]
    verdict = "all checks passed" if all(r.passed for r in results) else (
        "FAILURES: " + ", ".join(r.name for r in results if not r.passed)
    )
    return format_table(["check", "status", "time", "detail"], rows,
                        title="repro self-validation") + f"\n{verdict}"
