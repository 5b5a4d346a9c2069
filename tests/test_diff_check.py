"""Differential validation harness (repro.invariants.diff).

The harness itself must be tested in both directions: clean engine
pairs pass, and a genuinely divergent pair is flagged with the first
diverging request plus its trace context.
"""

from dataclasses import replace

import pytest

from conftest import small_workload
from repro.experiments.runner import RunConfig
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.analysis.validate import run_check
from repro.invariants.diff import (
    DiffReport,
    DiffTolerance,
    diff_engines,
    diff_oracle,
)
from repro.machine.base import MachineParams
from repro.machine.discrete import DiscreteMachine
from repro.sim.task import SchedPolicy


def _cfg(scheduler="cfs", **kw):
    return RunConfig(
        scheduler=scheduler, machine=MachineParams(n_cores=8), **kw
    )


@pytest.mark.parametrize("scheduler", ["cfs", "sfs", "fifo"])
def test_engine_diff_clean(scheduler):
    wl = small_workload(n_requests=200, load=0.9, seed=41)
    report = diff_engines(wl, _cfg(scheduler))
    assert report.ok, report.render()
    assert report.n_requests == len(wl)
    assert "PASS" in report.render()


def test_engine_diff_clean_with_faults():
    wl = small_workload(n_requests=200, load=0.9, seed=42)
    cfg = _cfg("cfs", faults=FaultPlan(seed=5, crash_prob=0.08),
               retry=RetryPolicy(max_attempts=3))
    report = diff_engines(wl, cfg)
    assert report.ok, report.render()
    assert "faulted" in report.name


@pytest.mark.parametrize("scheduler", ["cfs", "sfs", "srtf"])
def test_oracle_diff_clean(scheduler):
    wl = small_workload(n_requests=200, load=0.9, seed=43)
    report = diff_oracle(wl, _cfg(scheduler))
    assert report.ok, report.render()


def test_oracle_diff_rejects_faulted_config():
    wl = small_workload(n_requests=20, load=0.8, seed=44)
    cfg = _cfg("cfs", faults=FaultPlan(seed=5, crash_prob=0.5))
    with pytest.raises(ValueError, match="nominal"):
        diff_oracle(wl, cfg)


def test_engine_diff_detects_divergence():
    """With an absurdly tight tolerance the documented fluid-vs-discrete
    model error *must* register as a divergence — proving the comparator
    is actually looking at the data."""
    wl = small_workload(n_requests=200, load=1.0, seed=45)
    tight = DiffTolerance(per_request_rel=1e-6, per_request_abs=0,
                          mean_rel=1e-6, median_rel=1e-6)
    report = diff_engines(wl, _cfg("cfs"), tol=tight)
    assert not report.ok
    assert report.first_divergence is not None
    # the first diverging request carries a replayed event history
    assert report.trace_context
    assert any("t=" in line for line in report.trace_context)
    rendered = report.render()
    assert "FAIL" in rendered and "trace context" in rendered


def _slow_fifo_dispatch(monkeypatch):
    """Seeded bug: every discrete FIFO dispatch starts running 1us late."""
    start = DiscreteMachine._start

    def slow(self, core, task):
        start(self, core, task)
        if task.policy is SchedPolicy.FIFO:
            core.run_start += 1
            core.completion_handle.cancel()
            core.completion_handle = self.sim.schedule(
                core.run_start - self.sim.now
                + self._wall(task.burst_remaining),
                self._on_completion, core, task)

    monkeypatch.setattr(DiscreteMachine, "_start", slow)


def test_fifo_engines_must_agree_exactly(monkeypatch):
    """At zero context-switch cost FIFO is exact across engines, so
    1us of drift per dispatch is a divergence."""
    wl = small_workload(n_requests=200, load=0.9, seed=41)
    _slow_fifo_dispatch(monkeypatch)
    report = diff_engines(wl, _cfg("fifo"))
    assert not report.ok
    assert "FIFO turnaround" in report.divergences[0]
    assert report.trace_context


def test_fifo_exact_law_needs_zero_ctx_cost(monkeypatch):
    """With a context-switch cost the engines legitimately differ, so
    the same drift stays inside the ordinary tolerance."""
    wl = small_workload(n_requests=200, load=0.9, seed=41)
    _slow_fifo_dispatch(monkeypatch)
    cfg = replace(_cfg("fifo"),
                  machine=MachineParams(n_cores=8, ctx_switch_cost=500))
    report = diff_engines(wl, cfg)
    assert report.ok, report.render()


def test_tolerance_validation():
    with pytest.raises(ValueError):
        DiffTolerance(mean_rel=0.0)
    with pytest.raises(ValueError):
        DiffTolerance(per_request_rel=float("nan"))
    with pytest.raises(ValueError):
        DiffTolerance(per_request_abs=-1)


def test_report_render_truncates_divergences():
    report = DiffReport(name="x", n_requests=1,
                        divergences=[f"d{i}" for i in range(25)])
    rendered = report.render()
    assert "and 15 more" in rendered


def test_quick_battery_is_clean():
    reports = run_check(quick=True, seed=21)
    assert len(reports) == 5
    for r in reports:
        assert r.ok, r.render()
