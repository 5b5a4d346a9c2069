"""Differential validation: two implementations, one answer.

The reproduction maintains two independent machine engines — the fluid
processor-sharing model and the per-slice discrete reference — plus an
analytically-trivial IDEAL oracle.  Agreement between independently-
built implementations is the strongest correctness evidence short of a
proof, so this module runs the *same seeded workload* through pairs of
them and compares per-request records:

* :func:`diff_engines` — fluid vs. discrete.  Terminal statuses and
  attempt counts must match exactly (fault decisions are pure functions
  of ``(seed, req_id, attempt)``, so any mismatch is a real bug);
  charged CPU service for successful requests must equal demand in
  both; per-request turnarounds may differ by up to one scheduling
  round per residence (the documented model error, ~0.9 relative in
  the worst case) but aggregates must agree tightly.  FIFO never
  shares a core, so at zero context-switch cost the fluid model has
  nothing to approximate: every turnaround must be equal.
* :func:`diff_oracle` — a real scheduler vs. IDEAL.  The oracle's
  turnaround is *exactly* the request's intrinsic burst sum, and no
  work-conserving scheduler on finite cores can beat it, so every
  request must satisfy ``turnaround >= ideal`` (checked with
  zero context-switch cost, where the bound is exact).

The first divergence is reported with trace context: the run is
replayed with a :class:`repro.trace.TraceRecorder` and the offending
request's event history is attached to the report.

``repro check`` runs the differential rows of the case table in
:mod:`repro.analysis.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from repro.experiments.runner import RunConfig, run_workload
from repro.trace import TraceRecorder
from repro.trace import events as tev
from repro.workload.spec import Workload


@dataclass(frozen=True)
class DiffTolerance:
    """How much the fluid and discrete engines may disagree.

    Defaults are calibrated against the engine-agreement test suite:
    per-request divergence up to one scheduling round per residence is
    a documented property of the fluid approximation, while aggregate
    statistics track much more tightly.
    """

    #: symmetric per-request bound: |a-b| / max(a, b) for turnarounds.
    per_request_rel: float = 0.95
    #: additive floor so microsecond-scale requests aren't flagged.
    per_request_abs: int = 1000
    #: mean turnaround relative difference (the ``repro check`` rows
    #: measure at most 5.6% at 150 and 400 requests).
    mean_rel: float = 0.10
    #: median turnaround relative difference.
    median_rel: float = 0.30
    #: minimum ok-sample size before the mean/median aggregate checks
    #: apply.  The aggregate bounds are calibrated on 150+ request
    #: workloads; on a handful of requests (the fuzzer's shrunk cases)
    #: one request's documented per-round divergence IS the mean, so
    #: small samples are judged per-request only.
    aggregate_min_n: int = 0

    def __post_init__(self) -> None:
        for name in ("per_request_rel", "mean_rel", "median_rel"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0) or v != v:
                raise ValueError(f"{name} must be in (0, 1], got {v!r}")
        if self.per_request_abs < 0:
            raise ValueError("per_request_abs must be >= 0")
        if self.aggregate_min_n < 0:
            raise ValueError("aggregate_min_n must be >= 0")


@dataclass
class DiffReport:
    """Outcome of one differential comparison."""

    name: str
    n_requests: int = 0
    divergences: List[str] = field(default_factory=list)
    #: req_id of the first per-request divergence (None when clean).
    first_divergence: Optional[int] = None
    #: event history of the diverging request under both runs.
    trace_context: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def render(self) -> str:
        head = f"[{'PASS' if self.ok else 'FAIL'}] {self.name} " \
               f"({self.n_requests} requests)"
        if self.ok:
            return head
        lines = [head]
        lines += [f"  divergence: {d}" for d in self.divergences[:10]]
        if len(self.divergences) > 10:
            lines.append(f"  ... and {len(self.divergences) - 10} more")
        if self.trace_context:
            lines.append(f"  trace context for req {self.first_divergence}:")
            lines += [f"    {line}" for line in self.trace_context]
        return "\n".join(lines)


def _records_by_id(result) -> dict:
    return {r.req_id: r for r in result.records}


def _trace_context(workload: Workload, cfg: RunConfig, req_id: int,
                   limit: int = 30) -> List[str]:
    """Replay ``cfg`` with tracing and return the event history of the
    request's task(s) — the debugging breadcrumb for a divergence."""
    trace = TraceRecorder()
    try:
        run_workload(workload, cfg, trace=trace)
    except Exception as exc:  # the replay itself may trip the checker
        return [f"(replay failed: {exc})"]
    tids = {
        ev.tid for ev in trace.decisions
        if ev.kind == tev.TASK_SPAWN and len(ev.args) >= 2
        and ev.args[1] == req_id
    }
    if not tids:
        return ["(request never spawned a task)"]
    lines = []
    for ev in trace.decisions:
        if ev.tid in tids:
            lines.append(
                f"t={ev.ts} {ev.kind} tid={ev.tid}"
                + (f" core={ev.core}" if ev.core >= 0 else "")
                + (f" args={ev.args}" if ev.args else "")
            )
    if len(lines) > limit:
        head = limit // 2
        lines = lines[:head] + [f"... {len(lines) - limit} events elided ..."] \
            + lines[-(limit - head):]
    return lines


def diff_engines(
    workload: Workload,
    cfg: RunConfig,
    tol: DiffTolerance = DiffTolerance(),
) -> DiffReport:
    """Run ``workload`` through both engines and compare records.

    With ``scheduler == "fifo"`` and zero context-switch cost the
    engines must agree exactly on every turnaround.
    """
    fluid_cfg = replace(cfg, engine="fluid")
    disc_cfg = replace(cfg, engine="discrete")
    fluid = run_workload(workload, fluid_cfg)
    disc = run_workload(workload, disc_cfg)
    f_by, d_by = _records_by_id(fluid), _records_by_id(disc)
    exact = cfg.scheduler == "fifo" and cfg.machine.ctx_switch_cost == 0
    report = DiffReport(
        name=f"engines:{cfg.scheduler}"
             + (":faulted" if cfg.fault_handling else ""),
        n_requests=len(workload),
    )

    def diverge(req_id: Optional[int], msg: str) -> None:
        report.divergences.append(msg)
        if report.first_divergence is None and req_id is not None:
            report.first_divergence = req_id

    if set(f_by) != set(d_by):
        only_f = sorted(set(f_by) - set(d_by))[:5]
        only_d = sorted(set(d_by) - set(f_by))[:5]
        diverge(None, f"record coverage differs: fluid-only {only_f}, "
                      f"discrete-only {only_d}")
    for req_id in sorted(set(f_by) & set(d_by)):
        fr, dr = f_by[req_id], d_by[req_id]
        if (fr.status, fr.attempts) != (dr.status, dr.attempts):
            diverge(req_id,
                    f"req {req_id}: outcome fluid={fr.status}/{fr.attempts} "
                    f"discrete={dr.status}/{dr.attempts}")
            continue
        if exact and fr.turnaround != dr.turnaround:
            diverge(req_id,
                    f"req {req_id}: FIFO turnaround fluid={fr.turnaround}us "
                    f"discrete={dr.turnaround}us (must be equal)")
            continue
        if fr.status == "ok":
            if fr.cpu_time != fr.cpu_demand or dr.cpu_time != dr.cpu_demand:
                diverge(req_id,
                        f"req {req_id}: service != demand (fluid "
                        f"{fr.cpu_time}/{fr.cpu_demand}, discrete "
                        f"{dr.cpu_time}/{dr.cpu_demand})")
                continue
            gap = abs(fr.turnaround - dr.turnaround)
            bound = tol.per_request_abs + \
                tol.per_request_rel * max(fr.turnaround, dr.turnaround)
            if gap > bound:
                diverge(req_id,
                        f"req {req_id}: turnaround fluid={fr.turnaround}us "
                        f"discrete={dr.turnaround}us (gap {gap} > "
                        f"bound {bound:.0f})")
    ok_f = np.array([r.turnaround for r in fluid.records if r.status == "ok"],
                    dtype=float)
    ok_d = np.array([r.turnaround for r in disc.records if r.status == "ok"],
                    dtype=float)
    if ok_f.size >= max(1, tol.aggregate_min_n) and ok_d.size:
        mean_gap = abs(ok_f.mean() - ok_d.mean()) / max(ok_d.mean(), 1.0)
        if mean_gap > tol.mean_rel:
            diverge(None, f"mean turnaround diverges {mean_gap:.1%} "
                          f"(> {tol.mean_rel:.0%})")
        med_gap = abs(np.median(ok_f) - np.median(ok_d)) / \
            max(float(np.median(ok_d)), 1.0)
        if med_gap > tol.median_rel:
            diverge(None, f"median turnaround diverges {med_gap:.1%} "
                          f"(> {tol.median_rel:.0%})")
    if report.first_divergence is not None:
        report.trace_context = _trace_context(
            workload, disc_cfg, report.first_divergence
        )
    return report


def diff_oracle(
    workload: Workload,
    cfg: RunConfig,
) -> DiffReport:
    """Compare ``cfg.scheduler`` against the IDEAL oracle.

    Two exact laws (with zero context-switch cost and no faults):
    the oracle's turnaround equals the intrinsic burst sum, and no
    scheduler can beat the oracle on any request.
    """
    if cfg.fault_handling:
        raise ValueError("the oracle bound only holds for nominal runs")
    base = replace(cfg, machine=replace(cfg.machine, ctx_switch_cost=0))
    real = run_workload(workload, base)
    ideal = run_workload(workload, base.with_scheduler("ideal"))
    r_by, i_by = _records_by_id(real), _records_by_id(ideal)
    report = DiffReport(
        name=f"oracle:{cfg.scheduler}-vs-ideal", n_requests=len(workload)
    )

    def diverge(req_id: int, msg: str) -> None:
        report.divergences.append(msg)
        if report.first_divergence is None:
            report.first_divergence = req_id

    for req_id in sorted(i_by):
        ir = i_by[req_id]
        if ir.turnaround != ir.ideal_duration:
            diverge(req_id,
                    f"req {req_id}: oracle turnaround {ir.turnaround}us != "
                    f"intrinsic duration {ir.ideal_duration}us")
        rr = r_by.get(req_id)
        if rr is None:
            diverge(req_id, f"req {req_id}: missing from {cfg.scheduler} run")
            continue
        if rr.turnaround < ir.turnaround:
            diverge(req_id,
                    f"req {req_id}: {cfg.scheduler} turnaround "
                    f"{rr.turnaround}us beats the oracle ({ir.turnaround}us)")
        if rr.cpu_time != rr.cpu_demand:
            diverge(req_id,
                    f"req {req_id}: {cfg.scheduler} charged {rr.cpu_time}us "
                    f"for {rr.cpu_demand}us of demand")
    if report.first_divergence is not None:
        report.trace_context = _trace_context(
            workload, base, report.first_divergence
        )
    return report
