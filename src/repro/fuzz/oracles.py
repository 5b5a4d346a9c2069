"""Oracles: what "wrong" means for a generated case.

Four families, each with an applicability gate so a property is only
asserted on configurations where it mathematically holds:

* **invariant** — replay the case with the runtime conservation-law
  checker (PR 3) forced on; any :class:`InvariantViolation`,
  :class:`SimulationError` (event-budget livelock) or unfinished-request
  error is a finding.  Applies to every case.
* **differential** — the engine diff (fluid vs discrete) and the IDEAL
  lower-bound oracle from :mod:`repro.invariants.diff`.  Engine diffing
  needs the ``cfs`` fair class (the fluid model has no EEVDF) and no
  timing-dependent failure handling (timeout/admission outcomes
  legitimately differ across engines); the IDEAL bound needs a nominal
  run.  ``differential-lazy`` runs a single-host discrete ``cfs`` case
  bare (slices rotate in lazy plans) and checked (an event per slice):
  records and ``events_executed`` must be equal.  (The schedule counter
  differs by design: a plan reserves one rank per rotation where the
  per-slice path schedules an event per slice.)
* **metamorphic** — relations between *pairs* of runs:

  - *idle-hosts*: adding two idle cores never makes any request slower
    (fluid ``cfs`` is egalitarian processor sharing — extra capacity is
    weakly good for everyone).  Exact failure-set equality rides along:
    crash/coldstart draws are pure in ``(seed, req_id, attempt)`` and
    the crash timer is a pure wall-clock delay, so outcomes cannot
    depend on core count when no timeout/admission is armed.
  - *scaling*: scaling every burst and arrival by ``k`` scales every
    turnaround by ``k`` (with context-switch cost pinned to zero the
    fluid model is scale-free up to integer rounding).
  - *drop-fault*: removing one fault-plan component never makes a new
    request fail — the reduced run's failed set is a subset of the
    original's, **exactly** (same purity argument as idle-hosts).
  - *permute*: requests arriving at the same instant are
    interchangeable — swapping their bodies leaves the turnaround
    multiset unchanged.

* **reconstruction** — replay with tracing on and require that every
  request's causal timeline (:mod:`repro.why`) partitions its
  ``[arrival, finish]`` window *exactly* and agrees with its record on
  wait, block and queue time (the ``why-exact-sum`` oracle).  Applies
  to every case, cluster cases included: every machine emits the full
  ``task.*`` lifecycle.

* **cluster** — cases carrying a :class:`ClusterCase` run through the
  fault-tolerant serving tier instead (``cluster-exactly-once``):
  health-checked failover, hedged requests and domain outages must
  still deliver exactly one terminal outcome per request, enforced by
  the invariant checker's accounting closure on the merged records.
  All other oracles but ``why-exact-sum`` gate on
  ``case.cluster is None`` — their properties are stated for a single
  shared machine.

Slack constants for the inexact properties are calibrated by running a
large campaign against the healthy tree: they are as tight as the
calibration allows while keeping the false-positive rate at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.experiments.runner import RunConfig, run_workload
from repro.faults.plan import FaultPlan
from repro.fuzz.generators import FuzzCase
from repro.invariants.checker import InvariantViolation
from repro.invariants.diff import DiffTolerance, diff_engines, diff_oracle
from repro.sim.engine import SimulationError
from repro.sim.task import Burst
from repro.workload.spec import RequestSpec, Workload

#: aggregate engine-diff checks need this many ok requests.  Fuzz cases
#: top out below this, so at fuzz scale only the *exact* laws (status,
#: attempts, service=demand) and the per-request round bound apply: the
#: mean/median tolerances are statistical properties calibrated on
#: 150+ request FaaSBench workloads at load <= 1.0, and the fuzzer
#: deliberately generates regimes far outside that calibration
#: (load 1.6, 48 heavy-tail requests on one core).
_DIFF_MIN_N = 50

#: slack for the inexact metamorphic properties (calibrated: the fluid
#: engine works in integer microseconds, so a handful of rounding
#: boundaries per residence can move a turnaround by a few slices)
_META_REL = 0.02
_META_ABS = 2_000


@dataclass(frozen=True)
class Violation:
    """One oracle finding, with a deterministic human-readable detail."""

    oracle: str
    detail: str

    def render(self) -> str:
        return f"[{self.oracle}] {self.detail}"


@dataclass(frozen=True)
class Oracle:
    """A named property: ``applies`` gates, ``check`` judges."""

    name: str
    applies: Callable[[FuzzCase], bool]
    check: Callable[[FuzzCase], Optional[Violation]]


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------
def _run(case: FuzzCase, **overrides):
    """Execute the case with invariants pinned *off* (the invariant
    oracle owns that axis; here a crash must be attributable to the
    property under test, not the checker)."""
    cfg = replace(case.config, invariants=False, **overrides)
    return run_workload(case.workload, cfg)


def _turnarounds(result) -> Dict[int, int]:
    return {r.req_id: r.turnaround for r in result.records if r.status == "ok"}


def _failed(result) -> Set[int]:
    return {r.req_id for r in result.records if r.status != "ok"}


def _crash_violation(name: str, exc: Exception) -> Violation:
    return Violation(name, f"variant run crashed: {type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# invariant family
# ----------------------------------------------------------------------
def _check_invariant(case: FuzzCase) -> Optional[Violation]:
    cfg = replace(case.config, invariants=True)
    try:
        run_workload(case.workload, cfg)
    except InvariantViolation as exc:
        return Violation("invariant", str(exc))
    except SimulationError as exc:
        return Violation("invariant", f"simulation aborted: {exc}")
    except RuntimeError as exc:
        return Violation("invariant", f"run failed: {exc}")
    return None


# ----------------------------------------------------------------------
# differential family
# ----------------------------------------------------------------------
def _engines_applies(case: FuzzCase) -> bool:
    cfg = case.config
    return (
        case.cluster is None
        and cfg.machine.fair_class == "cfs"
        and cfg.timeout is None
        and cfg.admission is None
    )


def _engine_tolerance(case: FuzzCase) -> DiffTolerance:
    """Contention-aware engine-diff tolerance for this case.

    The documented fluid-model error is "up to one scheduling round per
    residence"; a round with ``depth`` runnable tasks per core costs
    ``depth * (min_granularity + ctx)`` of queue delay in the discrete
    engine while fluid processor sharing starts everyone immediately.
    A short request under heavy contention therefore diverges by whole
    rounds — tiny in absolute terms per competing task, unbounded as a
    *ratio* of its own microsecond-scale turnaround.  The absolute
    allowance scales with the case's worst-case queue depth (4 rounds:
    I/O-interleaved requests re-queue once per residence).
    """
    cfg = case.config
    depth = -(-len(case.workload) // cfg.machine.n_cores)  # ceil
    round_us = cfg.machine.cfs.min_granularity + cfg.machine.ctx_switch_cost
    return DiffTolerance(
        per_request_abs=1_000 + 4 * depth * round_us,
        aggregate_min_n=_DIFF_MIN_N,
    )


def _check_engines(case: FuzzCase) -> Optional[Violation]:
    cfg = replace(case.config, invariants=False)
    tol = _engine_tolerance(case)
    try:
        report = diff_engines(case.workload, cfg, tol=tol)
    except (SimulationError, RuntimeError) as exc:
        return _crash_violation("differential-engines", exc)
    if report.ok:
        return None
    return Violation("differential-engines",
                     "; ".join(report.divergences[:3]))


def _lazy_applies(case: FuzzCase) -> bool:
    cfg = case.config
    return (case.cluster is None and cfg.engine == "discrete"
            and cfg.machine.fair_class == "cfs")


def _check_lazy(case: FuzzCase) -> Optional[Violation]:
    runs = []
    for checked in (False, True):
        try:
            runs.append(run_workload(case.workload, replace(
                case.config, invariants=checked)))
        except (InvariantViolation, SimulationError, RuntimeError) as exc:
            return _crash_violation("differential-lazy", exc)
    bare, checked = runs
    for a, b in zip(bare.records, checked.records):
        if a != b:
            return Violation("differential-lazy",
                             f"request {a.req_id}: bare {a}, checked {b}")
    a, b = bare.manifest.events_executed, checked.manifest.events_executed
    if a != b:
        return Violation("differential-lazy",
                         f"events executed: bare {a}, checked {b}")
    return None


def _ideal_applies(case: FuzzCase) -> bool:
    return case.cluster is None and not case.config.fault_handling


def _check_ideal(case: FuzzCase) -> Optional[Violation]:
    cfg = replace(case.config, invariants=False)
    try:
        report = diff_oracle(case.workload, cfg)
    except (SimulationError, RuntimeError) as exc:
        return _crash_violation("differential-ideal", exc)
    if report.ok:
        return None
    return Violation("differential-ideal",
                     "; ".join(report.divergences[:3]))


# ----------------------------------------------------------------------
# metamorphic family
# ----------------------------------------------------------------------
def _fluid_cfs(case: FuzzCase) -> bool:
    return (case.cluster is None and case.config.engine == "fluid"
            and case.config.scheduler == "cfs")


def _idle_hosts_applies(case: FuzzCase) -> bool:
    # timeout/admission outcomes legitimately depend on timing, which
    # depends on capacity — the monotonicity claim would be false
    return (_fluid_cfs(case) and case.config.timeout is None
            and case.config.admission is None)


def _check_idle_hosts(case: FuzzCase) -> Optional[Violation]:
    name = "metamorphic-idle-hosts"
    wider = replace(case.config.machine,
                    n_cores=case.config.machine.n_cores + 2)
    try:
        base = _run(case)
        more = _run(case, machine=wider)
    except (SimulationError, RuntimeError) as exc:
        return _crash_violation(name, exc)
    if _failed(base) != _failed(more):
        gained = sorted(_failed(more) - _failed(base))
        lost = sorted(_failed(base) - _failed(more))
        return Violation(
            name,
            f"failure set changed with +2 idle cores: "
            f"new failures {gained[:5]}, vanished failures {lost[:5]} "
            f"(fault draws are pure in (seed, req_id, attempt), so "
            f"capacity cannot change outcomes)",
        )
    t_base, t_more = _turnarounds(base), _turnarounds(more)
    for req_id in sorted(t_base):
        a, b = t_base[req_id], t_more.get(req_id)
        if b is None:
            continue
        if b > a * (1 + _META_REL) + _META_ABS:
            return Violation(
                name,
                f"req {req_id}: turnaround grew from {a}us to {b}us "
                f"after adding 2 idle cores",
            )
    return None


def _scaling_applies(case: FuzzCase) -> bool:
    return _fluid_cfs(case) and not case.config.fault_handling


def _scaled_workload(workload: Workload, k: int) -> Workload:
    requests = [
        replace(
            spec,
            arrival=spec.arrival * k,
            bursts=tuple(Burst(b.kind, b.duration * k) for b in spec.bursts),
        )
        for spec in workload
    ]
    return Workload(requests, dict(workload.meta))


def _check_scaling(case: FuzzCase) -> Optional[Violation]:
    name = "metamorphic-scaling"
    k = 2
    # pin context-switch cost to zero: it is a fixed per-round price
    # that does not scale with the workload, so only the ctx-free
    # fluid model is scale-free
    ctx_free = replace(case.config.machine, ctx_switch_cost=0)
    scaled = case.with_workload(_scaled_workload(case.workload, k))
    try:
        base = _run(case, machine=ctx_free)
        big = _run(scaled, machine=ctx_free)
    except (SimulationError, RuntimeError) as exc:
        return _crash_violation(name, exc)
    t_base, t_big = _turnarounds(base), _turnarounds(big)
    if set(t_base) != set(t_big):
        return Violation(name, "request outcomes changed under uniform "
                               f"x{k} duration scaling")
    for req_id in sorted(t_base):
        want = k * t_base[req_id]
        got = t_big[req_id]
        if abs(got - want) > _META_ABS + _META_REL * want:
            return Violation(
                name,
                f"req {req_id}: turnaround {t_base[req_id]}us scaled to "
                f"{got}us, expected ~{want}us under uniform x{k} scaling",
            )
    return None


def _drop_fault_applies(case: FuzzCase) -> bool:
    return (case.cluster is None
            and case.config.faults is not None
            and case.config.timeout is None
            and case.config.admission is None)


def _reduced_plans(plan: FaultPlan) -> List[Tuple[str, FaultPlan]]:
    """One reduced plan per removable component."""
    out: List[Tuple[str, FaultPlan]] = []
    if plan.crash_prob > 0:
        out.append(("crash_prob", replace(plan, crash_prob=0.0)))
    if plan.coldstart_fail_prob > 0:
        out.append(("coldstart_fail_prob",
                    replace(plan, coldstart_fail_prob=0.0)))
    if plan.stragglers:
        out.append(("stragglers", replace(plan, stragglers=())))
    return out


def _check_drop_fault(case: FuzzCase) -> Optional[Violation]:
    name = "metamorphic-drop-fault"
    try:
        base = _run(case)
    except (SimulationError, RuntimeError) as exc:
        return _crash_violation(name, exc)
    base_failed = _failed(base)
    for component, reduced in _reduced_plans(case.config.faults):
        faults = None if reduced.is_null else reduced
        try:
            less = _run(case, faults=faults)
        except (SimulationError, RuntimeError) as exc:
            return _crash_violation(name, exc)
        gained = _failed(less) - base_failed
        if gained:
            return Violation(
                name,
                f"removing {component} created new failures "
                f"{sorted(gained)[:5]} (failure draws are pure per "
                f"(seed, req_id, attempt); removing a fault source can "
                f"only shrink the failed set)",
            )
    return None


def _tie_groups(workload: Workload) -> List[List[RequestSpec]]:
    groups: Dict[int, List[RequestSpec]] = {}
    for spec in workload:
        groups.setdefault(spec.arrival, []).append(spec)
    return [g for g in groups.values() if len(g) >= 2]


def _permute_applies(case: FuzzCase) -> bool:
    return (_fluid_cfs(case) and not case.config.fault_handling
            and bool(_tie_groups(case.workload)))


def _permuted_workload(workload: Workload) -> Workload:
    """Within every equal-arrival group, reverse which request gets
    which body (bursts/name/app).  req_ids and arrivals stay put."""
    swap: Dict[int, RequestSpec] = {}
    for group in _tie_groups(workload):
        for spec, donor in zip(group, reversed(group)):
            swap[spec.req_id] = replace(
                spec, bursts=donor.bursts, name=donor.name, app=donor.app
            )
    requests = [swap.get(spec.req_id, spec) for spec in workload]
    return Workload(requests, dict(workload.meta))


def _check_permute(case: FuzzCase) -> Optional[Violation]:
    name = "metamorphic-permute"
    permuted = case.with_workload(_permuted_workload(case.workload))
    try:
        base = _run(case)
        other = _run(permuted)
    except (SimulationError, RuntimeError) as exc:
        return _crash_violation(name, exc)
    t_base = sorted(_turnarounds(base).values())
    t_other = sorted(_turnarounds(other).values())
    if len(t_base) != len(t_other):
        return Violation(name, "request count changed under equal-time "
                               "arrival permutation")
    for i, (a, b) in enumerate(zip(t_base, t_other)):
        if abs(a - b) > _META_ABS + _META_REL * max(a, b):
            return Violation(
                name,
                f"sorted turnaround #{i} differs: {a}us vs {b}us after "
                f"permuting bodies among equal-time arrivals",
            )
    return None


def _check_why_exact_sum(case: FuzzCase) -> Optional[Violation]:
    """Replay with tracing on; every request's causal timeline must
    partition ``[arrival, finish]`` exactly, and every ok,
    single-attempt, un-hedged request's timeline must agree with its
    record (:func:`repro.why.disagreement`: wait, block and queue
    time).

    Applies to *every* case: every machine emits the full ``task.*``
    lifecycle.  A cluster case replays through the serving tier, whose
    failover, hedge and ``host_lost`` segments must partition the
    window too.  A gap, an overlap, a sum mismatch or a disagreement
    means either an engine dropped/duplicated a lifecycle event (or
    mis-stated a stay's CPU credit) or the reconstruction mislabelled
    one — both bugs.
    """
    from repro.trace import TraceRecorder
    from repro.why import build_timelines, disagreement

    name = "why-exact-sum"
    trace = TraceRecorder()
    cfg = replace(case.config, invariants=False)
    try:
        if case.cluster is not None:
            result = run_cluster_case(case, invariants=False, trace=trace)
        else:
            result = run_workload(case.workload, cfg, trace=trace)
    except (SimulationError, RuntimeError) as exc:
        return _crash_violation(name, exc)
    timelines = build_timelines(result.records, trace)
    for rec in result.records:
        tl = timelines[rec.req_id]
        if not tl.exact:
            return Violation(
                name,
                f"request {tl.req_id} ({tl.status}, {tl.attempts} "
                f"attempts): segments sum to {tl.total}us but end-to-end "
                f"is {tl.end_to_end}us — the timeline must partition "
                f"[arrival, finish] exactly",
            )
        off = disagreement(tl, rec)
        if off:
            return Violation(name, f"request {tl.req_id}: {off}")
    return None


# ----------------------------------------------------------------------
# cluster family
# ----------------------------------------------------------------------
def run_cluster_case(case: FuzzCase, invariants: bool = True, trace=None):
    """Replay a cluster case through the resilient serving tier.

    The single-machine config supplies the per-host deployment (machine,
    engine, fault plan, policies); the :class:`ClusterCase` supplies the
    shape.  Failover is always on — it is the subsystem under test —
    and hedging follows the case's draw.  ``trace`` records the run.
    """
    from repro.faas.cluster import ClusterConfig, run_cluster
    from repro.faas.openlambda import OpenLambdaConfig
    from repro.faas.resilience import HedgePolicy, ResilienceConfig

    cfg = case.config
    cl = case.cluster
    host = OpenLambdaConfig(
        machine=cfg.machine,
        scheduler=cl.scheduler,
        engine=cfg.engine,
        faults=cfg.faults,
        retry=cfg.retry,
        admission=cfg.admission,
        timeout=cfg.timeout,
    )
    resilience = ResilienceConfig(
        hedge=HedgePolicy(delay=20_000) if cl.hedge else None,
    )
    return run_cluster(
        case.workload,
        ClusterConfig(n_hosts=cl.n_hosts, host=host,
                      placement="least_loaded", resilience=resilience),
        trace=trace, invariants=invariants,
    )


def _check_cluster_exactly_once(case: FuzzCase) -> Optional[Violation]:
    """Exactly one terminal outcome per request, under failover,
    hedging, domain outages and retry — the accounting closure inside
    :func:`repro.faas.cluster.run_cluster` (invariants forced on) plus
    the fault-closure counter cross-checks."""
    name = "cluster-exactly-once"
    try:
        run_cluster_case(case, invariants=True)
    except InvariantViolation as exc:
        return Violation(name, str(exc))
    except SimulationError as exc:
        return Violation(name, f"simulation aborted: {exc}")
    except RuntimeError as exc:
        return Violation(name, f"run failed: {exc}")
    return None


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
ORACLES: Tuple[Oracle, ...] = (
    Oracle("invariant", lambda case: case.cluster is None, _check_invariant),
    Oracle("differential-engines", _engines_applies, _check_engines),
    Oracle("differential-lazy", _lazy_applies, _check_lazy),
    Oracle("differential-ideal", _ideal_applies, _check_ideal),
    Oracle("metamorphic-idle-hosts", _idle_hosts_applies, _check_idle_hosts),
    Oracle("metamorphic-scaling", _scaling_applies, _check_scaling),
    Oracle("metamorphic-drop-fault", _drop_fault_applies, _check_drop_fault),
    Oracle("metamorphic-permute", _permute_applies, _check_permute),
    Oracle("why-exact-sum", lambda case: True, _check_why_exact_sum),
    Oracle("cluster-exactly-once", lambda case: case.cluster is not None,
           _check_cluster_exactly_once),
)

ORACLE_BY_NAME: Dict[str, Oracle] = {o.name: o for o in ORACLES}


def applicable_oracles(case: FuzzCase) -> Tuple[Oracle, ...]:
    """The oracles whose gates accept this case, in registry order."""
    return tuple(o for o in ORACLES if o.applies(case))

