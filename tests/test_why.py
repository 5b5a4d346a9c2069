"""repro.why: scheduler-decision audit, causal timelines, blame."""

import json

import pytest

from conftest import make_cpu_task, small_workload
from repro.experiments.runner import RunConfig, run_workload
from repro.faults.plan import FaultPlan
from repro.faults.policy import AdmissionControl, RetryPolicy
from repro.machine.base import MachineParams
from repro.machine.discrete import DiscreteMachine
from repro.machine.fluid import FluidMachine
from repro.sim.engine import Simulator
from repro.sim.task import Burst, BurstKind, SchedPolicy
from repro.sim.units import MS, SEC
from repro.trace import TraceRecorder
from repro.trace import events as tev
from repro.why import (
    NULL_AUDIT,
    AuditLog,
    NullAudit,
    blame_diff,
    blame_flame,
    blame_totals,
    build_timelines,
    build_why_doc,
    disagreement,
    latency_by_class,
    render_flamegraph,
    why_json,
)
from repro.why import audit as aud


def run_traced(workload, scheduler="cfs", engine="discrete", n_cores=2,
               machine=None, **kw):
    trace = TraceRecorder()
    audit = AuditLog()
    cfg = RunConfig(
        scheduler=scheduler, engine=engine,
        machine=machine or MachineParams(n_cores=n_cores), **kw,
    )
    res = run_workload(workload, cfg, trace=trace, audit=audit)
    return res, trace, audit


# ----------------------------------------------------------------------
# the audit stream
# ----------------------------------------------------------------------
def test_null_audit_is_inert():
    assert NULL_AUDIT.enabled is False
    assert len(NULL_AUDIT) == 0
    NULL_AUDIT.record(0, aud.OP_PICK, "cfs:0", chosen=1)
    assert len(NULL_AUDIT) == 0  # no-op, nothing retained


def test_audit_log_records_and_indexes():
    log = AuditLog()
    assert log.enabled is True
    log.record(10, aud.OP_SLICE, "cfs:0", displaced=7, reason="slice")
    log.record(20, aud.OP_PICK, "cfs:0", chosen=8)
    log.record(20, aud.OP_KILL, "faults", displaced=7, reason="crash")
    assert len(log) == 3
    assert log.op_counts() == {"slice": 1, "pick": 1, "kill": 1}
    assert [r.chosen for r in log.by_op(aud.OP_PICK)] == [8]
    idx = log.by_displaced()
    assert idx[(7, 10)].reason == "slice"
    assert idx[(7, 20)].op == aud.OP_KILL


def test_default_simulator_uses_null_audit():
    sim = Simulator()
    assert sim.audit is NULL_AUDIT
    m = DiscreteMachine(sim, MachineParams(n_cores=1))
    m.spawn(make_cpu_task(5 * MS))
    sim.run()
    assert len(NULL_AUDIT) == 0


@pytest.mark.parametrize("fair_class", ["cfs", "eevdf"])
def test_fair_runqueue_pick_audited(fair_class):
    """CFS and EEVDF picks name the per-core fair-class actor."""
    audit = AuditLog()
    sim = Simulator(audit=audit)
    m = DiscreteMachine(sim, MachineParams(n_cores=1,
                                           fair_class=fair_class))
    a, b = make_cpu_task(20 * MS), make_cpu_task(20 * MS)
    m.spawn(a)
    m.spawn(b)
    sim.run()
    picks = audit.by_op(aud.OP_PICK)
    assert picks, "no pick decisions recorded"
    assert {r.actor for r in picks} == {f"{fair_class}:0"}
    assert {r.chosen for r in picks} <= {a.tid, b.tid}


def test_rt_runqueue_pick_and_preempt_audited():
    audit = AuditLog()
    sim = Simulator(audit=audit)
    m = DiscreteMachine(sim, MachineParams(n_cores=1))
    victim = make_cpu_task(50 * MS)
    m.spawn(victim)
    rt = make_cpu_task(10 * MS, policy=SchedPolicy.FIFO, rt_priority=5)
    sim.schedule(5 * MS, m.spawn, rt)
    sim.run()
    preempts = audit.by_op(aud.OP_PREEMPT)
    assert any(r.actor == "rt" and r.chosen == rt.tid
               and r.displaced == victim.tid
               and r.reason == tev.DESCHED_PREEMPT for r in preempts)
    assert any(r.actor == "rt" and r.chosen == rt.tid
               for r in audit.by_op(aud.OP_PICK))


# ----------------------------------------------------------------------
# task.deschedule "why" payloads across all four runqueues, with the
# audit stream agreeing on (tid, ts, reason)
# ----------------------------------------------------------------------
def _desched_reasons(trace, tid):
    return [e.args[0] for e in trace.events
            if e.kind == tev.TASK_DESCHEDULE and e.tid == tid]


@pytest.mark.parametrize("fair_class", ["cfs", "eevdf"])
def test_desched_slice_payload_fair(fair_class):
    trace = TraceRecorder()
    audit = AuditLog()
    sim = Simulator(trace=trace, audit=audit)
    m = DiscreteMachine(sim, MachineParams(n_cores=1,
                                           fair_class=fair_class))
    a, b = make_cpu_task(40 * MS), make_cpu_task(40 * MS)
    m.spawn(a)
    m.spawn(b)
    sim.run()
    reasons = set(_desched_reasons(trace, a.tid) +
                  _desched_reasons(trace, b.tid))
    assert tev.DESCHED_SLICE in reasons
    slices = audit.by_op(aud.OP_SLICE)
    assert slices and all(r.actor == f"{fair_class}:0" for r in slices)
    # every audited slice decision pairs with a deschedule at that ts
    desched = {(e.tid, e.ts) for e in trace.events
               if e.kind == tev.TASK_DESCHEDULE
               and e.args[0] == tev.DESCHED_SLICE}
    assert all((r.displaced, r.ts) in desched for r in slices)


def test_desched_quantum_payload_rr():
    trace = TraceRecorder()
    audit = AuditLog()
    sim = Simulator(trace=trace, audit=audit)
    m = DiscreteMachine(sim, MachineParams(n_cores=1))
    a = make_cpu_task(300 * MS, policy=SchedPolicy.RR, rt_priority=3)
    b = make_cpu_task(300 * MS, policy=SchedPolicy.RR, rt_priority=3)
    m.spawn(a)
    m.spawn(b)
    sim.run()
    assert tev.DESCHED_QUANTUM in _desched_reasons(trace, a.tid)
    quanta = audit.by_op(aud.OP_QUANTUM)
    assert quanta and all(r.actor == "rt"
                          and r.reason == tev.DESCHED_QUANTUM
                          for r in quanta)


def test_desched_throttle_payload_rt_bandwidth():
    trace = TraceRecorder()
    audit = AuditLog()
    sim = Simulator(trace=trace, audit=audit)
    m = DiscreteMachine(sim, MachineParams(
        n_cores=1, rt_bandwidth=(950 * MS, 1 * SEC)))
    hog = make_cpu_task(2 * SEC, policy=SchedPolicy.FIFO, rt_priority=9)
    m.spawn(hog)
    sim.run()
    assert tev.DESCHED_THROTTLE in _desched_reasons(trace, hog.tid)
    throttles = audit.by_op(aud.OP_THROTTLE)
    assert throttles
    assert all(r.actor == "rt" and r.displaced == hog.tid
               and r.reason == tev.DESCHED_THROTTLE for r in throttles)


def test_sfs_filter_demotion_audited():
    """SFS FILTER slice-demotion: the sfs-worker actor owns the call."""
    wl = small_workload(n_requests=80, n_cores=2, load=1.2, seed=9)
    res, trace, audit = run_traced(
        wl, scheduler="sfs", engine="discrete", n_cores=2)
    demotes = audit.by_op(aud.OP_DEMOTE)
    assert demotes, "workload produced no FILTER demotions"
    assert all(r.actor.startswith("sfs-worker:") for r in demotes)
    assert {r.reason for r in demotes} <= {"slice", "io"}
    promotes = audit.by_op(aud.OP_PROMOTE)
    assert promotes and all(r.actor.startswith("sfs-worker:")
                            for r in promotes)
    # demoted tasks were re-classed off the core by the kernel
    reclasses = audit.by_op(aud.OP_RECLASS)
    assert all(r.actor == "kernel" for r in reclasses)
    desched = {(e.tid, e.ts) for e in trace.events
               if e.kind == tev.TASK_DESCHEDULE
               and e.args[0] == tev.DESCHED_RECLASS}
    assert any((r.displaced, r.ts) in desched for r in reclasses)


@pytest.mark.parametrize("engine_cls", [FluidMachine, DiscreteMachine])
def test_fault_kill_audited(engine_cls):
    trace = TraceRecorder()
    audit = AuditLog()
    sim = Simulator(trace=trace, audit=audit)
    m = engine_cls(sim, MachineParams(n_cores=1))
    task = make_cpu_task(50 * MS)
    m.spawn(task)
    sim.schedule(10 * MS, m.kill, task, "crash")
    sim.run()
    kills = audit.by_op(aud.OP_KILL)
    assert len(kills) == 1
    (k,) = kills
    assert k.actor == "faults" and k.displaced == task.tid
    assert k.reason == "crash" and k.ts == 10 * MS
    assert any(e.kind == tev.TASK_FINISH and e.tid == task.tid
               for e in trace.events)
    # the kill took the task off its CPU: the deschedule says so
    offs = [e for e in trace.events
            if e.kind == tev.TASK_DESCHEDULE and e.tid == task.tid]
    assert [(e.ts, e.args[0]) for e in offs] == [(10 * MS, tev.DESCHED_KILL)]


def test_audit_does_not_change_results():
    """Auditing is read-only: identical records with and without it."""
    wl = small_workload(n_requests=60, n_cores=2, seed=4)
    cfg = RunConfig(scheduler="sfs", engine="discrete",
                    machine=MachineParams(n_cores=2))
    plain = run_workload(wl, cfg)
    audited = run_workload(wl, cfg, audit=AuditLog())
    key = lambda r: (r.req_id, r.finish, r.cpu_time, r.status, r.attempts)
    assert [key(r) for r in plain.records] == \
           [key(r) for r in audited.records]


# ----------------------------------------------------------------------
# causal timelines: the exact-sum partition
# ----------------------------------------------------------------------
SCHEDULERS = ("cfs", "fifo", "rr", "sfs", "srtf", "ideal")


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_timelines_exact_nominal(scheduler, engine):
    wl = small_workload(n_requests=60, n_cores=2, load=1.1, seed=2)
    res, trace, audit = run_traced(wl, scheduler=scheduler, engine=engine)
    tls = build_timelines(res.records, trace, audit=audit)
    assert len(tls) == len(res.records)
    for tl in tls.values():
        assert tl.exact, (
            f"req {tl.req_id}: sum {tl.total} != e2e {tl.end_to_end}")


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_timelines_agree_with_records(scheduler, engine):
    """The agreement law: wait, block and queue segments equal the
    records' wait_time, io_demand and dispatch - arrival."""
    wl = small_workload(n_requests=80, n_cores=2, load=1.2, seed=3,
                        io_fraction=0.3)
    res, trace, audit = run_traced(
        wl, scheduler=scheduler, engine=engine,
        machine=MachineParams(n_cores=2, ctx_switch_cost=500))
    tls = build_timelines(res.records, trace, audit=audit)
    for rec in res.records:
        tl = tls[rec.req_id]
        assert tl.exact, f"req {rec.req_id}: not a partition"
        assert disagreement(tl, rec) == "", f"req {rec.req_id}"
    waited = sum(r.wait_time for r in res.records)
    if scheduler == "ideal":
        assert waited == 0
    elif scheduler != "srtf":
        assert waited > 0, "no contention: the law was not exercised"


def test_latency_by_class_partitions_end_to_end():
    wl = small_workload(n_requests=80, n_cores=2, load=1.2, seed=3,
                        io_fraction=0.3)
    res, trace, _ = run_traced(wl, scheduler="sfs", engine="fluid")
    classes = latency_by_class(build_timelines(res.records, trace),
                               res.records)
    assert list(classes) == ["short", "long", "all"]
    assert classes["short"]["n"] + classes["long"]["n"] == \
        classes["all"]["n"] == 80
    for row in classes.values():
        assert sum(row["by_kind"].values()) == row["end_to_end_us"]
    all_kinds = classes["all"]["by_kind"]
    assert all_kinds["wait"] == sum(r.wait_time for r in res.records)
    assert all_kinds["block"] == sum(r.io_demand for r in res.records)


def test_fluid_pool_stay_splits_into_run_then_share():
    """Two equal tasks share one core: each stay is half run, half wait."""
    from repro.workload.spec import RequestSpec, Workload

    burst = (Burst(BurstKind.CPU, 10 * MS),)
    wl = Workload([RequestSpec(i, 0, burst) for i in range(2)], {})
    res, trace, _ = run_traced(wl, scheduler="cfs", engine="fluid",
                               n_cores=1)
    offs = [e.args for e in trace.events if e.kind == tev.TASK_DESCHEDULE]
    assert offs == [(tev.DESCHED_BURST_END, 10 * MS)] * 2
    tls = build_timelines(res.records, trace)
    for rec in res.records:
        assert [(s.kind, s.dur, s.reason) for s in tls[rec.req_id].segments] \
            == [("run", 10 * MS, ""), ("wait", 10 * MS, "share")]
        assert rec.wait_time == 10 * MS


def test_why_exact_sum_flags_an_unsplit_pool_stay(monkeypatch):
    """Seeded defect: drop the pool stay's CPU credit from the trace, so
    the share is folded into run again; the oracle must flag it."""
    from repro.fuzz.generators import FuzzCase
    from repro.fuzz.oracles import ORACLE_BY_NAME
    from repro.obs import probe

    wl = small_workload(n_requests=40, n_cores=2, load=1.2, seed=3)
    case = FuzzCase(0, 0, wl, RunConfig(
        scheduler="cfs", engine="fluid", machine=MachineParams(n_cores=2)))
    oracle = ORACLE_BY_NAME["why-exact-sum"]
    assert oracle.check(case) is None
    monkeypatch.setattr(probe, "_off", lambda reason, served: (reason,))
    found = oracle.check(case)
    assert found is not None and found.oracle == "why-exact-sum"
    assert "wait segments sum to" in found.detail


def test_why_exact_sum_clean_on_every_corpus_case():
    from pathlib import Path

    from repro.fuzz import ReproCase
    from repro.fuzz.oracles import ORACLE_BY_NAME

    oracle = ORACLE_BY_NAME["why-exact-sum"]
    paths = sorted((Path(__file__).parent / "corpus").glob("*.json"))
    assert paths
    for path in paths:
        case = ReproCase.load(path).as_fuzz_case()
        assert oracle.applies(case), path.name
        assert oracle.check(case) is None, path.name


def test_traced_oracle_runs_match_bare_runs():
    """SRTF/IDEAL report their lifecycle without changing the run."""
    wl = small_workload(n_requests=60, n_cores=2, load=1.2, seed=4,
                        io_fraction=0.3)
    key = lambda r: (r.req_id, r.dispatch, r.finish, r.cpu_time,
                     r.wait_time, r.ctx_involuntary)
    for scheduler in ("srtf", "ideal"):
        cfg = RunConfig(scheduler=scheduler, engine="discrete",
                        machine=MachineParams(n_cores=2))
        plain = run_workload(wl, cfg)
        traced, _, _ = run_traced(wl, scheduler=scheduler)
        assert [key(r) for r in plain.records] == \
               [key(r) for r in traced.records], scheduler


def test_timelines_exact_eevdf():
    wl = small_workload(n_requests=60, n_cores=2, load=1.1, seed=2)
    res, trace, audit = run_traced(
        wl, scheduler="sfs",
        machine=MachineParams(n_cores=2, fair_class="eevdf"))
    assert all(tl.exact
               for tl in build_timelines(res.records, trace,
                                         audit=audit).values())


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_timelines_exact_under_faults(engine):
    wl = small_workload(n_requests=100, n_cores=2, seed=6)
    res, trace, audit = run_traced(
        wl, scheduler="sfs", engine=engine,
        faults=FaultPlan(seed=5, crash_prob=0.2, coldstart_fail_prob=0.15),
        retry=RetryPolicy(max_attempts=3),
        admission=AdmissionControl(max_outstanding=20),
        timeout=1_500_000,
    )
    tls = build_timelines(res.records, trace, audit=audit)
    statuses = {r.status for r in res.records}
    assert len(statuses) > 1, "fault plan produced no interesting mix"
    for tl in tls.values():
        assert tl.exact, (
            f"req {tl.req_id} ({tl.status}, {tl.attempts} tries): "
            f"sum {tl.total} != e2e {tl.end_to_end}")
    # retried requests decompose into more than one attempt's segments
    retried = [tl for tl in tls.values() if tl.attempts > 1]
    if retried:
        assert any(s.kind in ("retry", "coldstart")
                   for tl in retried for s in tl.segments)
    # shed requests are pure queue time
    shed = [tl for tl in tls.values() if tl.status == "shed"]
    for tl in shed:
        assert all(s.kind == "queue" for s in tl.segments)


def test_wait_segments_carry_audited_decision_maker():
    wl = small_workload(n_requests=80, n_cores=2, load=1.3, seed=7)
    res, trace, audit = run_traced(wl, scheduler="cfs", engine="discrete")
    tls = build_timelines(res.records, trace, audit=audit)
    actors = {s.actor for tl in tls.values() for s in tl.segments
              if s.kind == "wait" and s.actor}
    assert any(a.startswith("cfs:") for a in actors), (
        f"no fair-class decision-maker on any wait segment: {actors}")
    # without the audit log the same timelines build, just untagged
    bare = build_timelines(res.records, trace)
    assert all(s.actor == "" for tl in bare.values()
               for s in tl.segments)
    assert all(tl.exact for tl in bare.values())


def test_blamed_time_is_non_run_non_block():
    wl = small_workload(n_requests=60, n_cores=2, load=1.4, seed=8)
    res, trace, _ = run_traced(wl, scheduler="cfs", engine="discrete")
    tls = build_timelines(res.records, trace)
    for tl in tls.values():
        productive = sum(s.dur for s in tl.segments
                        if s.kind in ("run", "block"))
        assert tl.blamed_us == tl.end_to_end - productive


# ----------------------------------------------------------------------
# the repro.why/1 document
# ----------------------------------------------------------------------
def _doc_for(seed=3, scheduler="sfs"):
    wl = small_workload(n_requests=70, n_cores=2, load=1.2, seed=seed)
    res, trace, audit = run_traced(wl, scheduler=scheduler,
                                   engine="discrete")
    return build_why_doc(build_timelines(res.records, trace, audit=audit))


def test_why_doc_shape_and_schema():
    doc = _doc_for()
    assert doc["schema"] == "repro.why/1"
    assert doc["totals"]["requests"] == 70
    assert len(doc["requests"]) == 10  # default top_blamed
    assert doc["top_blamed"] == [int(k) for k in sorted(
        doc["requests"], key=lambda k: (
            -doc["requests"][k]["blamed_us"], int(k)))]
    for r in doc["requests"].values():
        assert r["exact"] is True
        assert sum(s["dur"] for s in r["segments"]) == r["end_to_end_us"]


def test_why_doc_has_no_raw_tids():
    text = why_json(_doc_for())
    assert '"tid"' not in text


def test_why_json_byte_deterministic_across_runs():
    a, b = why_json(_doc_for()), why_json(_doc_for())
    assert a == b


def test_flame_tree_values_sum():
    doc = _doc_for()
    flame = doc["flame"]

    def check(node):
        kids = node.get("children", [])
        if kids:
            assert node["value"] == sum(k["value"] for k in kids)
            for k in kids:
                check(k)

    check(flame)
    assert flame["value"] == doc["totals"]["blamed_us"]


def test_totals_consistency():
    doc = _doc_for()
    t = doc["totals"]
    assert sum(t["by_kind"].values()) == t["blamed_us"]
    assert sum(t["by_reason"].values()) == t["blamed_us"]
    assert sum(t["by_actor"].values()) <= t["blamed_us"]


def test_flamegraph_html_self_contained():
    html = render_flamegraph(_doc_for()["flame"], title="t<est>")
    assert html.startswith("<!DOCTYPE html>")
    assert "t&lt;est&gt;" in html
    # no external references of any kind
    assert ("ht" "tp://") not in html and ("ht" "tps://") not in html
    assert "<script" not in html
    h1, h2 = render_flamegraph(_doc_for()["flame"]), \
        render_flamegraph(_doc_for()["flame"])
    assert h1 == h2


def test_blame_diff_aligns_requests():
    a, b = _doc_for(scheduler="cfs"), _doc_for(scheduler="sfs")
    rows = blame_diff(a, b)
    assert rows
    both = [r for r in rows if r["delta_us"] is not None]
    for r in both:
        assert r["delta_us"] == r["b_blamed_us"] - r["a_blamed_us"]
    # rows sorted by the larger side's blame, descending
    keys = [-max(r["a_blamed_us"] or 0, r["b_blamed_us"] or 0)
            for r in rows]
    assert keys == sorted(keys)


def test_bundle_embeds_why_section():
    from repro.experiments.runner import run_bundled

    wl = small_workload(n_requests=50, n_cores=2, seed=5)
    cfg = RunConfig(scheduler="sfs", engine="discrete",
                    machine=MachineParams(n_cores=2))
    res, bundle = run_bundled(wl, cfg)
    why = bundle.why
    assert why is not None and why["schema"] == "repro.why/1"
    # round-trips through JSON byte-identically
    text = bundle.to_json()
    assert json.loads(text)["why"] == why
