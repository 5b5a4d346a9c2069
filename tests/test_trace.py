"""Trace layer: determinism, span well-formedness, exporters, provenance.

Everything here drives real workloads through ``run_workload`` with a
:class:`repro.trace.TraceRecorder` attached and checks that the event
stream is (a) a deterministic function of the seed, (b) structurally
sound (every on-CPU span opens and closes, every request completes),
(c) renders to valid Chrome trace-event JSON / JSONL, and (d) agrees
exactly with the ``SFSStats`` counters the rest of the suite trusts.
"""

import json
from collections import Counter

import pytest

from repro.experiments.runner import RunConfig, run_workload
from repro.machine.base import MachineParams
from repro.trace import (
    NULL_RECORDER,
    TraceRecorder,
    to_chrome,
    to_jsonl_lines,
    write_trace,
)
from repro.trace import events as tev
from repro.workload.faasbench import FaaSBench, FaaSBenchConfig

ENGINES = ("discrete", "fluid")


def make_workload(n=150, cores=4, load=1.1, io_fraction=0.3, seed=11):
    cfg = FaaSBenchConfig(
        n_requests=n, n_cores=cores, target_load=load, io_fraction=io_fraction
    )
    return FaaSBench(cfg, seed=seed).generate()


def traced_run(engine="discrete", scheduler="sfs", seed=11, **wl_kw):
    wl = make_workload(seed=seed, **wl_kw)
    rec = TraceRecorder()
    cfg = RunConfig(
        scheduler=scheduler, engine=engine, machine=MachineParams(n_cores=4)
    )
    res = run_workload(wl, cfg, trace=rec)
    return rec, res


def traced_cluster_run(n=60, seed=11):
    """Two SFS hosts with keep-alive caches and a retry budget: the
    host-labelled OpenLambda gauges plus the resilience gauges.  The
    keep-alive is short because the sampler ticks until the last
    cached container expires."""
    from repro.faas.cluster import ClusterConfig, run_cluster
    from repro.faas.coldstart import ColdStartConfig
    from repro.faas.openlambda import OpenLambdaConfig
    from repro.faas.resilience import ResilienceConfig, RetryBudget

    rec = TraceRecorder()
    host = OpenLambdaConfig(machine=MachineParams(n_cores=2),
                            scheduler="sfs",
                            coldstart=ColdStartConfig(keep_alive=200_000))
    res = run_cluster(
        make_workload(n=n, seed=seed),
        ClusterConfig(n_hosts=2, host=host, resilience=ResilienceConfig(
            retry_budget=RetryBudget())),
        trace=rec)
    return rec, res


# ======================================================================
# determinism
# ======================================================================
@pytest.mark.parametrize("engine", ENGINES)
def test_same_seed_identical_event_stream(engine):
    rec_a, _ = traced_run(engine=engine, seed=5)
    rec_b, _ = traced_run(engine=engine, seed=5)
    # tids differ between runs (global counter), so compare shape:
    # timestamps, kinds, cores and payloads must match pairwise.
    assert len(rec_a.events) == len(rec_b.events)
    for ea, eb in zip(rec_a.events, rec_b.events):
        assert (ea.ts, ea.kind, ea.core, ea.args) == (
            eb.ts, eb.kind, eb.core, eb.args
        )


@pytest.mark.parametrize("engine", ENGINES)
def test_tracing_does_not_change_results(engine):
    """The recorder observes; it must never perturb the simulation."""
    wl = make_workload(seed=9)
    cfg = RunConfig(
        scheduler="sfs", engine=engine, machine=MachineParams(n_cores=4)
    )
    plain = run_workload(wl, cfg)
    traced = run_workload(make_workload(seed=9), cfg, trace=TraceRecorder())
    assert [r.turnaround for r in plain.records] == [
        r.turnaround for r in traced.records
    ]
    # the trailing gauge sample may round sim_time up to its own tick,
    # but never by more than one sampling interval
    drift = traced.sim_time - plain.sim_time
    assert 0 <= drift <= TraceRecorder().gauge_interval


def test_stream_is_time_ordered():
    rec, _ = traced_run()
    ts = [e.ts for e in rec.events]
    assert ts == sorted(ts)


# ======================================================================
# span well-formedness
# ======================================================================
@pytest.mark.parametrize("engine", ENGINES)
def test_core_spans_nest_properly(engine):
    """Per core: run/deschedule strictly alternate for the same task."""
    rec, _ = traced_run(engine=engine)
    on_core = {}
    for e in rec.events:
        if e.kind == tev.TASK_RUN and e.core >= 0:
            assert e.core not in on_core, f"core {e.core} double-occupied"
            on_core[e.core] = e.tid
        elif e.kind == tev.TASK_DESCHEDULE and e.core >= 0:
            assert on_core.pop(e.core, None) == e.tid
    assert not on_core, f"unclosed on-CPU spans: {on_core}"


@pytest.mark.parametrize("engine", ENGINES)
def test_every_request_has_complete_lifecycle(engine):
    rec, res = traced_run(engine=engine)
    spawned = {e.tid for e in rec.events if e.kind == tev.TASK_SPAWN}
    finished = {e.tid for e in rec.events if e.kind == tev.TASK_FINISH}
    assert spawned == finished
    assert len(spawned) == len(res.records)
    # each finished request was on CPU (or in the pool) at least once
    ran = {e.tid for e in rec.events if e.kind == tev.TASK_RUN}
    assert spawned <= ran


def test_run_deschedule_counts_balance():
    rec, _ = traced_run()
    counts = rec.kind_counts()
    assert counts[tev.TASK_RUN] == counts[tev.TASK_DESCHEDULE]


@pytest.mark.parametrize("engine", ENGINES)
def test_filter_worker_spans_single_occupancy(engine):
    """A FILTER worker shepherds exactly one function at a time."""
    rec, _ = traced_run(engine=engine)
    busy = {}
    for e in rec.events:
        if e.kind == tev.SFS_PROMOTE:
            assert e.core not in busy, f"worker {e.core} double-assigned"
            busy[e.core] = e.tid
        elif e.kind in tev.WORKER_SPAN_CLOSERS:
            assert busy.pop(e.core, None) == e.tid
    # sfs.filter_finish fires at task-exit time, so a drained run closes all
    assert not busy


# ======================================================================
# SFSStats reconciliation (acceptance criterion)
# ======================================================================
@pytest.mark.parametrize("engine", ENGINES)
def test_counters_reconcile_with_sfs_stats(engine):
    rec, res = traced_run(engine=engine, load=1.4, io_fraction=0.4)
    st = res.sfs_stats
    st.check_invariants()
    c = rec.kind_counts()
    assert c.get(tev.SFS_SUBMIT, 0) == st.submitted
    assert c.get(tev.SFS_RESUBMIT, 0) == st.resubmitted
    assert c.get(tev.SFS_PROMOTE, 0) == st.promoted
    assert c.get(tev.SFS_FILTER_FINISH, 0) == st.completed_in_filter
    assert c.get(tev.SFS_DEMOTE_SLICE, 0) == st.demoted_slice
    assert c.get(tev.SFS_DEMOTE_IO, 0) == st.demoted_io
    assert c.get(tev.SFS_OVERLOAD, 0) == st.bypassed_overload
    assert c.get(tev.SFS_SKIP_FINISHED, 0) == st.skipped_finished
    assert c.get(tev.SFS_WATCH_AT_POP, 0) == st.watched_at_pop
    assert c.get(tev.SFS_WATCH_FINISH, 0) == st.finished_while_watched
    exhausted = sum(
        1 for e in rec.by_kind(tev.SFS_DEMOTE_IO) if e.args[0] == 0
    )
    assert exhausted == st.demoted_io_exhausted
    # every queue entry has exactly one outcome, in the stream too
    entries = c.get(tev.SFS_SUBMIT, 0) + c.get(tev.SFS_RESUBMIT, 0)
    outcomes = (
        c.get(tev.SFS_PROMOTE, 0)
        + c.get(tev.SFS_OVERLOAD, 0)
        + c.get(tev.SFS_SKIP_FINISHED, 0)
        + c.get(tev.SFS_WATCH_AT_POP, 0)
    )
    assert entries == outcomes


# ======================================================================
# Chrome exporter
# ======================================================================
@pytest.mark.parametrize("source", [*ENGINES, "cluster"])
def test_chrome_schema_valid(source):
    rec, res = (traced_cluster_run() if source == "cluster"
                else traced_run(engine=source))
    doc = to_chrome(rec, res.manifest)
    # round-trips through JSON
    doc = json.loads(json.dumps(doc))
    assert doc["displayTimeUnit"] == "ms"
    assert doc["metadata"]["runManifest"]["schema"] == "repro.trace/1"
    phases = Counter()
    for e in doc["traceEvents"]:
        assert isinstance(e["ph"], str) and e["ph"]
        assert isinstance(e["pid"], int)
        if e["ph"] != "M":
            assert isinstance(e["ts"], int)
        if e["ph"] == "X":
            assert e["dur"] >= 0
        if e["ph"] in ("b", "e", "n"):
            assert "id" in e
        phases[e["ph"]] += 1
    # complete slices, async request spans, counters, metadata all present
    for ph in ("X", "b", "e", "C", "M"):
        assert phases[ph] > 0, f"no {ph!r} events emitted"
    # async begin/end pair up
    assert phases["b"] == phases["e"]
    # every gauge sample of every kind (and every slice update) is one
    # counter sample: no gauge kind goes without a track
    counts = rec.kind_counts()
    assert phases["C"] == counts.get(tev.SFS_SLICE, 0) + sum(
        n for kind, n in counts.items() if kind.startswith("gauge."))
    if source == "cluster":  # host-labelled kinds: one track per host
        tracks = {e["name"] for e in doc["traceEvents"] if e["ph"] == "C"}
        assert tracks == {"outstanding.host0", "outstanding.host1",
                          "keepalive.host0", "keepalive.host1",
                          "unhealthy_hosts", "retry_tokens"}


def test_chrome_per_core_tracks_and_request_spans():
    rec, res = traced_run(engine="discrete")
    doc = to_chrome(rec, res.manifest)
    evs = doc["traceEvents"]
    core_tracks = {
        e["tid"] for e in evs if e.get("pid") == 1 and e["ph"] == "X"
    }
    assert core_tracks == set(range(4))
    request_begins = {
        e["id"] for e in evs if e.get("cat") == "request" and e["ph"] == "b"
    }
    request_ends = {
        e["id"] for e in evs if e.get("cat") == "request" and e["ph"] == "e"
    }
    assert request_begins == request_ends
    assert len(request_begins) == len(res.records)
    thread_names = [
        e for e in evs if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    labelled = {e["args"]["name"] for e in thread_names}
    assert {f"core {i}" for i in range(4)} <= labelled
    assert any(name.startswith("worker") for name in labelled)


def test_chrome_no_truncated_spans_on_drained_run():
    rec, res = traced_run()
    doc = to_chrome(rec, res.manifest)
    for e in doc["traceEvents"]:
        if e["ph"] == "X":
            assert e["args"].get("reason") != "truncated"
            assert e["args"].get("outcome") != "truncated"


# ======================================================================
# JSONL exporter + write_trace
# ======================================================================
@pytest.mark.parametrize("run", [traced_run, traced_cluster_run],
                         ids=["workload", "cluster"])
def test_jsonl_lines_manifest_first(run):
    rec, res = run(n=60)
    lines = list(to_jsonl_lines(rec, res.manifest))
    head = json.loads(lines.pop(0))
    assert head["type"] == "manifest"
    assert head["scheduler"] == res.scheduler
    assert head["seed"] == 11
    if run is traced_cluster_run:  # cores summed over the two hosts
        assert head["scheduler"] == "cluster[least_loaded]+sfs"
        assert head["n_cores"] == 4
        assert head["config"]["n_hosts"] == 2
    else:
        assert head["scheduler"] == "sfs"
    assert len(lines) == len(rec.events) == len(rec)
    assert sum(rec.kind_counts().values()) == len(rec)
    kinds = Counter()
    for line in lines:
        rec_obj = json.loads(line)
        assert rec_obj["type"] == "event"
        assert "ts" in rec_obj and "kind" in rec_obj
        kinds[rec_obj["kind"]] += 1
    assert dict(kinds) == rec.kind_counts()
    assert any(kind.startswith("gauge.") for kind in kinds)
    if run is traced_cluster_run:
        hosts = {json.loads(line).get("core", -1) for line in lines
                 if f'"kind":"{tev.GAUGE_KEEPALIVE}"' in line}
        assert hosts == {0, 1}
        for kind in (tev.GAUGE_OUTSTANDING, tev.GAUGE_UNHEALTHY,
                     tev.GAUGE_RETRY_TOKENS):
            assert kinds[kind] > 0


def test_write_trace_dispatches_on_extension(tmp_path):
    rec, res = traced_run(n=40)
    chrome = tmp_path / "t.json"
    jsonl = tmp_path / "t.jsonl"
    write_trace(str(chrome), rec, res.manifest)
    write_trace(str(jsonl), rec, res.manifest)
    doc = json.loads(chrome.read_text())
    assert "traceEvents" in doc
    first = json.loads(jsonl.read_text().splitlines()[0])
    assert first["type"] == "manifest"
    with pytest.raises(ValueError):
        write_trace(str(chrome), rec, res.manifest, fmt="xml")


# ======================================================================
# manifest / provenance
# ======================================================================
def test_manifest_attached_and_populated():
    rec, res = traced_run(n=50, seed=23)
    m = res.manifest
    assert m is not None
    assert m.schema == "repro.trace/1"
    assert m.scheduler == "sfs"
    assert m.engine == "discrete"
    assert m.seed == 23
    assert m.n_requests == 50
    assert m.n_cores == 4
    assert m.sim_time_us > 0
    assert m.wall_time_s >= 0
    assert m.trace_enabled
    assert m.trace_events == len(rec)
    # fully JSON-safe
    json.dumps(m.to_dict())


def test_manifest_present_without_tracing():
    wl = make_workload(n=30)
    res = run_workload(wl, RunConfig(machine=MachineParams(n_cores=4)))
    assert res.manifest is not None
    assert not res.manifest.trace_enabled
    assert res.manifest.trace_events == 0


# ======================================================================
# recorder mechanics
# ======================================================================
def test_null_recorder_is_inert():
    assert not NULL_RECORDER.enabled
    assert len(NULL_RECORDER) == 0
    assert NULL_RECORDER.emit(0, tev.TASK_RUN, 1, 2) is None
    assert len(NULL_RECORDER) == 0


def test_recorder_helpers():
    rec = TraceRecorder()
    rec.emit(0, tev.TASK_RUN, tid=7, core=1)
    rec.emit(5, tev.TASK_DESCHEDULE, tid=7, core=1,
             args=(tev.DESCHED_BURST_END,))
    rec.emit(5, tev.TASK_RUN, tid=8, core=1)
    assert len(rec) == 3
    assert rec.kind_counts()[tev.TASK_RUN] == 2
    assert [e.ts for e in rec.by_tid(7)] == [0, 5]
    assert [e.tid for e in rec.by_kind(tev.TASK_RUN)] == [7, 8]


def test_event_to_dict_names_payload_slots():
    e = tev.TraceEvent(10, tev.SFS_PROMOTE, tid=3, core=1, args=(500, 20))
    d = e.to_dict()
    assert d == {
        "ts": 10, "kind": "sfs.promote", "tid": 3, "core": 1,
        "slice": 500, "delay": 20,
    }


# ======================================================================
# CLI integration
# ======================================================================
def test_cli_run_with_trace_flag(tmp_path):
    from repro.cli import main

    out = tmp_path / "cli.json"
    rc = main([
        "run", "--scheduler", "sfs", "--requests", "60", "--cores", "2",
        "--trace", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["runManifest"]["scheduler"] == "sfs"
    assert any(e.get("ph") == "X" for e in doc["traceEvents"])


def test_cli_trace_subcommand(tmp_path):
    from repro.cli import main

    out = tmp_path / "cli.jsonl"
    rc = main([
        "trace", str(out), "--requests", "50", "--cores", "2", "--summary",
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["type"] == "manifest"
    assert all(json.loads(ln)["type"] == "event" for ln in lines[1:])
