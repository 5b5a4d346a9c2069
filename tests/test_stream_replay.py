"""Streaming replay, checkpoints, watchdog (repro.stream).

The headline guarantee under test: kill a replay at any checkpoint,
restore, continue — and the final summary is byte-identical to an
uninterrupted run's, for both engines, with SFS enabled.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.machine.base import MachineParams
from repro.sim.units import SEC
from repro.stream import (
    CheckpointError,
    CheckpointStore,
    MemoryBudgetExceeded,
    MemoryWatchdog,
    ReplayConfig,
    StreamReplayDriver,
    StreamSummary,
    rss_kb,
)
from repro.workload.stream import RequestStream, StreamConfig

SMALL = StreamConfig(n_requests=600, n_cores=4, target_load=0.95)


def _driver(seed=7, scfg=SMALL, **kw):
    kw.setdefault("scheduler", "sfs")
    kw.setdefault("machine", MachineParams(n_cores=scfg.n_cores))
    kw.setdefault("checkpoint_every", None)
    aggregator = kw.pop("aggregator", None)
    checkpointer = kw.pop("checkpointer", None)
    watchdog = kw.pop("watchdog", None)
    return StreamReplayDriver(
        RequestStream(scfg, seed=seed), ReplayConfig(**kw),
        aggregator=aggregator, checkpointer=checkpointer, watchdog=watchdog)


# ----------------------------------------------------------------------
# driver basics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["fluid", "discrete"])
@pytest.mark.parametrize("scheduler", ["cfs", "sfs"])
def test_driver_completes_and_conserves_work(engine, scheduler):
    doc = _driver(engine=engine, scheduler=scheduler).run()
    assert doc["requests"] == SMALL.n_requests
    assert doc["ok"] == SMALL.n_requests
    # ctx_switch_cost=0: every us of demand is served exactly once
    assert doc["cpu_time_us"] == doc["cpu_demand_us"]
    assert doc["turnaround_us"]["count"] == SMALL.n_requests


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_driver_is_deterministic(engine):
    a = StreamSummary.to_json(_driver(engine=engine).run())
    b = StreamSummary.to_json(_driver(engine=engine).run())
    assert a == b


def test_summary_schema_and_meta():
    doc = _driver().run()
    assert doc["schema"] == "repro.stream-summary/1"
    assert doc["scheduler"] == "sfs"
    assert doc["meta"]["source"] == "faasbench"
    assert doc["meta"]["seed"] == 7
    assert 0.0 < doc["utilization"] <= 1.0


def test_horizon_truncates_admission():
    full = _driver(seed=3).run()
    horizon = full["sim_time_us"] // 3
    doc = _driver(seed=3, horizon=horizon).run()
    assert doc["requests"] < full["requests"]
    assert doc["meta"]["truncated_at_horizon"] is True
    assert doc["meta"]["horizon_us"] == horizon
    # admitted work still drains completely
    assert doc["cpu_time_us"] == doc["cpu_demand_us"]


def test_replay_config_validation():
    with pytest.raises(ValueError, match="scheduler"):
        ReplayConfig(scheduler="srtf")
    with pytest.raises(ValueError, match="engine"):
        ReplayConfig(engine="warp")
    with pytest.raises(ValueError, match="checkpoint_every"):
        ReplayConfig(checkpoint_every=0)


def test_sfs_buffers_are_bounded():
    d = _driver(seed=5, overhead_window=60 * SEC)
    d.run()
    assert d.sfs is not None
    for q in d.sfs.queues:
        assert q.delay_samples.maxlen is not None
    assert d.sfs.monitor.timeline.maxlen is not None
    assert d.sfs.overload.events.maxlen is not None
    assert d.sfs.overhead.window == 60 * SEC


# ----------------------------------------------------------------------
# checkpoint / resume: the byte-identity contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_checkpoint_resume_byte_identical(tmp_path, engine):
    every = 10 * SEC
    kw = dict(engine=engine, checkpoint_every=every)
    store_a = CheckpointStore(str(tmp_path / "a"))
    ref = StreamSummary.to_json(_driver(checkpointer=store_a, **kw).run())

    store_b = CheckpointStore(str(tmp_path / "b"))
    d = _driver(checkpointer=store_b, **kw)
    d.run(until=35 * SEC)  # mid-run: checkpoints written, work pending
    assert store_b.has_checkpoint()
    assert d.admitted > d.done or not d.cursor.exhausted
    del d  # the killed process

    restored = store_b.load()
    assert restored.resumed_from == store_b.manifest()["virtual_time_us"]
    if engine == "discrete":  # rotation plans were pending at the cut
        assert any(c.plan is not None for c in restored.machine.cores)
    assert restored.sim._parked  # and an SFS poll was parked
    got = StreamSummary.to_json(restored.run())
    assert got == ref


def test_checkpoint_manifest_contents(tmp_path):
    store = CheckpointStore(str(tmp_path))
    d = _driver(checkpointer=store, checkpoint_every=10 * SEC)
    d.run(until=25 * SEC)
    m = store.manifest()
    assert m["schema"] == "repro.stream/12"
    assert m["virtual_time_us"] == 20 * SEC
    assert m["requests_done"] <= d.done
    assert m["config_digest"]
    assert m["bytes"] > 0
    assert d.checkpoints_written == 2


def test_load_missing_checkpoint(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint"):
        CheckpointStore(str(tmp_path)).load()


def _downgrade_manifest(store, schema="repro.stream/1"):
    with open(store.manifest_path) as fh:
        doc = json.load(fh)
    doc["schema"] = schema
    with open(store.manifest_path, "w") as fh:
        json.dump(doc, fh)


def test_load_refuses_older_checkpoint_schema(tmp_path):
    store = CheckpointStore(str(tmp_path))
    _driver(checkpointer=store, checkpoint_every=10 * SEC).run(until=15 * SEC)
    _downgrade_manifest(store)
    assert not store.has_checkpoint()
    with pytest.raises(CheckpointError, match="repro.stream/1"):
        store.load()


def test_load_rejects_corrupt_payload(tmp_path):
    store = CheckpointStore(str(tmp_path))
    d = _driver(checkpointer=store, checkpoint_every=10 * SEC)
    d.run(until=15 * SEC)
    with open(store.checkpoint_path, "r+b") as fh:
        fh.seek(10)
        fh.write(b"\xff\xff\xff")
    with pytest.raises(CheckpointError, match="manifest hash"):
        store.load()


class _Killed(Exception):
    """Stands in for a SIGKILL in the middle of a checkpoint save."""


def test_save_killed_before_its_manifest_keeps_the_last_checkpoint(
        tmp_path, monkeypatch):
    # a save killed after writing its payload but before its manifest
    # leaves the previous payload and manifest, still a matching pair
    import repro.stream.checkpoint as checkpoint_module

    store = CheckpointStore(str(tmp_path))
    d = _driver(checkpointer=store, checkpoint_every=10 * SEC)
    d.run(until=15 * SEC)
    before = store.manifest()

    def killed(*_args):
        raise _Killed

    monkeypatch.setattr(checkpoint_module, "atomic_write_text", killed)
    with pytest.raises(_Killed):
        d.run(until=25 * SEC)
    monkeypatch.undo()
    assert store.manifest() == before
    assert store.load().sim.now == before["virtual_time_us"]


def test_load_rejects_config_mismatch(tmp_path):
    store = CheckpointStore(str(tmp_path))
    d = _driver(checkpointer=store, checkpoint_every=10 * SEC)
    d.run(until=15 * SEC)
    other = _driver(scfg=StreamConfig(n_requests=600, n_cores=8,
                                      target_load=0.95),
                    machine=MachineParams(n_cores=8))
    with pytest.raises(CheckpointError, match="different replay"):
        store.load(expect_config=other.config_dict())
    # the matching config still loads (state as of the last checkpoint)
    restored = store.load(expect_config=d.config_dict())
    assert restored.done == store.manifest()["requests_done"]


def test_task_id_counter_survives_resume(tmp_path):
    import itertools

    import repro.sim.task as task_module

    store = CheckpointStore(str(tmp_path))
    d = _driver(checkpointer=store, checkpoint_every=10 * SEC)
    d.run(until=25 * SEC)
    del d
    # simulate a fresh process: the module counter restarts at zero
    task_module._task_ids = itertools.count()
    restored = store.load()
    restored.run()
    # new tasks spawned after the resume must not collide with
    # checkpointed tids (SFS keys its bookkeeping by tid)
    assert restored.done == SMALL.n_requests


# ----------------------------------------------------------------------
# spill-to-JSONL
# ----------------------------------------------------------------------
def test_spill_records_every_request(tmp_path):
    spill = str(tmp_path / "records.jsonl")
    d = _driver(aggregator=StreamSummary(spill_path=spill))
    doc = d.run()
    rows = [json.loads(line) for line in open(spill)]
    assert len(rows) == doc["requests"] == doc["spill_records"]
    assert rows[0]["req_id"] == 0
    assert {r["status"] for r in rows} == {"ok"}


def test_spill_truncated_on_resume(tmp_path):
    spill_a = str(tmp_path / "a.jsonl")
    store = CheckpointStore(str(tmp_path / "ckpt"))
    da = _driver(aggregator=StreamSummary(spill_path=spill_a),
                 checkpointer=store, checkpoint_every=10 * SEC)
    ref = StreamSummary.to_json(da.run())
    ref_spill = open(spill_a).read()

    spill_b = str(tmp_path / "b.jsonl")
    store_b = CheckpointStore(str(tmp_path / "ckpt_b"))
    db = _driver(aggregator=StreamSummary(spill_path=spill_b),
                 checkpointer=store_b, checkpoint_every=10 * SEC)
    db.run(until=35 * SEC)
    db.aggregator.close()  # rows past the checkpoint are on disk
    over_length = os.path.getsize(spill_b)
    del da, db

    restored = store_b.load()
    assert restored.aggregator.spill_offset <= over_length
    got = StreamSummary.to_json(restored.run())
    assert got == ref
    assert open(spill_b).read() == ref_spill


def test_spill_missing_file_on_resume_fails(tmp_path):
    store = CheckpointStore(str(tmp_path / "ckpt"))
    spill = str(tmp_path / "gone.jsonl")
    d = _driver(aggregator=StreamSummary(spill_path=spill),
                checkpointer=store, checkpoint_every=10 * SEC)
    d.run(until=35 * SEC)
    os.unlink(spill)
    restored = store.load()
    with pytest.raises(FileNotFoundError, match="missing"):
        restored.run()


# ----------------------------------------------------------------------
# memory watchdog
# ----------------------------------------------------------------------
def test_rss_gauge_reports_something():
    assert rss_kb() > 1000  # a Python process is bigger than 1 MiB


def test_watchdog_validation():
    with pytest.raises(ValueError):
        MemoryWatchdog(0)
    with pytest.raises(ValueError):
        MemoryWatchdog(1000, soft_fraction=1.5)


def test_watchdog_soft_trip_tightens_buffers():
    wd = MemoryWatchdog(budget_kb=10**9, soft_fraction=1e-9)
    d = _driver(watchdog=wd, recent=256)
    before = d.aggregator.recent.maxlen
    wd.check(d)
    assert wd.soft_trips == 1
    assert d.aggregator.recent.maxlen < before


def test_watchdog_hard_budget_aborts_replayably(tmp_path):
    store = CheckpointStore(str(tmp_path))
    wd = MemoryWatchdog(budget_kb=1)  # any real process exceeds 1 KiB
    d = _driver(watchdog=wd, checkpointer=store,
                checkpoint_every=10 * SEC)
    with pytest.raises(MemoryBudgetExceeded) as exc:
        d.run()
    report = exc.value.report
    assert report["budget_kb"] == 1
    assert report["checkpoint"] == store.checkpoint_path
    assert report["requests_done"] == d.done
    assert store.has_checkpoint()
    # the forced checkpoint resumes — without the watchdog it finishes
    restored = store.load()
    restored.watchdog = None
    assert restored.run()["requests"] == SMALL.n_requests


def test_watchdog_state_is_picklable():
    wd = MemoryWatchdog(budget_kb=2_000_000)
    wd.sample()
    clone = pickle.loads(pickle.dumps(wd))
    assert clone.peak_kb == wd.peak_kb
    assert clone.budget_kb == wd.budget_kb


# ----------------------------------------------------------------------
# aggregator details
# ----------------------------------------------------------------------
def test_sketch_summary_quantile_keys():
    doc = _driver().run()
    for sketch_key in ("turnaround_us", "end_to_end_us", "wait_us", "rte"):
        sketch = doc[sketch_key]
        assert set(sketch) == {"count", "p50", "p90", "p99", "p99_9"}


def test_tighten_never_changes_the_summary():
    a = _driver(seed=9)
    ref = StreamSummary.to_json(a.run())
    b = _driver(seed=9)
    b.aggregator.tighten()
    b.aggregator.tighten()
    assert StreamSummary.to_json(b.run()) == ref


# ----------------------------------------------------------------------
# differential: streaming replay == materialized run, request by request
# ----------------------------------------------------------------------
DIFF = StreamConfig(n_requests=300, n_cores=4, target_load=1.0,
                    source="faasbench", io_fraction=0.3)


def _stream_rows(driver, doc=None):
    doc = doc if doc is not None else driver.run()
    rows = sorted(driver.aggregator.recent, key=lambda r: r["req_id"])
    assert len(rows) == doc["requests"] == DIFF.n_requests
    return [(r["req_id"], r["dispatch"], r["finish"], r["cpu_time"],
             r["status"]) for r in rows]


def _materialized_rows(seed, scheduler, engine):
    from repro.experiments.runner import RunConfig, run_workload

    res = run_workload(
        RequestStream(DIFF, seed=seed).materialize(),
        RunConfig(scheduler=scheduler, engine=engine,
                  machine=MachineParams(n_cores=DIFF.n_cores)))
    return [(r.req_id, r.dispatch, r.finish, r.cpu_time,
             "ok" if r.ok else "killed")
            for r in sorted(res.records, key=lambda r: r.req_id)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("engine", ["fluid", "discrete"])
@pytest.mark.parametrize("scheduler", ["cfs", "fifo", "rr", "sfs"])
def test_stream_matches_materialized(scheduler, engine, seed):
    d = _driver(seed=seed, scfg=DIFF, scheduler=scheduler, engine=engine,
                recent=DIFF.n_requests)
    assert _stream_rows(d) == _materialized_rows(seed, scheduler, engine)


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_resumed_stream_matches_materialized(tmp_path, engine):
    store = CheckpointStore(str(tmp_path))
    d = _driver(seed=2, scfg=DIFF, engine=engine, recent=DIFF.n_requests,
                checkpointer=store, checkpoint_every=5 * SEC)
    d.run(until=12 * SEC)  # checkpointed mid-run, arrivals still pending
    assert not d.cursor.exhausted
    del d
    restored = store.load()
    assert restored.resumed_from == 10 * SEC
    assert _stream_rows(restored) == _materialized_rows(2, "sfs", engine)
