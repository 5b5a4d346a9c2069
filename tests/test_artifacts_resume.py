"""Crash-safe artifacts and resumable sweeps (repro.experiments.artifacts).

The acceptance bar: kill a sweep mid-flight, rerun with resume, and the
final artifact directory is byte-identical to an uninterrupted run.
Sweeps run through :func:`repro.pool.run_pool` against an
:class:`ArtifactStore`; the ones here run inline (``workers=0``), as
``repro experiment --out`` does by default.
"""

import json
import os
import time

import pytest

from repro.experiments.artifacts import (
    SCHEMA,
    ArtifactStore,
    ExperimentTimeout,
    atomic_write_text,
    config_digest,
    deadline,
    watchdog,
)
from repro.pool import PoolConfig, run_pool


def _cfg_for(exp_id):
    return {"exp_id": exp_id, "seed": 7}


_IDS = ("fig2", "fig7", "fig9")


def _produce(calls=None):
    """An inline work function that logs which items it ran."""
    def produce(exp_id):
        if calls is not None:
            calls.append(exp_id)
        return f"artifact body for {exp_id}\n" * 3
    return produce


def _sweep(store, fn, ids=_IDS, **kw):
    kw.setdefault("config_for", _cfg_for)
    return run_pool([(exp_id, exp_id) for exp_id in ids], fn,
                    PoolConfig(workers=0), store=store, **kw)


def _tree_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


# ----------------------------------------------------------------------
# atomic writes + manifests
# ----------------------------------------------------------------------
def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "a.txt")
    atomic_write_text(path, "hello")
    atomic_write_text(path, "world")  # overwrite is atomic too
    assert open(path).read() == "world"
    assert os.listdir(tmp_path) == ["a.txt"]


def test_store_roundtrip_and_verify(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.write("fig2", "data\n", _cfg_for("fig2"))
    assert store.read("fig2") == "data\n"
    assert store.verify("fig2", _cfg_for("fig2"))
    manifest = json.load(open(store.manifest_path("fig2")))
    assert manifest["schema"] == SCHEMA
    assert manifest["config_digest"] == config_digest(_cfg_for("fig2"))


def test_manifest_is_deterministic(tmp_path):
    """No timestamps, no host state: writing the same artifact twice
    (even seconds apart) yields byte-identical files."""
    a, b = ArtifactStore(str(tmp_path / "a")), ArtifactStore(str(tmp_path / "b"))
    a.write("fig2", "data\n", _cfg_for("fig2"))
    time.sleep(0.05)
    b.write("fig2", "data\n", _cfg_for("fig2"))
    assert _tree_bytes(a.root) == _tree_bytes(b.root)


@pytest.mark.parametrize("tamper", ["truncate", "corrupt", "missing_artifact",
                                    "bad_manifest", "stale_config"])
def test_verify_rejects_untrustworthy_artifacts(tmp_path, tamper):
    store = ArtifactStore(str(tmp_path))
    store.write("fig2", "data line\n" * 10, _cfg_for("fig2"))
    cfg = _cfg_for("fig2")
    if tamper == "truncate":
        open(store.artifact_path("fig2"), "w").write("data line\n")
    elif tamper == "corrupt":
        text = open(store.artifact_path("fig2")).read()
        open(store.artifact_path("fig2"), "w").write(text.replace("data", "dXta"))
    elif tamper == "missing_artifact":
        os.unlink(store.artifact_path("fig2"))
    elif tamper == "bad_manifest":
        open(store.manifest_path("fig2"), "w").write("{not json")
    elif tamper == "stale_config":
        cfg = {"exp_id": "fig2", "seed": 8}  # different sweep parameters
    assert not store.verify("fig2", cfg)


def test_verify_missing_everything(tmp_path):
    assert not ArtifactStore(str(tmp_path)).verify("nope", {"x": 1})


# ----------------------------------------------------------------------
# the watchdog
# ----------------------------------------------------------------------
def test_watchdog_fires_on_hang():
    with pytest.raises(ExperimentTimeout):
        with watchdog(0.05):
            time.sleep(5)


def test_watchdog_disarmed_after_block():
    with watchdog(0.05):
        pass
    time.sleep(0.1)  # a stale alarm would fire here and kill the test


def test_watchdog_disabled():
    with watchdog(None):
        time.sleep(0.01)
    with watchdog(0):
        time.sleep(0.01)


# ----------------------------------------------------------------------
# the portable deadline (thread-timer; no SIGALRM)
# ----------------------------------------------------------------------
def _busy_wait(seconds):
    """Spin in bytecode so an async exception can be delivered."""
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass


def test_deadline_fires_on_hang():
    with pytest.raises(ExperimentTimeout):
        with deadline(0.05):
            _busy_wait(30)


def test_deadline_disarmed_after_block():
    with deadline(0.05):
        pass
    _busy_wait(0.1)  # a stale timer would raise here and kill the test


def test_deadline_disabled():
    with deadline(None):
        pass
    with deadline(0):
        pass


def test_deadline_works_off_main_thread():
    """The whole point of the portable path: SIGALRM cannot be armed
    outside the main thread, the thread-timer deadline can."""
    import threading

    outcome = {}

    def work():
        try:
            with deadline(0.05):
                _busy_wait(30)
            outcome["status"] = "no-timeout"
        except ExperimentTimeout:
            outcome["status"] = "timeout"

    t = threading.Thread(target=work)
    t.start()
    t.join(timeout=20)
    assert not t.is_alive()
    assert outcome["status"] == "timeout"


def test_watchdog_delegates_off_main_thread():
    """watchdog() run from a worker thread silently takes the portable
    path instead of dying on signal.setitimer."""
    import threading

    outcome = {}

    def work():
        try:
            with watchdog(0.05):
                _busy_wait(30)
            outcome["status"] = "no-timeout"
        except ExperimentTimeout:
            outcome["status"] = "timeout"

    t = threading.Thread(target=work)
    t.start()
    t.join(timeout=20)
    assert not t.is_alive()
    assert outcome["status"] == "timeout"


# ----------------------------------------------------------------------
# sweeps: continue-on-error, resume (the pool's inline path)
# ----------------------------------------------------------------------
def test_sweep_continues_past_failures(tmp_path):
    store = ArtifactStore(str(tmp_path))

    def produce(exp_id):
        if exp_id == "bad":
            raise RuntimeError("shard exploded")
        return f"{exp_id}\n"

    report = _sweep(store, produce, ids=("good", "bad", "tail"))
    assert [o.status for o in report.outcomes] == ["ok", "quarantined", "ok"]
    assert "exploded" in report.quarantined[0].errors[-1]
    assert store.verify("tail", _cfg_for("tail"))
    assert not store.verify("bad", _cfg_for("bad"))
    assert os.path.exists(os.path.join(store.root, "quarantine.json"))


def test_resume_after_midsweep_kill_is_byte_identical(tmp_path):
    """Simulate a kill between shard 1 and shard 2 — including the
    nastiest crash window, a written artifact with no manifest yet —
    then resume and compare against an uninterrupted sweep."""
    clean_store = ArtifactStore(str(tmp_path / "clean"))
    _sweep(clean_store, _produce())

    crashed = ArtifactStore(str(tmp_path / "crashed"))
    # shard 1 completed before the kill
    crashed.write("fig2", "artifact body for fig2\n" * 3, _cfg_for("fig2"))
    # shard 2 died inside write(): artifact renamed, manifest not yet
    atomic_write_text(crashed.artifact_path("fig7"),
                      "artifact body for fig7\n" * 3)
    # shard 3 never started

    calls = []
    report = _sweep(crashed, _produce(calls), resume=True)
    assert [o.status for o in report.outcomes] == ["skipped", "ok", "ok"]
    assert calls == ["fig7", "fig9"]  # fig2 resumed, not recomputed
    assert _tree_bytes(crashed.root) == _tree_bytes(clean_store.root)


def test_resume_off_recomputes_everything(tmp_path):
    store = ArtifactStore(str(tmp_path))
    _sweep(store, _produce())
    calls = []
    report = _sweep(store, _produce(calls), resume=False)
    assert [o.status for o in report.outcomes] == ["ok"] * 3
    assert calls == list(_IDS)


def test_sweep_progress_messages(tmp_path):
    store = ArtifactStore(str(tmp_path))
    msgs = []
    _sweep(store, _produce(), progress=msgs.append)
    assert msgs == [f"{exp_id}: ok (inline)" for exp_id in _IDS]
    msgs.clear()
    _sweep(store, _produce(), resume=True, progress=msgs.append)
    assert msgs == [f"{exp_id}: verified artifact found, skipping"
                    for exp_id in _IDS]
