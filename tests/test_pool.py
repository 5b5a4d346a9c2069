"""repro.pool: the fault-tolerant parallel execution supervisor.

The acceptance bar, mirroring the artifact-store tests one level up:
kill workers (or the supervisor itself) mid-campaign, and the final
merged artifacts are byte-identical to an undisturbed single-process
run — worker count, retries, and crashes never leak into results.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.artifacts import ArtifactStore
from repro.obs import MetricsRegistry
from repro.pool import (
    PoolConfig,
    PoolError,
    load_quarantine,
    replay_quarantine,
    resolve_task,
    run_pool,
    task_name,
)
from repro.pool.tasks import demo_item

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _items(n, **extra):
    return [(f"item{i}", {"name": f"item{i}", **extra}) for i in range(n)]


def _expected(n):
    return [f"item{i}: " + hashlib.sha256(f"item{i}".encode())
            .hexdigest()[:16] + "\n" for i in range(n)]


def _tree_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


# ----------------------------------------------------------------------
# determinism: results are index-ordered and worker-count-independent
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [0, 1, 4])
def test_results_identical_across_worker_counts(workers):
    report = run_pool(_items(6), demo_item, PoolConfig(workers=workers))
    assert report.results == _expected(6)
    assert report.n_ok == 6
    assert [o.status for o in report.outcomes] == ["ok"] * 6
    assert report.complete


def test_store_tree_byte_identical_across_worker_counts(tmp_path):
    trees = {}
    for workers in (0, 1, 4):
        store = ArtifactStore(str(tmp_path / f"w{workers}"))
        report = run_pool(
            _items(6), demo_item, PoolConfig(workers=workers),
            store=store, merge_id="merged")
        assert report.merged_id == "merged"
        trees[workers] = _tree_bytes(store.root)
    assert len(trees[0]) == 14  # 6 items + merged, each with a manifest
    assert trees[0] == trees[1] == trees[4]


def test_duplicate_item_ids_rejected():
    with pytest.raises(PoolError, match="duplicate item id"):
        run_pool([("a", {}), ("a", {})], demo_item, PoolConfig(workers=0))


# ----------------------------------------------------------------------
# worker death: killed once -> retried -> ok; killed always -> quarantine
# ----------------------------------------------------------------------
def test_worker_killed_mid_item_is_retried_then_ok():
    registry = MetricsRegistry()
    report = run_pool(
        _items(5), demo_item,
        PoolConfig(workers=2, chaos_kill="item2"),
        metrics=registry)
    assert report.results == _expected(5)
    assert report.n_retried >= 1
    assert report.complete
    by_name = {i.name: i for i in registry}
    assert by_name["repro_pool_items_ok_total"].value == 5
    assert by_name["repro_pool_items_retried_total"].value >= 1
    assert by_name["repro_pool_items_quarantined_total"].value == 0


def _die_holding_result_lock(payload):
    """Work function whose first call dies the way a worker SIGKILLed in
    the middle of reporting does: holding the inter-process write lock
    of every queue it reports on (its task queue aside)."""
    marker, name = payload
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        frame = sys._getframe()
        while frame.f_code.co_name != "worker_main":
            frame = frame.f_back
        task_q = frame.f_locals["task_q"]
        for obj in frame.f_locals.values():
            lock = getattr(obj, "_wlock", None)
            if lock is not None and obj is not task_q:
                lock.acquire()
        os.kill(os.getpid(), signal.SIGKILL)
    return demo_item({"name": name})


def test_worker_killed_mid_write_does_not_wedge_the_others(tmp_path):
    # a worker killed while it holds a result channel's write lock may
    # tear only its own channel: the other workers' results and
    # heartbeats keep arriving, so nothing stalls or gets quarantined
    marker = str(tmp_path / "died")
    items = [(f"item{i}", (marker if i == 0 else None, f"item{i}"))
             for i in range(4)]
    report = run_pool(
        items, _die_holding_result_lock,
        PoolConfig(workers=2, max_retries=2, heartbeat_interval=0.05,
                   heartbeat_grace=1.0))
    assert os.path.exists(marker)
    assert report.complete
    assert report.results == _expected(4)
    assert "worker died" in report.outcomes[0].errors[0]


def test_torn_result_pipe_is_closed_not_read_forever():
    # a worker killed mid-write leaves a cut-off message and no writer:
    # the supervisor closes that pipe (the liveness pass then respawns
    # the slot) instead of blocking on the rest of the message
    import multiprocessing as mp
    import struct

    from repro.pool.supervisor import _receive, _Slot

    whole, cut = _Slot(), _Slot()
    whole.results, w1 = mp.Pipe(duplex=False)
    cut.results, w2 = mp.Pipe(duplex=False)
    w1.send(("hb", 0, None, 0.0))
    os.write(w2.fileno(), struct.pack("!i", 100) + b"partial")
    w2.close()
    assert _receive([whole, cut]) == [("hb", 0, None, 0.0)]
    assert whole.results is not None and cut.results is None
    w1.close()
    whole.results.close()


def test_worker_killed_every_attempt_is_quarantined(tmp_path):
    q_path = str(tmp_path / "q.json")
    items = _items(3) + [("killer", {"name": "killer", "die": True})]
    report = run_pool(
        items, demo_item,
        PoolConfig(workers=2, max_retries=1),
        quarantine_path=q_path)
    assert not report.complete
    assert [o.item_id for o in report.quarantined] == ["killer"]
    assert report.quarantined[0].attempts == 2  # 1 + max_retries
    assert all(
        "worker died" in e for e in report.quarantined[0].errors)
    # the healthy items still completed despite the repeated kills
    assert report.results[:3] == _expected(3)
    assert report.results[3] is None
    assert report.quarantine_path == q_path


# ----------------------------------------------------------------------
# quarantine: poison isolated, report replayable, merged withheld
# ----------------------------------------------------------------------
def test_poison_item_quarantined_and_replayable(tmp_path):
    store = ArtifactStore(str(tmp_path))
    items = _items(3) + [("bad", {"name": "bad", "fail": True})]
    report = run_pool(
        items, demo_item, PoolConfig(workers=2, max_retries=2),
        store=store, merge_id="merged")
    assert [o.item_id for o in report.quarantined] == ["bad"]
    assert report.quarantined[0].attempts == 3
    assert report.merged_id is None  # incomplete sweeps never merge
    q_path = os.path.join(store.root, "quarantine.json")
    assert report.quarantine_path == q_path

    doc = load_quarantine(q_path)
    assert doc["task"] == "repro.pool.tasks:demo_item"
    assert doc["items"][0]["replayable"]

    # the replay reproduces the recorded failure deterministically
    results = replay_quarantine(q_path)
    assert results == [("bad", False, "RuntimeError: poisoned item bad")]
    # twice: same bytes in, same verdict out
    assert replay_quarantine(q_path) == results


def test_quarantine_cleared_once_cured(tmp_path):
    store = ArtifactStore(str(tmp_path))
    run_pool(_items(2) + [("bad", {"name": "bad", "fail": True})],
             demo_item, PoolConfig(workers=0, max_retries=0), store=store)
    q_path = os.path.join(store.root, "quarantine.json")
    assert os.path.exists(q_path)
    # same ids, poison removed (e.g. the underlying bug was fixed)
    report = run_pool(_items(2) + [("bad", {"name": "bad"})], demo_item,
                      PoolConfig(workers=0), store=store, resume=True)
    assert report.complete
    assert not os.path.exists(q_path)


def test_task_name_roundtrip():
    assert task_name(demo_item) == "repro.pool.tasks:demo_item"
    assert resolve_task("repro.pool.tasks:demo_item") is demo_item
    with pytest.raises(ValueError, match="malformed task name"):
        resolve_task("no-colon")


# ----------------------------------------------------------------------
# deadlines: a hung item times out instead of wedging the pool
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [0, 2])
def test_hung_item_times_out_and_quarantines(tmp_path, workers):
    # hung first: the items queued behind a timed-out one still run
    items = [("hung", {"name": "hung", "hang_s": 30.0})] + _items(2)
    t0 = time.monotonic()
    report = run_pool(
        items, demo_item,
        PoolConfig(workers=workers, max_retries=0, item_seconds=0.3),
        quarantine_path=str(tmp_path / "q.json"))
    assert time.monotonic() - t0 < 20
    assert [o.item_id for o in report.quarantined] == ["hung"]
    assert any("timeout" in e for e in report.quarantined[0].errors)
    assert report.results[1:] == _expected(2)


# ----------------------------------------------------------------------
# resume: skip verified artifacts; survive a SIGKILLed supervisor
# ----------------------------------------------------------------------
def test_resume_skips_verified_items(tmp_path):
    store = ArtifactStore(str(tmp_path))
    run_pool(_items(4), demo_item, PoolConfig(workers=0), store=store,
             merge_id="merged")
    report = run_pool(_items(4), demo_item, PoolConfig(workers=0),
                      store=store, resume=True, merge_id="merged")
    assert report.n_skipped == 4
    assert report.n_ok == 0
    assert report.results == _expected(4)  # skipped items still reduce


_DRIVER = """\
import sys
sys.path.insert(0, {src!r})
from repro.experiments.artifacts import ArtifactStore
from repro.pool import PoolConfig, run_pool
from repro.pool.tasks import demo_item

items = [(f"item{{i}}", {{"name": f"item{{i}}", "sleep_s": 0.3}})
         for i in range(8)]
run_pool(items, demo_item, PoolConfig(workers=2), store=ArtifactStore(sys.argv[1]),
         resume="--resume" in sys.argv, merge_id="merged")
"""


def test_supervisor_sigkill_then_resume_is_byte_identical(tmp_path):
    """SIGKILL the whole supervisor process mid-campaign, resume, and
    compare the store against an undisturbed run — same sha256s."""
    driver = tmp_path / "driver.py"
    driver.write_text(_DRIVER.format(src=REPO_SRC))

    clean = tmp_path / "clean"
    subprocess.run([sys.executable, str(driver), str(clean)], check=True,
                   timeout=120)

    crashed = tmp_path / "crashed"
    proc = subprocess.Popen([sys.executable, str(driver), str(crashed)])
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done = (len([f for f in os.listdir(crashed)
                         if f.endswith(".manifest.json")])
                    if crashed.is_dir() else 0)
            if done >= 2:
                break
            if proc.poll() is not None:
                pytest.fail("driver finished before it could be killed")
            time.sleep(0.02)
        else:
            pytest.fail("driver never produced two artifacts")
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(timeout=30)

    n_before = len([f for f in os.listdir(crashed)
                    if f.endswith(".manifest.json")])
    assert n_before < 9  # merged never happened; the kill landed mid-run

    subprocess.run([sys.executable, str(driver), str(crashed), "--resume"],
                   check=True, timeout=120)
    assert _tree_bytes(crashed) == _tree_bytes(clean)


# ----------------------------------------------------------------------
# experiment + fuzz integration (tiny configs)
# ----------------------------------------------------------------------
def _tiny_shard_configs():
    """name -> (module, small config, the render's first words)"""
    from repro.experiments import chaos, ext_resilience, replay_stream

    return {
        "chaos": (chaos, chaos.Config(n_requests=240, n_hosts=2,
                                      cores_per_host=4), "chaos:"),
        "ext_resilience": (ext_resilience, ext_resilience.Config(
            n_requests=150, host_counts=(4,), cores_per_host=4),
            "resilience scorecard"),
        "replay_stream": (replay_stream, replay_stream.Config(
            n_requests=300, n_cores=2), "streaming replay grid"),
    }


@pytest.mark.parametrize("name", ["chaos", "ext_resilience",
                                  "replay_stream"])
def test_shards_render_byte_identical_to_serial(name):
    """Each shardable experiment: its cells, run one by one and merged
    by ``render_shards``, render the bytes of one ``run`` + ``render``."""
    module, cfg, heading = _tiny_shard_configs()[name]
    serial = module.render(module.run(cfg, seed=0))
    texts = [module.run_shard(p) for _, p in module.shards(cfg, seed=0)]
    assert module.render_shards(texts, cfg) == serial
    assert serial.startswith(heading)


def test_cli_experiment_tree_identical_at_every_worker_count(
        tmp_path, monkeypatch, capsys):
    """``repro experiment chaos --out`` writes the same files, byte for
    byte, inline (``--workers 0``) and on a worker process: the cell
    artifacts, the merged artifact and every manifest."""
    from repro.cli import main
    from repro.experiments import chaos

    _, tiny, _ = _tiny_shard_configs()["chaos"]
    monkeypatch.setattr(chaos.Config, "scaled", classmethod(lambda cls: tiny))
    trees = {}
    for workers in (0, 1):
        out = tmp_path / f"w{workers}"
        assert main(["experiment", "chaos", "--out", str(out),
                     "--workers", str(workers)]) == 0
        trees[workers] = _tree_bytes(out)
    assert len(trees[0]) == 14  # 6 cells + merged, each with a manifest
    assert "chaos.txt" in trees[0]
    assert trees[0] == trees[1]


def test_cli_chaos_kill_needs_a_worker(tmp_path, capsys):
    from repro.cli import main

    assert main(["experiment", "chaos", "--out", str(tmp_path),
                 "--chaos-kill", "chaos.crash.sfs"]) == 2
    assert "--chaos-kill" in capsys.readouterr().err


def test_cli_chaos_kill_needs_an_out_sweep(capsys):
    """Without --out no pool runs, so there is no worker to kill."""
    from repro.cli import main

    assert main(["experiment", "table1", "--workers", "1",
                 "--chaos-kill", "table1"]) == 2
    captured = capsys.readouterr()
    assert "--out" in captured.err
    assert "===" not in captured.out  # nothing ran


def test_cli_chaos_kill_of_no_sweep_item_exits_2(tmp_path, capsys,
                                                 monkeypatch):
    from repro.cli import main
    from repro.experiments import chaos

    _, tiny, _ = _tiny_shard_configs()["chaos"]
    monkeypatch.setattr(chaos.Config, "scaled", classmethod(lambda cls: tiny))
    out = tmp_path / "out"
    assert main(["experiment", "chaos", "--out", str(out), "--workers", "1",
                 "--chaos-kill", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "nosuch" in err and "chaos.crash.sfs" in err
    assert not out.exists() or not any(out.iterdir())  # nothing ran


def test_chaos_shard_payloads_survive_json():
    """Quarantined chaos cells must replay from the JSON report."""
    from repro.experiments import chaos

    _, payload = chaos.shards(chaos.Config(n_requests=8), seed=0)[0]
    restored = json.loads(json.dumps(payload))
    assert chaos.Config(**restored["config"]) == chaos.Config(n_requests=8)


def test_loadsweep_parallel_equals_serial():
    from repro.experiments import loadsweep

    cfg = loadsweep.Config(n_requests=200, n_cores=2, loads=(0.5, 0.9))
    serial = loadsweep.run(cfg, seed=0)
    par = loadsweep.run(cfg, seed=0, workers=2)
    for load in cfg.loads:
        for sched in cfg.schedulers:
            assert (serial.runs[load][sched].records
                    == par.runs[load][sched].records), (load, sched)


def test_fuzz_campaign_parallel_summary_byte_identical():
    from repro.fuzz.campaign import run_campaign

    serial = run_campaign(budget=6, seed=3, case_seconds=None)
    par = run_campaign(budget=6, seed=3, case_seconds=None, workers=3)
    assert serial.render() == par.render()


def test_registry_exposes_parallel_and_shardable():
    from repro.experiments.registry import REGISTRY

    assert REGISTRY["chaos"].shardable
    assert REGISTRY["fig6"].parallel
    assert not REGISTRY["fig1"].parallel
    assert not REGISTRY["fig1"].shardable
