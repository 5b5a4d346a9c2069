"""Tests of the benchmark itself, at a tiny size.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tracer import (BENCH, Profile, SpanLog, Tracer,  # noqa: E402
                    leaked_wrappers, self_times)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "metrics.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(*args: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_profile_layer_self_times_sum_to_the_root():
    log = SpanLog()
    spans = [  # (name, layer, parent, start, end)
        ("traced run", BENCH, -1, 0.0, 10.0),
        ("Simulator.run", "sim", 0, 1.0, 9.0),
        ("FluidMachine.spawn", "machine", 1, 2.0, 5.0),
        ("RTRunqueue.enqueue", "sched", 2, 3.0, 4.0),
        ("FluidMachine.spawn", "machine", 1, 6.0, 7.0),
    ]
    for name, layer, parent, t0, t1 in spans:
        log.name.append(log.name_id(name, layer))
        log.parent.append(parent)
        log.start.append(t0)
        log.end.append(t1)
        log.req_id.append(-1)
        log.tid.append(-1)
    p = Profile(log)
    assert p.layer_self["bench"] == 2.0
    assert p.layer_self["sim"] == 4.0
    assert p.layer_self["machine"] == 3.0
    assert p.layer_self["sched"] == 1.0
    assert sum(p.layer_self.values()) == 10.0
    assert p.count("machine", ".spawn") == 2
    assert p.seconds("machine", ".spawn") == 4.0
    assert p.self_seconds("sim", "Simulator.run") == 4.0


# ----------------------------------------------------------------------
# the tracer is read-only and leaves nothing behind
# ----------------------------------------------------------------------
def _snapshot():
    """Identity of every module global and class attribute in repro."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("repro"):
            continue
        for attr, obj in list(vars(mod).items()):
            snap[(name, attr)] = id(obj)
            if isinstance(obj, type):
                for member, value in list(vars(obj).items()):
                    snap[(name, attr, member)] = id(value)
    return snap


def test_wrappers_are_restored_after_a_traced_run():
    import workloads
    from repro.sim.engine import Simulator

    w = dataclasses.replace(workloads.WORKLOADS["cluster_outage"], requests=40)
    plain = w.run_case(w, 7)
    from tracer import layer_modules

    layer_modules()  # import everything the tracer will touch first
    before = _snapshot()
    original = Simulator.__dict__["schedule_at"]
    log = SpanLog()
    with Tracer(log) as tracer:
        assert Simulator.__dict__["schedule_at"] is not original
        traced = w.run_case(w, 7)
    assert len(log) > 0 and tracer.instances["Simulator"]
    assert leaked_wrappers() == []
    assert _snapshot() == before
    assert Simulator.__dict__["schedule_at"] is original
    # read-only: the same simulated results, traced or not, and a later
    # untraced run is unaffected
    assert traced.digest == plain.digest
    assert w.run_case(w, 7).digest == plain.digest


def test_spans_carry_request_and_task_ids():
    import workloads

    w = dataclasses.replace(workloads.WORKLOADS["headline"], requests=30)
    log = SpanLog()
    with Tracer(log):
        w.run_case(w, 3)
    cols = log.columns()
    assert (cols["req_id"] >= 0).any() and (cols["tid"] >= 0).any()
    assert (cols["end"] >= cols["start"]).all()
    assert (cols["parent"] < np.arange(len(log))).all()


# ----------------------------------------------------------------------
# the benchmark's files agree with each other
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metric_registry():
    for key in ("end_to_end", "per_layer"):
        listed = [{k: m[k] for k in ("name", "unit", "better", "bound")
                   if k in m} for m in SPEC[key]]
        assert BENCHMARK[key] == listed
    assert WORKLOADS == [w["name"] for w in SPEC["workloads"]]
    import workloads

    assert WORKLOADS == list(workloads.WORKLOADS)


# ----------------------------------------------------------------------
# smoke runs of every workload, untraced and traced
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1",
                "--requests", "60", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 60
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in listed]
    assert len(report["output_sha256"]) == 64
    if trace == "1":
        assert report["layer_separation"] == []
        assert abs(report["bench.unattributed_s"]) < 0.01


def test_unknown_workload_is_refused():
    proc = _run("--workload", "nope", "--seconds", "1")
    assert proc.returncode != 0


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
