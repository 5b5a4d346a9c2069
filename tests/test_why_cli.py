"""The ``repro why`` command: attribution CLI, outputs, exit codes."""

import json

import pytest

from conftest import small_workload
from repro.cli import main
from repro.experiments.runner import RunConfig, run_bundled
from repro.machine.base import MachineParams

WL_ARGS = ["--requests", "40", "--cores", "2", "--seed", "3",
           "--load", "1.2", "--engine", "discrete"]


def _bundle_dir(tmp_path, scheduler="sfs"):
    wl = small_workload(n_requests=40, n_cores=2, load=1.2, seed=3)
    cfg = RunConfig(scheduler=scheduler, engine="discrete",
                    machine=MachineParams(n_cores=2))
    _, bundle = run_bundled(wl, cfg)
    d = tmp_path / scheduler
    d.mkdir()
    bundle.save(d)
    return d


# ----------------------------------------------------------------------
# fresh-run mode
# ----------------------------------------------------------------------
def test_why_fresh_run_summary(capsys):
    assert main(["why", "--scheduler", "sfs"] + WL_ARGS) == 0
    out = capsys.readouterr().out
    assert "why: sfs/discrete — 40 requests" in out
    assert "blame by deschedule reason" in out
    assert "top" in out and "--request" in out


def test_why_fresh_run_drilldown(capsys):
    assert main(["why", "--scheduler", "cfs", "--request", "0"]
                + WL_ARGS) == 0
    out = capsys.readouterr().out
    assert "request 0 (" in out
    assert "causal timeline" in out
    assert "kind" in out and "reason" in out and "actor" in out


def test_why_fresh_run_writes_trace_and_metrics(tmp_path, capsys):
    """``--trace`` and ``--metrics`` reach the fresh run and leave the
    report unchanged: stdout is the plain run's after two 'wrote' lines."""
    trace, metrics = tmp_path / "t.json", tmp_path / "m.jsonl"
    assert main(["why", "--scheduler", "sfs"] + WL_ARGS) == 0
    plain = capsys.readouterr().out
    assert main(["why", "--scheduler", "sfs", "--trace", str(trace),
                 "--metrics", str(metrics)] + WL_ARGS) == 0
    wrote_trace, wrote_metrics, rest = \
        capsys.readouterr().out.split("\n", 2)
    assert wrote_trace.startswith("wrote ") and str(trace) in wrote_trace
    assert wrote_metrics.startswith("wrote ") and str(metrics) in wrote_metrics
    assert rest == plain
    doc = json.loads(trace.read_text())
    assert doc["metadata"]["runManifest"]["n_requests"] == 40
    first = json.loads(metrics.read_text().splitlines()[0])
    assert first["schema"] == "repro.metrics/1"


@pytest.mark.parametrize("scheduler", ["srtf", "ideal"])
def test_why_explains_oracle_schedulers(scheduler, tmp_path, capsys):
    out = tmp_path / "why.json"
    assert main(["why", "--scheduler", scheduler, "-o", str(out),
                 "--top-blamed", "0", "--io-fraction", "0.3"]
                + WL_ARGS) == 0
    assert f"why: {scheduler}/discrete — 40 requests" in \
        capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert len(doc["requests"]) == 40
    assert all(r["exact"] for r in doc["requests"].values())
    kinds = {s["kind"] for r in doc["requests"].values()
             for s in r["segments"]}
    assert {"run", "block"} <= kinds
    if scheduler == "ideal":  # a core each: nothing ever waits
        assert "wait" not in kinds
        assert doc["totals"]["blamed_us"] == 0


def test_why_output_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    fa, fb = tmp_path / "a.html", tmp_path / "b.html"
    for out, flame in ((a, fa), (b, fb)):
        assert main(["why", "--scheduler", "sfs", "-o", str(out),
                     "--flame", str(flame)] + WL_ARGS) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert fa.read_bytes() == fb.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["schema"] == "repro.why/1"
    for r in doc["requests"].values():
        assert sum(s["dur"] for s in r["segments"]) == r["end_to_end_us"]
    html = fa.read_text()
    assert ("ht" "tp://") not in html and ("ht" "tps://") not in html


# ----------------------------------------------------------------------
# bundle mode
# ----------------------------------------------------------------------
def test_why_reads_saved_bundle(tmp_path, capsys):
    d = _bundle_dir(tmp_path)
    assert main(["why", str(d)]) == 0
    out = capsys.readouterr().out
    assert "sfs/discrete" in out
    assert "blamed" in out


def test_why_bundle_drilldown_and_missing_request(tmp_path, capsys):
    d = _bundle_dir(tmp_path)
    doc = json.loads((d / "bundle.json").read_text())["why"]
    some_id = doc["top_blamed"][0]
    assert main(["why", str(d), "--request", str(some_id)]) == 0
    assert "causal timeline" in capsys.readouterr().out
    missing = max(int(k) for k in doc["requests"]) + 10_000
    assert main(["why", str(d), "--request", str(missing)]) == 2
    assert "not in this document" in capsys.readouterr().err


def test_why_bundle_without_why_section(tmp_path, capsys):
    d = _bundle_dir(tmp_path)
    p = d / "bundle.json"
    data = json.loads(p.read_text())
    del data["why"]  # simulate a pre-why bundle
    p.write_text(json.dumps(data))
    assert main(["why", str(d)]) == 2
    assert "predates repro.why" in capsys.readouterr().err


def test_ideal_bundle_carries_exact_why_section(tmp_path, capsys):
    from repro.explore import RunBundle, render_explorer

    d = _bundle_dir(tmp_path, scheduler="ideal")
    bundle = RunBundle.load(d)
    assert bundle.data["scheduler"] == "ideal"
    assert bundle.why is not None
    assert all(r["exact"] for r in bundle.why["requests"].values())
    assert bundle.why["totals"]["blamed_us"] == 0
    assert "Why — blame attribution" in render_explorer(bundle)
    assert main(["why", str(d)]) == 0
    assert "ideal/discrete" in capsys.readouterr().out


def test_why_bad_bundle_path(tmp_path, capsys):
    assert main(["why", str(tmp_path / "nope")]) == 2
    assert "error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# --output parent validation (pinned exit code 2, before any run)
# ----------------------------------------------------------------------
def test_why_output_missing_parent_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["why", "--scheduler", "cfs", "-o", "/no/such/dir/why.json"]
             + WL_ARGS)
    assert exc.value.code == 2
    assert "does not exist" in capsys.readouterr().err


def test_why_flame_missing_parent_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["why", "--scheduler", "cfs",
              "--flame", "/no/such/dir/flame.html"] + WL_ARGS)
    assert exc.value.code == 2
    assert "does not exist" in capsys.readouterr().err
