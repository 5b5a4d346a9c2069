"""The unified run explorer: bundles, rendering, determinism."""

import json

import pytest

from repro.experiments.runner import RunConfig, run_bundled, run_many_bundled
from repro.explore import (
    SCHEMA,
    RunBundle,
    render_diff,
    render_explorer,
    write_explorer,
)
from repro.explore.page import sparkline
from repro.faults import FaultPlan
from repro.machine.base import MachineParams
from repro.obs import MetricsRegistry
from repro.workload.faasbench import FaaSBench, FaaSBenchConfig


def _workload(seed=3, n=300, cores=8):
    cfg = FaaSBenchConfig(n_requests=n, n_cores=cores, target_load=1.0)
    return FaaSBench(cfg, seed=seed).generate()


def _config(scheduler="sfs", engine="fluid", cores=8, **kw):
    return RunConfig(scheduler=scheduler, engine=engine,
                     machine=MachineParams(n_cores=cores), **kw)


@pytest.fixture(scope="module")
def sfs_bundle():
    _, bundle = run_bundled(_workload(), _config("sfs"))
    return bundle


# ----------------------------------------------------------------------
# bundle document
# ----------------------------------------------------------------------
def test_bundle_document_shape(sfs_bundle):
    doc = sfs_bundle.data
    assert doc["schema"] == SCHEMA
    assert doc["label"] == "sfs/fluid"
    assert doc["lanes"], "no timeline lanes"
    kinds = {lane["kind"] for lane in doc["lanes"]}
    assert "pool" in kinds  # fluid CFS pool packed into display lanes
    assert doc["queue_series"], "no gauge series for the queue chart"
    assert len(doc["pcts"]["t"]) == len(doc["pcts"]["p99"])
    assert any(v is not None for v in doc["pcts"]["p99"])
    assert doc["stats"]["requests"] == 300
    assert "sfs" in doc["stats"]


def test_bundle_provenance_strips_wall_clock(sfs_bundle):
    prov = sfs_bundle.data["provenance"]
    for field in ("created_at", "wall_time_s", "python", "platform"):
        assert field not in prov
    assert prov["scheduler"] == "sfs"  # run physics stays


def test_bundle_roundtrip_file_and_dir(tmp_path, sfs_bundle):
    saved = sfs_bundle.save(tmp_path / "run" / "bundle.json")
    assert saved.read_text() == sfs_bundle.to_json()
    # load by file and by containing directory
    assert RunBundle.load(saved).to_json() == sfs_bundle.to_json()
    assert RunBundle.load(tmp_path / "run").to_json() == sfs_bundle.to_json()


def test_bundle_rejects_foreign_documents(tmp_path):
    with pytest.raises(ValueError, match="schema"):
        RunBundle({"schema": "something/else"})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        RunBundle.load(bad)
    with pytest.raises(ValueError, match="cannot read"):
        RunBundle.load(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# determinism: same seed + config => byte-identical artifacts
# ----------------------------------------------------------------------
def test_same_seed_byte_identical_explorer():
    pages = []
    for _ in range(2):
        registry = MetricsRegistry()
        _, bundle = run_bundled(_workload(seed=5), _config("sfs"),
                                metrics=registry)
        pages.append(render_explorer(bundle))
    assert pages[0] == pages[1]


def test_same_seed_byte_identical_diff():
    pages = []
    for _ in range(2):
        runs = run_many_bundled(_workload(seed=5), _config("cfs"),
                                ("cfs", "sfs"))
        pages.append(render_diff(runs["cfs"][1], runs["sfs"][1]))
    assert pages[0] == pages[1]


# ----------------------------------------------------------------------
# rendered page
# ----------------------------------------------------------------------
def test_explorer_page_is_self_contained(sfs_bundle):
    page = render_explorer(sfs_bundle)
    assert "http://" not in page and "https://" not in page
    assert "<canvas" not in page  # canvases are built by the inline JS
    assert 'data-timeline="0"' in page
    assert "explore-data" in page
    assert "<noscript>" in page


def test_explorer_embedded_data_parses_back(sfs_bundle):
    page = render_explorer(sfs_bundle)
    start = page.index('id="explore-data">') + len('id="explore-data">')
    end = page.index("</script>", start)
    doc = json.loads(page[start:end].replace("<\\/", "</"))
    assert doc["runs"][0]["label"] == "sfs/fluid"


def test_diff_view_aligns_cfs_vs_sfs():
    runs = run_many_bundled(_workload(), _config("cfs"), ("cfs", "sfs"))
    page = render_diff(runs["cfs"][1], runs["sfs"][1])
    assert "cfs/fluid" in page and "sfs/fluid" in page
    assert 'data-timeline="0"' in page and 'data-timeline="1"' in page
    # percentile series exist for both runs, run B dashed
    start = page.index('id="explore-data">')
    assert '&quot;run&quot;:1' in page  # chart spec references run B
    assert page.count("A · ") and page.count("B · ")


def test_fault_windows_reach_the_page():
    plan = FaultPlan(seed=11, crash_prob=0.2,
                     host_failures=((0, 50_000, 150_000),))
    _, bundle = run_bundled(_workload(n=200), _config("sfs", faults=plan,
                                                      retry=None))
    faults = bundle.data["faults"]
    assert faults["windows"] == [[0, 50_000, 150_000]]
    assert faults["marks"], "crash faults produced no instant markers"
    page = render_explorer(bundle)
    assert "fault/retry/shed events" in page


def test_write_explorer_records_build_metrics(tmp_path, sfs_bundle):
    registry = MetricsRegistry()
    n = write_explorer(tmp_path / "ex.html", [sfs_bundle],
                       metrics=registry)
    assert (tmp_path / "ex.html").stat().st_size == n
    assert registry.counter("repro_explorer_builds_total").value == 1
    assert registry.gauge("repro_explorer_bytes").last == n


def test_write_explorer_bundle_count_validated(tmp_path, sfs_bundle):
    with pytest.raises(ValueError, match="1 or 2"):
        write_explorer(tmp_path / "x.html",
                       [sfs_bundle, sfs_bundle, sfs_bundle])


# ----------------------------------------------------------------------
# sparkline guards (the explorer's noscript fallback)
# ----------------------------------------------------------------------
def test_sparkline_empty_series():
    assert "no samples" in sparkline([])


def test_sparkline_single_point_renders_a_dot():
    out = sparkline([(100, 3.0)])
    assert "<circle" in out


def test_sparkline_degenerate_scales():
    flat = sparkline([(0, 0.0), (10, 0.0)])  # all-zero values
    assert "<polyline" in flat and "nan" not in flat
    pinned = sparkline([(0, 1.0), (10, 2.0)], y_max=0)  # explicit zero top
    assert "<polyline" in pinned and "nan" not in pinned
    same_x = sparkline([(5, 1.0), (5, 2.0)])  # zero time span
    assert "<polyline" in same_x
