"""Tests for repro.obs: instruments, registry, wiring, exporters, CLI.

The acceptance bar for the observability layer is the same as for
tracing and invariants: a metrics-enabled run must be *bit-identical*
to a disabled one (same RequestRecords, same trace stream up to the
process-global tid offset), and the default NullRegistry must never
record anything.
"""

from __future__ import annotations

import json

import pytest
from conftest import small_workload
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments.runner import RunConfig, run_workload
from repro.machine.base import MachineParams
from repro.obs import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    QuantileSketch,
)
from repro.obs.export import (
    metrics_lines,
    read_metrics,
    to_jsonl,
    to_prometheus,
    write_metrics,
)
from repro.trace import TraceRecorder


def _cfg(scheduler="sfs", engine="fluid", **kw):
    return RunConfig(scheduler=scheduler, engine=engine,
                     machine=MachineParams(n_cores=8), **kw)


def _normalize_tids(events):
    """Remap tids by first appearance: the process-global tid counter
    offsets consecutive runs, but the structure must match exactly."""
    remap = {}
    out = []
    for ts, kind, tid, core, args in events:
        if tid >= 0:
            tid = remap.setdefault(tid, len(remap))
        out.append((ts, kind, tid, core, args))
    return out


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
def test_counter_and_gauge_basics():
    c = Counter("n")
    c.inc()
    c.inc(4)
    assert c.value == 5
    g = Gauge("depth")
    g.set(3, ts=10)
    g.set(1, ts=20)
    g.set(7, ts=30)
    assert (g.last, g.min, g.max, g.samples) == (7, 1, 7, 3)
    assert g.series == [(10, 3), (20, 1), (30, 7)]


def test_gauge_series_decimation_bounded():
    g = Gauge("depth", max_points=64)
    for i in range(100_000):
        g.set(i % 17, ts=i)
    assert len(g.series) < 64
    assert g.samples == 100_000
    # decimation keeps the span: first point early, last point late
    assert g.series[0][0] < 10_000
    assert g.series[-1][0] > 90_000
    # identical runs decimate identically
    g2 = Gauge("depth", max_points=64)
    for i in range(100_000):
        g2.set(i % 17, ts=i)
    assert g.series == g2.series


@settings(max_examples=200, deadline=None)
@given(max_points=st.integers(1, 12),
       runs=st.lists(st.tuples(st.integers(1, 400), st.integers(0, 9),
                               st.integers(1, 5)), min_size=1, max_size=8))
@example(max_points=512, runs=[(600, 3, 1), (1000, 4, 10)])
def test_gauge_set_run_is_n_sets(max_points, runs):
    """``set_run`` equals its ``n`` sequential ``set`` calls, across the
    series' halvings."""
    literal = Gauge("depth", max_points=max_points)
    closed = Gauge("depth", max_points=max_points)
    ts = 0
    for n, value, step in runs:
        for j in range(n):
            literal.set(value, ts=ts + j * step)
        closed.set_run(value, ts, step, n)
        ts += n * step + 1
        assert (closed.series, closed.snapshot(), closed._countdown,
                closed._stride) == (literal.series, literal.snapshot(),
                                    literal._countdown, literal._stride)


def test_histogram_quantiles_and_stats():
    h = Histogram("lat")
    for v in range(1, 1001):
        h.observe(float(v))
    assert h.count == 1000
    assert h.min == 1.0 and h.max == 1000.0
    assert h.mean == pytest.approx(500.5)
    assert h.quantile(0.5) == pytest.approx(500, rel=0.02)
    assert h.quantile(0.99) == pytest.approx(990, rel=0.02)


def test_sketch_edge_cases():
    s = QuantileSketch()
    with pytest.raises(ValueError):
        s.quantile(0.5)  # empty
    with pytest.raises(ValueError):
        s.add(-1.0)
    s.add(0.0)
    assert s.quantile(0.5) == 0.0
    other = QuantileSketch()
    other.add(100.0, n=3)
    s.merge(other)
    assert s.count == 4
    assert s.quantile(1.0) == pytest.approx(100.0, rel=0.02)
    with pytest.raises(ValueError):
        s.merge(QuantileSketch(gamma=0.05))


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_get_or_create_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("x_total", labels={"class": "rt"})
    b = reg.counter("x_total", labels={"class": "rt"})
    c = reg.counter("x_total", labels={"class": "cfs"})
    assert a is b and a is not c
    assert len(reg) == 2
    assert reg.get("x_total", labels={"class": "rt"}) is a
    assert reg.get("missing") is None
    assert [i.labels["class"] for i in reg.find("x_total")] == ["cfs", "rt"]
    with pytest.raises(TypeError):
        reg.gauge("x_total", labels={"class": "rt"})


def test_null_registry_is_inert():
    assert not NULL_REGISTRY.enabled
    assert len(NULL_REGISTRY) == 0
    inst = NULL_REGISTRY.counter("anything")
    inst.inc()
    inst.set(3)
    inst.observe(1.0)
    assert len(NULL_REGISTRY) == 0
    assert isinstance(MetricsRegistry(), NullRegistry)  # substitutable


def test_registry_rejects_bad_interval():
    with pytest.raises(ValueError):
        MetricsRegistry(gauge_interval=0)


# ----------------------------------------------------------------------
# bit-identity: the acceptance criterion
# ----------------------------------------------------------------------
def test_metrics_run_bit_identical_records():
    wl = small_workload(n_requests=200, n_cores=8, load=0.9)
    base = run_workload(wl, _cfg())
    reg = MetricsRegistry()
    metered = run_workload(wl, _cfg(), metrics=reg)
    assert metered.records == base.records
    # sim_time may differ: the gauge sampler keeps ticking to the next
    # interval boundary, exactly as a traced run does; the physics —
    # busy time, every per-request timestamp — must not move.
    assert metered.busy_time == base.busy_time
    assert len(reg) > 0  # and the registry actually measured the run


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_metrics_run_identical_trace_stream(engine):
    wl = small_workload(n_requests=150, n_cores=8, load=0.8)
    t0, t1 = TraceRecorder(), TraceRecorder()
    run_workload(wl, _cfg(engine=engine), trace=t0)
    run_workload(wl, _cfg(engine=engine), trace=t1,
                 metrics=MetricsRegistry())
    assert _normalize_tids(t0.events) == _normalize_tids(t1.events)


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_trace_run_identical_metrics_jsonl(engine):
    """The converse: a recorder riding along leaves every gauge series
    (the discrete engine's per-core runqueues too) byte-identical."""
    wl = small_workload(n_requests=150, n_cores=8, load=0.8)
    dumps = []
    for trace in (None, TraceRecorder()):
        reg = MetricsRegistry()
        run_workload(wl, _cfg(engine=engine), trace=trace, metrics=reg)
        dumps.append(to_jsonl(reg, include_series=True))
    assert dumps[0] == dumps[1]
    runqueues = [json.loads(line) for line in dumps[0].splitlines()
                 if '"repro_runqueue_depth"' in line]
    if engine == "discrete":
        assert sorted(g["labels"]["core"] for g in runqueues) == [
            str(core) for core in range(8)]
        assert all(g["series"] for g in runqueues)


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_metrics_identical_on_both_engines(engine):
    wl = small_workload(n_requests=150, n_cores=8, load=0.8)
    base = run_workload(wl, _cfg(engine=engine))
    metered = run_workload(wl, _cfg(engine=engine),
                           metrics=MetricsRegistry())
    assert metered.records == base.records


def test_same_seed_byte_identical_metrics_jsonl():
    wl = small_workload(n_requests=150, n_cores=8, load=0.8)
    dumps = []
    for _ in range(2):
        reg = MetricsRegistry()
        run_workload(wl, _cfg(), metrics=reg)
        dumps.append(to_jsonl(reg, include_series=True))
    assert dumps[0] == dumps[1]


# ----------------------------------------------------------------------
# wiring: the counters describe the run that happened
# ----------------------------------------------------------------------
def test_sfs_counters_match_sfs_stats():
    wl = small_workload(n_requests=300, n_cores=8, load=0.9)
    reg = MetricsRegistry()
    res = run_workload(wl, _cfg(), metrics=reg)
    s = res.sfs_stats
    value = lambda name, **labels: reg.get(name, labels=labels or None).value
    assert value("repro_sfs_promotions_total") == s.promoted
    assert value("repro_sfs_filter_finishes_total") == s.completed_in_filter
    assert value("repro_sfs_demotions_total", reason="slice") == \
        s.demoted_slice
    assert value("repro_sfs_overload_bypass_total") == s.bypassed_overload
    assert value("repro_sfs_submitted_total") == 300


def test_machine_counters_and_gauges_present():
    wl = small_workload(n_requests=200, n_cores=8, load=0.9)
    reg = MetricsRegistry()
    run_workload(wl, _cfg(), metrics=reg)
    assert reg.get("repro_tasks_spawned_total").value == 200
    assert reg.get("repro_tasks_finished_total").value == 200
    rt = reg.get("repro_rq_enqueues_total", labels={"class": "rt"})
    assert rt is not None and rt.value > 0
    pool = reg.get("repro_pool_occupancy")
    assert pool is not None and pool.samples > 0


def test_discrete_runqueue_instruments():
    wl = small_workload(n_requests=150, n_cores=8, load=0.9)
    reg = MetricsRegistry()
    run_workload(wl, _cfg(engine="discrete"), metrics=reg)
    fair = reg.get("repro_rq_enqueues_total", labels={"class": "cfs"})
    picks = reg.get("repro_rq_picks_total", labels={"class": "cfs"})
    assert fair.value > 0 and picks.value > 0
    assert reg.get("repro_slice_expiries_total") is not None


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def metered_run():
    wl = small_workload(n_requests=150, n_cores=8, load=0.9)
    reg = MetricsRegistry()
    res = run_workload(wl, _cfg(), metrics=reg)
    return reg, res


def test_prometheus_exposition(metered_run):
    reg, _ = metered_run
    text = to_prometheus(reg)
    assert "# TYPE repro_tasks_spawned_total counter" in text
    assert "repro_tasks_spawned_total 150" in text
    assert "# TYPE repro_sfs_queue_delay_us summary" in text
    assert 'quantile="0.99"' in text
    # every sample line parses as "name{labels} value"
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        name, _, value = line.rpartition(" ")
        assert name and (value == "NaN" or float(value) is not None)


def test_jsonl_round_trip(tmp_path, metered_run):
    reg, _ = metered_run
    path = str(tmp_path / "m.jsonl")
    write_metrics(path, reg)
    header, insts = read_metrics(path)
    assert header["schema"] == "repro.metrics/1"
    assert header["instruments"] == len(reg) == len(insts)
    kinds = {i["kind"] for i in insts}
    assert kinds == {"counter", "gauge", "histogram"}
    # deterministic dump: no wall-clock anywhere
    assert all("wall" not in json.dumps(i) for i in insts)


def test_jsonl_profile_excluded_by_default(metered_run):
    reg, _ = metered_run
    lines = metrics_lines(reg)
    assert all('"profile"' not in line for line in lines)


def test_read_metrics_rejects_other_files(tmp_path):
    p = tmp_path / "x.jsonl"
    p.write_text('{"schema": "something/else"}\n')
    with pytest.raises(ValueError):
        read_metrics(str(p))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_report_html(tmp_path, capsys):
    out = str(tmp_path / "report.html")
    rc = main(["report", out, "--requests", "200", "--cores", "8",
               "--load", "0.8", "--seed", "3"])
    assert rc == 0
    page = open(out).read()
    assert page.startswith("<!doctype html>")
    assert 'id="explore-data"' in page
    assert "Why — blame attribution" in page
    stdout = capsys.readouterr().out
    assert "latency by segment kind" in stdout
    for cell in ("class", "run (ms)", "wait (ms)", "e2e (ms)", "all"):
        assert cell in stdout


@pytest.mark.parametrize("suffix", [".json", ".jsonl", ".prom"])
def test_cli_report_non_html_writes_metrics(tmp_path, capsys, suffix):
    out = tmp_path / f"report{suffix}"
    assert main(["report", str(out), "--requests", "60", "--cores", "4",
                 "--seed", "3"]) == 0
    text = out.read_text()
    assert "<html" not in text
    if suffix == ".prom":
        assert "# TYPE repro_tasks_spawned_total counter" in text
    else:
        assert json.loads(text.splitlines()[0])["schema"] == \
            "repro.metrics/1"
    assert "latency by segment kind" in capsys.readouterr().out


def test_cli_run_metrics_html_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "m.html"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--requests", "10", "--metrics", str(out)])
    assert exc.value.code == 2
    assert "repro report" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_metrics_dump(tmp_path):
    out = str(tmp_path / "m.jsonl")
    rc = main(["run", "--requests", "200", "--cores", "8",
               "--seed", "3", "--metrics", out])
    assert rc == 0
    first = json.loads(open(out).readline())
    assert first["schema"] == "repro.metrics/1"
    assert first["instruments"] > 0
