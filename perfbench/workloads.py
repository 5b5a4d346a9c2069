"""The benchmark's four workloads, their output checks and metrics.

A workload run is a batch of independent *cases*.  Case ``i`` of seed
``s`` is generated from the case seed ``s * 1000 + i`` and goes through
one of the package's public entry points.  The simulated arrivals of
every case are an open-loop Poisson stream in virtual time at load 1.0;
the host side has no clients.

At load 1.0 the host cost of one simulated request depends strongly on
the seed: the backlog, and with it the cost of every event, is a random
walk.  A batch of many small cases averages that out, so two runs on
different seeds measure the same per-request cost.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.experiments import ext_resilience
from repro.experiments.common import azure_sampled_workload, machine
from repro.experiments.runner import RunConfig, run_many, run_workload
from repro.explore import RunBundle
from repro.machine.base import MachineParams
from repro.metrics.stats import improvement_summary, percentile
from repro.obs import MetricsRegistry
from repro.stream import ReplayConfig, StreamReplayDriver
from repro.stream.aggregate import StreamSummary
from repro.trace import TraceRecorder
from repro.why import AuditLog, build_timelines, build_why_doc, why_json
from repro.workload.faasbench import FaaSBench, FaaSBenchConfig
from repro.workload.stream import RequestStream, StreamConfig

#: terminal request statuses (repro.metrics.collector.RequestRecord)
STATUSES = frozenset({"ok", "failed", "timeout", "shed", "host_lost"})

#: cases per seed stay below this, so case seeds never collide
MAX_CASES = 1000


@dataclass
class CaseOutput:
    """What one case leaves behind once its simulation objects are gone."""

    #: simulated requests that reached a terminal status, summed over
    #: the case's scheduler runs
    requests: int
    #: sha256 of the canonical simulated results
    digest: str
    #: failed output checks, one line each
    violations: List[str]
    #: SFS execution durations (finish - dispatch) of ok requests, us
    turnaround: np.ndarray
    #: requests the SFS run attempted, and those not ending ok
    attempted: int
    not_ok: int
    #: workload-specific counts (improved / slo hits / runqueue waits)
    extra: Dict[str, object] = field(default_factory=dict)


def case_seed(seed: int, index: int) -> int:
    return seed * MAX_CASES + index


def _sha(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()


def records_json(records) -> str:
    """Canonical bytes of per-request records, in record order."""
    return json.dumps([list(vars(r).values()) for r in records],
                      separators=(",", ":")) + "\n"


def check_records(label: str, records, req_ids) -> List[str]:
    """Exactly one terminal status per attempted request; an ok request
    received exactly its CPU demand and took at least that long."""
    bad = []
    seen = [r.req_id for r in records]
    if sorted(seen) != sorted(req_ids):
        bad.append(f"{label}: records cover {len(set(seen))} distinct of "
                   f"{len(req_ids)} requests ({len(seen)} records)")
    for r in records:
        if r.status not in STATUSES:
            bad.append(f"{label}: request {r.req_id} status {r.status!r}")
        elif r.ok and (r.cpu_time != r.cpu_demand
                       or r.turnaround < r.cpu_demand):
            bad.append(f"{label}: request {r.req_id} cpu_time={r.cpu_time} "
                       f"cpu_demand={r.cpu_demand} turnaround={r.turnaround}")
    return bad


def _ok_turnarounds(records) -> np.ndarray:
    return np.array([r.turnaround for r in records if r.ok], dtype=np.int64)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json
    and README.md."""

    name: str
    #: simulated requests per case
    requests: int
    #: nominal host seconds per case; ``--seconds`` / this = cases
    case_seconds: float
    run_case: Callable[["Workload", int], CaseOutput]

    def cases(self, seconds: float) -> int:
        return max(1, min(MAX_CASES - 1, round(seconds / self.case_seconds)))


def run_headline(w: Workload, seed: int) -> CaseOutput:
    """``repro experiment headline``'s shape: one Azure-sampled input on
    12 cores at load 1.0, fluid engine, under cfs, sfs and srtf."""
    wl = azure_sampled_workload(w.requests, 12, 1.0, seed)
    runs = run_many(wl, RunConfig(engine="fluid", machine=machine(12)),
                    ("cfs", "sfs", "srtf"))
    req_ids = [spec.req_id for spec in wl]
    bad = []
    for name, run in runs.items():
        bad += check_records(f"{name} case {seed}", run.records, req_ids)
    cfs, srtf = runs["cfs"].turnarounds, runs["srtf"].turnarounds
    if srtf.mean() > cfs.mean():
        bad.append(f"case {seed}: mean turnaround srtf {srtf.mean():.0f} > "
                   f"cfs {cfs.mean():.0f}")
    sfs = runs["sfs"]
    return CaseOutput(
        requests=sum(len(r.records) for r in runs.values()),
        digest=_sha(*(f"{n}\n" + records_json(r.records)
                      for n, r in runs.items())),
        violations=bad,
        turnaround=_ok_turnarounds(sfs.records),
        attempted=len(sfs.records),
        not_ok=sum(not r.ok for r in sfs.records),
        extra={"improved": round(len(cfs) * improvement_summary(
                   cfs, sfs.turnarounds)["fraction_improved"]),
               "paired": len(cfs)},
    )


def run_replay_discrete_io(w: Workload, seed: int) -> CaseOutput:
    """A streaming replay of a FaaSBench ``fib`` stream with 30% I/O on
    the discrete engine under sfs, 8 cores, load 1.0."""
    stream = RequestStream(StreamConfig(
        n_requests=w.requests, n_cores=8, target_load=1.0,
        source="faasbench", io_fraction=0.3), seed=seed)
    # the recent-record ring holds every request, so each one is checked
    cfg = ReplayConfig(scheduler="sfs", engine="discrete",
                       machine=MachineParams(n_cores=8),
                       checkpoint_every=None, recent=w.requests)
    driver = StreamReplayDriver(stream, cfg)
    summary = driver.run()
    rows = list(driver.aggregator.recent)
    bad = []
    label = f"replay case {seed}"
    if summary["requests"] != w.requests or len(rows) != w.requests or \
            len({r["req_id"] for r in rows}) != w.requests:
        bad.append(f"{label}: {summary['requests']} summarised, {len(rows)} "
                   f"rows for {w.requests} requests")
    if summary["ok"] + summary["killed"] != summary["requests"]:
        bad.append(f"{label}: ok + killed != requests")
    turnaround = []
    for r in rows:
        ta = r["finish"] - r["dispatch"]
        if r["status"] == "ok":
            if r["cpu_time"] != r["cpu_demand"] or ta < r["cpu_demand"]:
                bad.append(f"{label}: request {r['req_id']} cpu_time="
                           f"{r['cpu_time']} cpu_demand={r['cpu_demand']} "
                           f"turnaround={ta}")
            turnaround.append(ta)
    return CaseOutput(
        requests=summary["requests"],
        digest=_sha(StreamSummary.to_json(summary)),
        violations=bad,
        turnaround=np.array(turnaround, dtype=np.int64),
        attempted=summary["requests"],
        not_ok=summary["killed"],
        extra={"waits": np.array([r["wait_time"] for r in rows],
                                 dtype=np.int64)},
    )


def run_cluster_outage(w: Workload, seed: int) -> CaseOutput:
    """One ``ext-resilience`` cell: ``domain_outage`` under sfs on
    16 hosts x 8 cores, least-loaded placement, failover and hedging."""
    config = ext_resilience.Config(n_requests=w.requests, host_counts=(16,))
    run = ext_resilience.run_cell(config, seed, "domain_outage", "sfs", 16)
    records = run.records
    label = f"cluster case {seed}"
    bad = check_records(label, records, range(w.requests))
    slo = ext_resilience.RESILIENCE_SLO.attainment(records)
    return CaseOutput(
        requests=len(records),
        digest=_sha(records_json(records)),
        violations=bad,
        turnaround=_ok_turnarounds(records),
        attempted=len(records),
        not_ok=sum(not r.ok for r in records),
        extra={"slo_hits": round(slo * len(records))},
    )


def run_traced_why(w: Workload, seed: int) -> CaseOutput:
    """A FaaSBench run (20% I/O, 8 cores, load 1.0, fluid, sfs) with the
    trace recorder, audit log and metric registry installed, then
    ``repro why``'s timelines and document and the explorer bundle."""
    wl = FaaSBench(FaaSBenchConfig(n_requests=w.requests, n_cores=8,
                                   target_load=1.0, io_fraction=0.2),
                   seed=seed).generate()
    recorder, audit, registry = TraceRecorder(), AuditLog(), MetricsRegistry()
    run = run_workload(wl, RunConfig(scheduler="sfs", engine="fluid",
                                     machine=machine(8)),
                       trace=recorder, metrics=registry, audit=audit)
    timelines = build_timelines(run.records, recorder, audit=audit)
    doc = build_why_doc(timelines)
    bundle = RunBundle.capture(run, recorder, metrics=registry, audit=audit)
    label = f"why case {seed}"
    bad = check_records(label, run.records, [spec.req_id for spec in wl])
    inexact = [rid for rid, tl in timelines.items() if not tl.exact]
    if inexact:
        bad.append(f"{label}: {len(inexact)} timelines do not sum exactly "
                   f"(first: {inexact[:5]})")
    return CaseOutput(
        requests=len(run.records),
        digest=_sha(records_json(run.records), why_json(doc),
                    bundle.to_json()),
        violations=bad,
        turnaround=_ok_turnarounds(run.records),
        attempted=len(run.records),
        not_ok=sum(not r.ok for r in run.records),
    )


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("headline", requests=1000, case_seconds=0.63,
             run_case=run_headline),
    Workload("replay_discrete_io", requests=300, case_seconds=0.21,
             run_case=run_replay_discrete_io),
    Workload("cluster_outage", requests=1500, case_seconds=1.7,
             run_case=run_cluster_outage),
    Workload("traced_why", requests=1000, case_seconds=1.2,
             run_case=run_traced_why),
)}

def end_to_end(w: Workload, outputs: List[CaseOutput], wall_s: float,
               ) -> Dict[str, object]:
    """The end-to-end figures of one run that its case outputs and host
    time give; the measuring process adds set-up time, peak RSS and the
    host-speed index."""
    turnaround = np.concatenate([o.turnaround for o in outputs])
    attempted = sum(o.attempted for o in outputs)
    report: Dict[str, object] = {
        "requests_per_s": sum(o.requests for o in outputs) / wall_s,
        "turnaround_p50_ms": percentile(turnaround, 50) / 1000,
        "turnaround_p99_ms": percentile(turnaround, 99) / 1000,
        "n_requests": int(turnaround.size),
        "failed_frac": sum(o.not_ok for o in outputs) / attempted,
        "cases": len(outputs),
        "output_sha256": _sha(*(o.digest for o in outputs)),
    }
    if w.name == "headline":
        report["sfs_improved_frac"] = (
            sum(o.extra["improved"] for o in outputs)
            / sum(o.extra["paired"] for o in outputs))
    if w.name == "cluster_outage":
        report["slo_attainment"] = (
            sum(o.extra["slo_hits"] for o in outputs) / attempted)
    return report
