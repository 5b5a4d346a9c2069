"""Run bundles: everything the explorer needs from one run, compacted.

A :class:`RunBundle` fuses the four observability artifacts a run can
produce — the structured trace (:mod:`repro.trace`), the metrics
registry (:mod:`repro.obs`), the :class:`~repro.trace.manifest.RunManifest`
provenance, and the per-request records — into one *compact document*
(schema ``repro.explore/1``) sized for embedding in a self-contained
HTML page:

* per-core / per-FILTER-worker / packed-pool **timeline lanes** built
  from the ``task.run`` / ``task.deschedule`` span pairing, coloured by
  function app, with deterministic coalescing under a segment budget;
* **gauge time series** (queue depths, pool occupancy, watch list)
  decimated to a bounded point count;
* time-binned **latency percentile curves** (p50/p90/p99 of turnaround
  by finish time) using the repo-wide percentile definition;
* **fault windows** (host fail/recover, stragglers) and fault instants;
* a provenance block with the wall-clock manifest fields stripped, so
  the same seed and config produce a byte-identical document.

Bundles round-trip through JSON (``save`` / ``load``) so a sweep can
capture one per point and ``repro explore A/ B/`` can diff them later.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.metrics.stats import PERCENTILE_METHOD
from repro.trace import events as tev

SCHEMA = "repro.explore/1"

#: compaction budgets — the knobs that keep the embedded document small
MAX_SEGMENTS = 40_000       # timeline segments across all lanes
MAX_SERIES_POINTS = 512     # points per gauge series
MAX_FAULT_MARKS = 2_000     # fault/retry/shed instant markers
MAX_SLOWEST = 40            # rows in the slowest-requests table
MAX_APPS = 7                # distinct app colours; the rest fold to "other"
PCT_BINS = 80               # time bins for the percentile curves

#: manifest fields that are wall-clock provenance, not run physics —
#: stripped from the embedded document so same seed => same bytes
_NONDETERMINISTIC_MANIFEST_FIELDS = (
    "created_at", "wall_time_s", "python", "platform",
)

#: fault-track kinds rendered as instant markers on the timeline
_FAULT_MARK_KINDS = (
    tev.FAULT_CRASH, tev.FAULT_COLDSTART, tev.FAULT_TIMEOUT,
    tev.FAULT_HOST_DOWN, tev.FAULT_HOST_UP, tev.RETRY_BACKOFF,
    tev.RETRY_EXHAUSTED, tev.RETRY_THROTTLED, tev.SHED_REQUEST,
    tev.HEALTH_DOWN, tev.HEALTH_UP, tev.FAILOVER_REDISPATCH,
    tev.HEDGE_LAUNCH, tev.HEDGE_WIN, tev.HEDGE_CANCEL,
)

#: (gauge kind, display label) in preference order for the queue chart
_QUEUE_SERIES = (
    (tev.GAUGE_GLOBAL_QUEUE, "SFS global queue"),
    (tev.GAUGE_RUNNABLE, "runnable"),
    (tev.GAUGE_RUNQUEUE, "runqueue (total)"),
    (tev.GAUGE_POOL, "CFS pool"),
    (tev.GAUGE_RT_QUEUE, "RT queue"),
    (tev.GAUGE_BUSY_WORKERS, "busy workers"),
    (tev.GAUGE_WATCH_LIST, "watch list"),
    (tev.GAUGE_OUTSTANDING, "outstanding"),
)
_MAX_QUEUE_SERIES = 4


def _gauge_points(trace, kind: str) -> List[List[Union[int, float]]]:
    """The queue chart's ``[ts, value]`` points of gauge ``kind``: every
    sample in stream order, decimated (:func:`_decimate`); the per-core
    ``gauge.runqueue`` samples of one tick timestamp are summed into
    one point.  A gauge with one slot in the sampler's one schema is
    read straight from the tick columns, and only its kept rows."""
    keys = trace.tick_keys
    schema = keys[0] if keys else ()
    slots = [i for i, (k, _core) in enumerate(schema) if k == kind]
    if kind != tev.GAUGE_RUNQUEUE and len(slots) == 1 and all(
            k is schema for k in keys):
        slot, stamps, rows = slots[0], trace.tick_ts, trace.tick_values
        n = len(stamps)
        kept = list(range(0, n, -(-n // MAX_SERIES_POINTS)))
        last = kept[-1]
        if (stamps[last], rows[last][slot]) != (stamps[-1], rows[-1][slot]):
            kept.append(n - 1)
        return [[stamps[i], _num(rows[i][slot])] for i in kept]
    if kind == tev.GAUGE_RUNQUEUE:
        summed: Dict[int, float] = {}
        for ts, _core, value in trace.gauge_samples(kind):
            summed[ts] = summed.get(ts, 0.0) + value
        series = sorted(summed.items())
    else:
        series = [(ts, float(value)) for ts, _core, value
                  in trace.gauge_samples(kind)]
    return [[ts, _num(v)] for ts, v in _decimate(series)]


def _decimate(series: List[Tuple[int, float]],
              budget: int = MAX_SERIES_POINTS) -> List[Tuple[int, float]]:
    """Uniform-stride decimation that always keeps the last point."""
    n = len(series)
    if n <= budget:
        return series
    stride = -(-n // budget)  # ceil
    kept = series[::stride]
    if kept[-1] != series[-1]:
        kept.append(series[-1])
    return kept


def _num(v: float) -> Union[int, float]:
    """JSON-stable scalar: ints stay ints, floats round to 3 decimals."""
    f = float(v)
    if f.is_integer():
        return int(f)
    return round(f, 3)


class _LanePacker:
    """Greedy first-fit packing of possibly-overlapping spans into a
    bounded number of display lanes (used for the fluid CFS pool, where
    processor sharing has no real core assignment).  Deterministic:
    spans are packed in (start, end, tid) order."""

    def __init__(self, max_lanes: int):
        self.max_lanes = max_lanes
        self.lane_end: List[int] = []
        self.lanes: List[List[Tuple[int, int, int]]] = []
        self.overflow = 0

    def pack(self, spans: Sequence[Tuple[int, int, int]]) -> None:
        for start, end, tid in sorted(spans):
            placed = False
            for i, busy_until in enumerate(self.lane_end):
                if busy_until <= start:
                    self.lane_end[i] = end
                    self.lanes[i].append((start, end, tid))
                    placed = True
                    break
            if not placed:
                if len(self.lane_end) < self.max_lanes:
                    self.lane_end.append(end)
                    self.lanes.append([(start, end, tid)])
                else:
                    self.overflow += 1


def _coalesce(segs: List[List[int]], threshold: int) -> List[List[int]]:
    """Merge runs of consecutive short segments into aggregate blocks.

    A segment is ``[start, dur, tid, app, reason]``; an aggregate block
    is ``[start, dur, -1, -1, -1, count]``.  Only segments shorter than
    ``threshold`` separated by gaps shorter than ``threshold`` merge, so
    long slices stay individually hoverable at any zoom.
    """
    out: List[List[int]] = []
    for seg in segs:
        if out and seg[1] < threshold:
            prev = out[-1]
            gap_ok = seg[0] - (prev[0] + prev[1]) < threshold
            prev_mergeable = len(prev) == 6 or prev[1] < threshold
            if gap_ok and prev_mergeable:
                new_dur = seg[0] + seg[1] - prev[0]
                if len(prev) == 6:
                    prev[1] = new_dur
                    prev[5] += 1
                else:
                    out[-1] = [prev[0], new_dur, -1, -1, -1, 2]
                continue
        out.append(seg)
    return out


def _apply_segment_budget(lanes: List[Dict[str, object]], sim_time: int,
                          budget: int = MAX_SEGMENTS) -> int:
    """Coalesce dense lanes until the total segment count fits the
    budget.  The threshold doubles each round, so termination is
    guaranteed and two identical runs coalesce identically.  Returns
    the number of merge rounds applied (0 = untouched)."""
    rounds = 0
    threshold = max(1, sim_time // 4000)
    while sum(len(l["segs"]) for l in lanes) > budget and rounds < 20:
        for lane in lanes:
            lane["segs"] = _coalesce(lane["segs"], threshold)  # type: ignore[arg-type]
        threshold *= 2
        rounds += 1
    return rounds


def build_data(result, trace, metrics=None,
               title: Optional[str] = None, audit=None,
               why_top: int = 10) -> Dict[str, object]:
    """Compact one run into the ``repro.explore/1`` document.

    ``result`` is a :class:`repro.metrics.collector.RunResult`,
    ``trace`` a :class:`repro.trace.TraceRecorder` captured from the
    same run, ``metrics`` an optional
    :class:`repro.obs.MetricsRegistry` whose counter snapshot rides
    along for the accounting panel, ``audit`` an optional
    :class:`repro.why.AuditLog` that tags the embedded ``why`` section's
    wait segments with their decision-makers.  The ``why`` section
    (schema ``repro.why/1``) is byte-deterministic: it is keyed by
    ``req_id`` only, never raw tids.  Every capture carries it; older
    bundles load fine without it.
    """
    import numpy as np

    records = result.records
    sim_time = max(1, int(result.sim_time))
    label = f"{result.scheduler}/{result.engine}"

    # --- app colour classes (top apps by request count, rest "other") -
    app_counts: Dict[str, int] = {}
    for r in records:
        app_counts[r.app or "?"] = app_counts.get(r.app or "?", 0) + 1
    ranked = sorted(app_counts, key=lambda a: (-app_counts[a], a))
    apps = ranked[:MAX_APPS]
    app_idx = {a: i for i, a in enumerate(apps)}
    other_idx = len(apps)
    app_names = apps + (["other"] if len(ranked) > len(apps) else [])

    app_of_req: Dict[int, int] = {
        r.req_id: app_idx.get(r.app or "?", other_idx) for r in records
    }

    # --- walk the decision events once: lanes, names, fault marks
    reasons: List[str] = []
    reason_idx: Dict[str, int] = {}

    def rid(reason: str) -> int:
        i = reason_idx.get(reason)
        if i is None:
            i = reason_idx[reason] = len(reasons)
            reasons.append(reason)
        return i

    # raw tids come from a process-global counter, so two identical
    # runs in one process disagree on them; remap to dense ids in
    # stream-first-appearance order (deterministic) before embedding
    tid_map: Dict[int, int] = {}

    def tid_of(raw: int) -> int:
        if raw < 0:
            return raw
        mapped = tid_map.get(raw)
        if mapped is None:
            mapped = tid_map[raw] = len(tid_map)
        return mapped

    names: Dict[int, str] = {}
    app_of_tid: Dict[int, int] = {}
    core_segs: Dict[int, List[List[int]]] = {}
    worker_segs: Dict[int, List[List[int]]] = {}
    open_core: Dict[int, Tuple[int, int]] = {}
    open_worker: Dict[int, Tuple[int, int]] = {}
    open_pool: Dict[int, int] = {}
    pool_spans: List[Tuple[int, int, int]] = []
    fault_marks: List[Tuple[int, int, int]] = []
    fault_kind_idx: Dict[str, int] = {}
    fault_kinds: List[str] = []

    for e in trace.decisions:
        k = e.kind
        if k == tev.TASK_RUN:
            if e.core >= 0:
                open_core[e.core] = (tid_of(e.tid), e.ts)
            else:
                open_pool[tid_of(e.tid)] = e.ts
        elif k == tev.TASK_DESCHEDULE:
            reason = e.args[0] if e.args else ""
            if e.core >= 0:
                opened = open_core.pop(e.core, None)
                if opened is not None:
                    tid, start = opened
                    core_segs.setdefault(e.core, []).append(
                        [start, e.ts - start, tid,
                         app_of_tid.get(tid, other_idx), rid(reason)])
            else:
                start = open_pool.pop(tid_of(e.tid), None)
                if start is not None:
                    pool_spans.append((start, e.ts, tid_of(e.tid)))
        elif k == tev.TASK_SPAWN:
            name = e.args[0] if e.args else ""
            req_id = e.args[1] if len(e.args) > 1 else -1
            names[tid_of(e.tid)] = str(name) or f"req {req_id}"
            app_of_tid[tid_of(e.tid)] = app_of_req.get(req_id, other_idx)
        elif k == tev.SFS_PROMOTE:
            open_worker[e.core] = (tid_of(e.tid), e.ts)
        elif k in tev.WORKER_SPAN_CLOSERS:
            opened = open_worker.pop(e.core, None)
            if opened is not None:
                tid, start = opened
                worker_segs.setdefault(e.core, []).append(
                    [start, e.ts - start, tid,
                     app_of_tid.get(tid, other_idx),
                     rid(k.split(".", 1)[1])])
        elif k in _FAULT_MARK_KINDS:
            ki = fault_kind_idx.get(k)
            if ki is None:
                ki = fault_kind_idx[k] = len(fault_kinds)
                fault_kinds.append(k)
            fault_marks.append((e.ts, ki, tid_of(e.tid)))

    # defensively close anything still open at end of stream
    for core, (tid, start) in sorted(open_core.items()):
        core_segs.setdefault(core, []).append(
            [start, sim_time - start, tid,
             app_of_tid.get(tid, other_idx), rid("truncated")])
    for worker, (tid, start) in sorted(open_worker.items()):
        worker_segs.setdefault(worker, []).append(
            [start, sim_time - start, tid,
             app_of_tid.get(tid, other_idx), rid("truncated")])
    for tid, start in sorted(open_pool.items()):
        pool_spans.append((start, sim_time, tid))

    lanes: List[Dict[str, object]] = []
    for core in sorted(core_segs):
        lanes.append({"id": f"core {core}", "kind": "core",
                      "segs": core_segs[core]})
    for worker in sorted(worker_segs):
        lanes.append({"id": f"filter {worker}", "kind": "worker",
                      "segs": worker_segs[worker]})
    packer = _LanePacker(max_lanes=result.n_cores)
    packer.pack(pool_spans)
    pool_reason = rid("pool") if pool_spans else -1
    for i, spans in enumerate(packer.lanes):
        lanes.append({
            "id": f"pool {i}", "kind": "pool",
            "segs": [[s, e - s, tid, app_of_tid.get(tid, other_idx),
                      pool_reason] for s, e, tid in spans],
        })
    merge_rounds = _apply_segment_budget(lanes, sim_time)

    # tooltip names only for tids that survived into a lane
    lane_tids = {
        seg[2]
        for lane in lanes for seg in lane["segs"]  # type: ignore[union-attr]
        if seg[2] >= 0
    }
    task_names = {str(t): names.get(t, f"task {t}") for t in sorted(lane_tids)}

    # --- latency percentile curves over virtual time ------------------
    finishes = np.asarray([r.finish for r in records], dtype=float)
    turn_ms = np.asarray([r.turnaround for r in records], dtype=float) / 1e3
    edges = np.linspace(0.0, float(sim_time), PCT_BINS + 1)
    centers = [int(x) for x in ((edges[:-1] + edges[1:]) / 2)]
    which = np.clip(np.digitize(finishes, edges) - 1, 0, PCT_BINS - 1)
    pct_rows: Dict[str, List[Optional[float]]] = {
        "p50": [], "p90": [], "p99": []}
    counts: List[int] = []
    for b in range(PCT_BINS):
        sel = turn_ms[which == b]
        counts.append(int(sel.size))
        qs = (np.percentile(sel, (50, 90, 99), method=PERCENTILE_METHOD)
              if sel.size else (None, None, None))
        for key, v in zip(pct_rows, qs):
            pct_rows[key].append(None if v is None else _num(v))

    # --- gauge series for the queue chart -----------------------------
    queue_series = []
    for kind, series_label in _QUEUE_SERIES:
        pts = _gauge_points(trace, kind)
        if not pts:
            continue
        queue_series.append({"label": series_label, "pts": pts})
        if len(queue_series) >= _MAX_QUEUE_SERIES:
            break

    # --- faults -------------------------------------------------------
    manifest = result.manifest.to_dict() if result.manifest else {}
    cfg = manifest.get("config") or {}
    plan = cfg.get("faults") or {}
    windows = [[int(h), int(d), int(u)]
               for h, d, u in (plan.get("host_failures") or [])]
    stragglers = [[int(h), _num(s)]
                  for h, s in (plan.get("stragglers") or [])]
    marks = _decimate(fault_marks, MAX_FAULT_MARKS)

    # --- headline stats + tables --------------------------------------
    stats: Dict[str, object] = {
        "requests": len(records),
        "utilization": _num(result.utilization),
        "p50_ms": _num(np.percentile(turn_ms, 50,
                                     method=PERCENTILE_METHOD)) if records else 0,
        "p99_ms": _num(np.percentile(turn_ms, 99,
                                     method=PERCENTILE_METHOD)) if records else 0,
        "sim_time_ms": _num(sim_time / 1e3),
    }
    fault_stats = result.meta.get("fault_stats") if result.meta else None
    if fault_stats:
        ok = sum(1 for r in records if r.status == "ok")
        stats["goodput_fraction"] = _num(ok / max(1, len(records)))
    if result.sfs_stats is not None:
        s = result.sfs_stats
        stats["sfs"] = {
            "promoted": s.promoted,
            "finished_in_slice": s.completed_in_filter,
            "demoted_slice": s.demoted_slice,
            "demoted_io": s.demoted_io,
            "bypassed_overload": s.bypassed_overload,
        }

    slowest = sorted(records, key=lambda r: (-r.turnaround, r.req_id))
    slow_rows = [[r.req_id, r.name, r.app, r.arrival, r.dispatch, r.finish,
                  r.status, r.attempts] for r in slowest[:MAX_SLOWEST]]

    counters: Dict[str, int] = {}
    if metrics is not None and getattr(metrics, "enabled", False):
        for inst in metrics:
            if inst.kind == "counter":
                from repro.obs.instruments import _label_suffix

                counters[inst.name + _label_suffix(inst.labels)] = inst.value

    provenance = {k: v for k, v in manifest.items()
                  if k not in _NONDETERMINISTIC_MANIFEST_FIELDS}

    data: Dict[str, object] = {
        "schema": SCHEMA,
        "label": label,
        "title": title or label,
        "scheduler": result.scheduler,
        "engine": result.engine,
        "n_cores": result.n_cores,
        "sim_time_us": sim_time,
        "stats": stats,
        "apps": app_names,
        "reasons": reasons,
        "lanes": lanes,
        "pool_overflow": packer.overflow,
        "merge_rounds": merge_rounds,
        "tasks": task_names,
        "pcts": {"t": centers, "n": counts, **pct_rows},
        "queue_series": queue_series,
        "faults": {"windows": windows, "stragglers": stragglers,
                   "kinds": fault_kinds,
                   "marks": [[ts, ki, tid] for ts, ki, tid in marks]},
        "slowest": slow_rows,
        "counters": counters,
        "provenance": provenance,
    }
    from repro.why import build_timelines, build_why_doc

    data["why"] = build_why_doc(
        build_timelines(records, trace, audit=audit), top_blamed=why_top)
    return data


class RunBundle:
    """One run's compact explorer document (see module docstring)."""

    __slots__ = ("data",)

    def __init__(self, data: Dict[str, object]):
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"not a {SCHEMA} document "
                f"(schema={data.get('schema')!r})")
        for key in ("lanes", "stats", "pcts", "faults", "provenance"):
            if key not in data:
                raise ValueError(f"bundle document missing {key!r}")
        self.data = data

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, result, trace, metrics=None,
                title: Optional[str] = None, audit=None) -> "RunBundle":
        """Compact a finished run (result + trace [+ metrics][+ audit])."""
        return cls(build_data(result, trace, metrics=metrics, title=title,
                              audit=audit))

    @property
    def why(self) -> Optional[Dict[str, object]]:
        """The embedded ``repro.why/1`` section (None in older bundles)."""
        return self.data.get("why")  # type: ignore[return-value]

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        return str(self.data.get("label", "run"))

    @property
    def sim_time_us(self) -> int:
        return int(self.data["sim_time_us"])  # type: ignore[arg-type]

    def to_json(self) -> str:
        """Canonical byte-stable serialisation."""
        return json.dumps(self.data, sort_keys=True,
                          separators=(",", ":")) + "\n"

    def save(self, path: Union[str, Path]) -> Path:
        """Write the bundle; a directory path gets ``bundle.json``."""
        p = Path(path)
        if p.is_dir() or str(path).endswith(("/", ".")):
            p = p / "bundle.json"
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(self.to_json())
        return p

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunBundle":
        """Load a bundle file, or ``bundle.json`` inside a directory."""
        p = Path(path)
        if p.is_dir():
            p = p / "bundle.json"
        try:
            data = json.loads(p.read_text())
        except OSError as exc:
            raise ValueError(f"{path}: cannot read bundle: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
        try:
            return cls(data)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lanes = len(self.data.get("lanes", ()))  # type: ignore[arg-type]
        return f"<RunBundle {self.label} lanes={lanes}>"
