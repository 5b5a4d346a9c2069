"""Trace exporters: Chrome trace-event JSON and JSONL.

Two renderings of the same event stream:

* :func:`to_chrome` — the Chrome trace-event format (the JSON object
  form), loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  Track layout:

  - process **machine** — one thread per core; on-CPU intervals are
    complete (``"X"``) slices named after the running function, with
    the deschedule reason in ``args``;
  - process **sfs** — one thread per FILTER worker carrying the
    promote→demote/finish occupancy slices, plus a ``queue`` thread of
    instant decision events (bypass, watch, skip) and counters for the
    global queue, watch list and adaptive slice S;
  - process **requests** — one async span per request from OS dispatch
    to exit (complete for every finished request), annotated with
    block/wake/policy-change instants;
  - process **cfs pool** — async spans for time spent in the fluid
    engine's processor-sharing pool (the fluid analogue of per-core
    residency);
  - process **faults** — instant events for the fault-injection and
    failure-handling lifecycle (crashes, cold-start failures, timeouts,
    host down/up, retry backoff/exhaustion, admission sheds), plus
    counters for the unhealthy-host count and the retry-budget tokens;
  - process **platform** — per-host counters of the OpenLambda
    invocations in flight and the warm containers cached.

  Every ``gauge.*`` kind has a counter track; a per-core or per-host
  kind gets one track per core (``runqueue.core<N>``) or host
  (``outstanding.host<N>``).

* :func:`to_jsonl_lines` — one self-describing JSON object per line
  (manifest first), for programmatic analysis with ``jq``/pandas.

Both embed the :class:`repro.trace.manifest.RunManifest`.
:func:`write_trace` dispatches on the file extension (``.jsonl`` =
JSONL, anything else = Chrome JSON).
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional

from repro.trace import events as ev
from repro.trace.manifest import RunManifest
from repro.trace.recorder import TraceRecorder

# Chrome trace "process" ids, one per track group.
PID_MACHINE = 1
PID_SFS = 2
PID_REQUESTS = 3
PID_POOL = 4
PID_FAULTS = 5
PID_PLATFORM = 6
#: thread id of the SFS decision-instant row (after any worker row).
SFS_QUEUE_TID = 10_000

_COUNTER_GAUGES: Dict[str, tuple] = {
    # kind -> (pid, counter name, series name, per-track label); a
    # labelled kind's event ``core`` (>= 0) names its own track
    ev.GAUGE_RUNNABLE: (PID_MACHINE, "runnable", "tasks", None),
    ev.GAUGE_IDLE_CORES: (PID_MACHINE, "idle_cores", "cores", None),
    ev.GAUGE_RUNQUEUE: (PID_MACHINE, "runqueue", "tasks", "core"),
    ev.GAUGE_RT_QUEUE: (PID_MACHINE, "rt_queue", "tasks", None),
    ev.GAUGE_POOL: (PID_MACHINE, "cfs_pool", "tasks", None),
    ev.GAUGE_RT_RUNNING: (PID_MACHINE, "rt_running", "cores", None),
    ev.GAUGE_GLOBAL_QUEUE: (PID_SFS, "global_queue", "requests", None),
    ev.GAUGE_WATCH_LIST: (PID_SFS, "watch_list", "tasks", None),
    ev.GAUGE_BUSY_WORKERS: (PID_SFS, "busy_workers", "workers", None),
    ev.SFS_SLICE: (PID_SFS, "slice_S", "us", None),
    ev.GAUGE_OUTSTANDING: (PID_PLATFORM, "outstanding", "invocations",
                           "host"),
    ev.GAUGE_KEEPALIVE: (PID_PLATFORM, "keepalive", "containers", "host"),
    ev.GAUGE_UNHEALTHY: (PID_FAULTS, "unhealthy_hosts", "hosts", None),
    ev.GAUGE_RETRY_TOKENS: (PID_FAULTS, "retry_tokens", "tokens", None),
}

_REQUEST_INSTANTS = (ev.TASK_BLOCK, ev.TASK_WAKE, ev.TASK_POLICY,
                     ev.TASK_MIGRATE)

_SFS_INSTANTS = (ev.SFS_SUBMIT, ev.SFS_RESUBMIT, ev.SFS_OVERLOAD,
                 ev.SFS_SKIP_FINISHED, ev.SFS_WATCH_AT_POP, ev.SFS_WATCH,
                 ev.SFS_WATCH_FINISH)

_FAULT_INSTANTS = (ev.FAULT_CRASH, ev.FAULT_COLDSTART, ev.FAULT_TIMEOUT,
                   ev.FAULT_HOST_DOWN, ev.FAULT_HOST_UP, ev.RETRY_BACKOFF,
                   ev.RETRY_EXHAUSTED, ev.SHED_REQUEST)


def _named_args(e: ev.TraceEvent) -> dict:
    names = ev.EVENT_FIELDS.get(e.kind)
    if names is not None and len(e.args) <= len(names):
        return dict(zip(names, e.args))
    return {"args": list(e.args)} if e.args else {}


def to_chrome(recorder: TraceRecorder,
              manifest: Optional[RunManifest] = None) -> dict:
    """Render the event stream as a Chrome trace-event JSON object."""
    stream = recorder.events
    max_ts = stream[-1].ts if stream else 0
    n_cores = manifest.n_cores if manifest is not None else 1 + max(
        (e.core for e in stream), default=0
    )

    out: List[dict] = []
    names: Dict[int, str] = {}          # tid -> display name
    open_core: Dict[int, tuple] = {}    # core  -> (tid, start_ts)
    open_worker: Dict[int, tuple] = {}  # worker -> (tid, start_ts)
    workers_seen: set = set()

    def task_name(tid: int) -> str:
        return names.get(tid) or f"task {tid}"

    def close_core(core: int, end_ts: int, reason: str) -> None:
        opened = open_core.pop(core, None)
        if opened is None:
            return
        tid, start = opened
        out.append({
            "name": task_name(tid), "cat": "run", "ph": "X",
            "ts": start, "dur": end_ts - start,
            "pid": PID_MACHINE, "tid": core,
            "args": {"tid": tid, "reason": reason},
        })

    def close_worker(worker: int, end_ts: int, outcome: str) -> None:
        opened = open_worker.pop(worker, None)
        if opened is None:
            return
        tid, start = opened
        out.append({
            "name": task_name(tid), "cat": "filter", "ph": "X",
            "ts": start, "dur": end_ts - start,
            "pid": PID_SFS, "tid": worker,
            "args": {"tid": tid, "outcome": outcome},
        })

    for e in stream:
        k = e.kind
        if k == ev.TASK_RUN:
            if e.core >= 0:
                open_core[e.core] = (e.tid, e.ts)
            else:  # fluid CFS pool residency: overlapping -> async span
                out.append({
                    "name": task_name(e.tid), "cat": "pool", "ph": "b",
                    "id": e.tid, "ts": e.ts, "pid": PID_POOL, "tid": 0,
                })
        elif k == ev.TASK_DESCHEDULE:
            reason = e.args[0] if e.args else ""
            if e.core >= 0:
                close_core(e.core, e.ts, reason)
            else:
                out.append({
                    "name": task_name(e.tid), "cat": "pool", "ph": "e",
                    "id": e.tid, "ts": e.ts, "pid": PID_POOL, "tid": 0,
                    "args": {"reason": reason},
                })
        elif k == ev.TASK_SPAWN:
            name = (e.args[0] if e.args else "") or f"req {e.args[1] if len(e.args) > 1 else e.tid}"
            names[e.tid] = name
            out.append({
                "name": name, "cat": "request", "ph": "b", "id": e.tid,
                "ts": e.ts, "pid": PID_REQUESTS, "tid": 0,
                "args": _named_args(e),
            })
        elif k == ev.TASK_FINISH:
            out.append({
                "name": task_name(e.tid), "cat": "request", "ph": "e",
                "id": e.tid, "ts": e.ts, "pid": PID_REQUESTS, "tid": 0,
            })
        elif k in _REQUEST_INSTANTS:
            out.append({
                "name": k.split(".", 1)[1], "cat": "request", "ph": "n",
                "id": e.tid, "ts": e.ts, "pid": PID_REQUESTS, "tid": 0,
                "args": _named_args(e),
            })
        elif k == ev.SFS_PROMOTE:
            workers_seen.add(e.core)
            open_worker[e.core] = (e.tid, e.ts)
        elif k in ev.WORKER_SPAN_CLOSERS:
            close_worker(e.core, e.ts, k.split(".", 1)[1])
        elif k in _SFS_INSTANTS:
            out.append({
                "name": k.split(".", 1)[1], "cat": "sfs", "ph": "i",
                "s": "t", "ts": e.ts, "pid": PID_SFS, "tid": SFS_QUEUE_TID,
                "args": {"tid": e.tid, **_named_args(e)},
            })
        elif k in _FAULT_INSTANTS:
            cat, name = k.split(".", 1)  # "fault" | "retry" | "shed"
            args = {"tid": e.tid, **_named_args(e)}
            if k in (ev.FAULT_HOST_DOWN, ev.FAULT_HOST_UP):
                args = {"host": e.core}
            out.append({
                "name": name, "cat": cat, "ph": "i", "s": "p",
                "ts": e.ts, "pid": PID_FAULTS, "tid": 0, "args": args,
            })
        elif k in _COUNTER_GAUGES:
            pid, cname, series, label = _COUNTER_GAUGES[k]
            if label is not None and e.core >= 0:
                cname = f"{cname}.{label}{e.core}"
            out.append({
                "name": cname, "ph": "C", "ts": e.ts, "pid": pid, "tid": 0,
                "args": {series: e.args[0] if e.args else 0},
            })

    # a drained run leaves nothing open; close defensively regardless
    for core in sorted(open_core):
        close_core(core, max_ts, "truncated")
    for worker in sorted(open_worker):
        close_worker(worker, max_ts, "truncated")

    meta: List[dict] = []

    def _meta(pid: int, name: str, tid: Optional[int] = None,
              what: str = "process_name") -> None:
        record = {"name": what, "ph": "M", "pid": pid,
                  "args": {"name": name}}
        if tid is not None:
            record["tid"] = tid
        meta.append(record)

    _meta(PID_MACHINE, "machine")
    for core in range(n_cores):
        _meta(PID_MACHINE, f"core {core}", tid=core, what="thread_name")
    _meta(PID_SFS, "sfs")
    for worker in sorted(workers_seen):
        _meta(PID_SFS, f"worker {worker}", tid=worker, what="thread_name")
    _meta(PID_SFS, "queue", tid=SFS_QUEUE_TID, what="thread_name")
    _meta(PID_REQUESTS, "requests")
    _meta(PID_POOL, "cfs pool")
    _meta(PID_FAULTS, "faults")
    _meta(PID_PLATFORM, "platform")

    doc = {
        "traceEvents": meta + out,
        "displayTimeUnit": "ms",
        "metadata": {},
    }
    if manifest is not None:
        doc["metadata"]["runManifest"] = manifest.to_dict()
    return doc


def to_jsonl_lines(recorder: TraceRecorder,
                   manifest: Optional[RunManifest] = None) -> Iterator[str]:
    """Yield one compact JSON object per line, manifest first."""
    if manifest is not None:
        yield json.dumps({"type": "manifest", **manifest.to_dict()},
                         separators=(",", ":"))
    for e in recorder.iter_events():
        yield json.dumps({"type": "event", **e.to_dict()},
                         separators=(",", ":"))


def write_trace(path: str, recorder: TraceRecorder,
                manifest: Optional[RunManifest] = None,
                fmt: Optional[str] = None) -> str:
    """Write the trace to ``path``; format from ``fmt`` or the extension.

    ``fmt`` may be ``"chrome"`` or ``"jsonl"``; when None, ``*.jsonl``
    selects JSONL and anything else the Chrome trace-event format.
    Returns ``path``.
    """
    if fmt is None:
        fmt = "jsonl" if str(path).endswith(".jsonl") else "chrome"
    if fmt not in ("chrome", "jsonl"):
        raise ValueError(f"unknown trace format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "jsonl":
            for line in to_jsonl_lines(recorder, manifest):
                fh.write(line + "\n")
        else:
            json.dump(to_chrome(recorder, manifest), fh)
            fh.write("\n")
    return str(path)
