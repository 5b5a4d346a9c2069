"""Fault-tolerant parallel execution supervisor (the ``repro.pool`` core).

Shards independent work items — sweep points, chaos grid cells, fuzz
case indices — across N worker processes without giving up any of the
robustness substrate built in PRs 1-6:

* **heartbeats** — every worker pings the supervisor continuously; a
  worker that goes silent past ``HEARTBEAT_GRACE`` is presumed wedged
  (C-level hang, swap death) and killed.  A *slow* item keeps beating
  and is left alone.
* **portable deadlines** — each item runs under the thread-timer
  :func:`repro.experiments.artifacts.deadline` inside the worker (no
  ``SIGALRM`` in children), with a supervisor-side hard kill at
  ``2 * item_seconds + 5`` as the backstop the in-process timer cannot
  give.
* **bounded retries with decorrelated jitter** — an item whose worker
  died or whose deadline passed is retried up to ``max_retries``
  times, backing off via the exact
  :class:`repro.faults.policy.RetryPolicy` recurrence (``BACKOFF``) the
  simulated
  platform uses: the delay is a pure function of ``(seed, index,
  attempt)``, so two supervisors retrying the same item back off
  identically.  An item whose work function raised is not retried:
  every item is a pure function of its payload, so it would fail the
  same way again.
* **quarantine, not abort** — a failed item that is not retried is set aside
  into a replayable JSON report (schema ``repro.pool/1``) and the
  campaign keeps going; ``repro pool replay`` re-runs the poisoned
  items serially under a debugger-friendly single process.
* **graceful degradation** — a worker that dies mid-item (OOM kill,
  segfault, chaos monkey) is respawned and its item reassigned;
  ``MAX_RESPAWNS`` bounds the pathological case where workers cannot
  even start.
* **deterministic results** — results are returned in *item-index*
  order no matter which worker finished first, so whatever a caller
  merges from ``--workers N`` is byte-identical to the inline run.
  With an :class:`repro.experiments.artifacts.ArtifactStore` attached,
  every completed item is persisted incrementally (atomic write +
  sha256 manifest) and ``resume=True`` skips verified items — a
  SIGKILLed campaign resumed later converges to the same tree.
"""

from __future__ import annotations

import heapq
import json
import multiprocessing as mp
import os
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.artifacts import (
    ArtifactStore,
    ExperimentTimeout,
    atomic_write_text,
    watchdog,
)
from repro.faults.policy import RetryPolicy

#: quarantine report schema identifier (bump on incompatible change).
SCHEMA = "repro.pool/1"

#: how long the supervisor blocks on the result queue per pass (s).
_POLL_S = 0.05

#: worker heartbeat period (s)
HEARTBEAT_INTERVAL = 0.25
#: silence beyond this many seconds = wedged worker, kill it
HEARTBEAT_GRACE = 15.0
#: retry backoff recurrence (delays are ``BACKOFF.backoff(index,
#: attempt)`` microseconds of wall time — decorrelated jitter)
BACKOFF = RetryPolicy(max_attempts=64, base_backoff=20_000,
                      max_backoff=2_000_000)
#: total worker respawns tolerated before aborting the campaign
MAX_RESPAWNS = 16


class PoolError(RuntimeError):
    """The pool cannot make progress (bad items, worker spawn storm)."""


@dataclass(frozen=True)
class WorkItem:
    """One shard of a campaign: an id, its position, and its payload."""

    index: int
    item_id: str
    #: picklable argument handed to the work function; JSON-safe when
    #: the item should be replayable from a quarantine report
    payload: Any


@dataclass(frozen=True)
class PoolConfig:
    """Supervision knobs (all per-campaign, all validated)."""

    #: worker processes; 0 = inline serial execution in this process
    #: (same retry/quarantine semantics, no multiprocessing)
    workers: int = 1
    #: re-executions allowed after an item's worker died or its
    #: deadline passed (an item that raised is never retried)
    max_retries: int = 2
    #: per-item wall-clock bound enforced *inside* the worker via the
    #: portable thread-timer deadline (None = unbounded); the
    #: supervisor hard-kills a worker at ``2 * item_seconds + 5``
    item_seconds: Optional[float] = None
    #: chaos-monkey test hook: SIGKILL the worker the first time this
    #: item id is dispatched (exercises death + reassignment for real)
    chaos_kill: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.item_seconds is not None and self.item_seconds <= 0:
            raise ValueError("item_seconds must be positive")

    @property
    def hard_kill_seconds(self) -> Optional[float]:
        if self.item_seconds is not None:
            return 2.0 * self.item_seconds + 5.0
        return None


@dataclass
class ItemOutcome:
    """What ultimately happened to one work item."""

    item_id: str
    index: int
    #: "ok" | "skipped" (resume hit) | "quarantined"
    status: str
    #: executions started (0 for a resume skip)
    attempts: int = 0
    #: failure messages in attempt order (kind: message)
    errors: List[str] = field(default_factory=list)


@dataclass
class PoolReport:
    """Index-ordered results plus the supervision ledger."""

    #: one entry per item, in item-index order; None for quarantined
    results: List[Any]
    #: one entry per item, in item-index order
    outcomes: List[ItemOutcome]
    n_ok: int = 0
    n_skipped: int = 0
    n_retried: int = 0
    quarantine_path: Optional[str] = None

    @property
    def quarantined(self) -> List[ItemOutcome]:
        return [o for o in self.outcomes if o.status == "quarantined"]

    @property
    def complete(self) -> bool:
        return not self.quarantined


def task_name(fn: Callable[[Any], Any]) -> str:
    """Importable ``module:qualname`` spelling of a work function."""
    return f"{fn.__module__}:{fn.__qualname__}"


def resolve_task(name: str) -> Callable[[Any], Any]:
    """Inverse of :func:`task_name` (used by quarantine replay)."""
    import importlib

    module_name, _, qualname = name.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed task name {name!r} "
                         "(expected module:qualname)")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise ValueError(f"task {name!r} resolved to non-callable {obj!r}")
    return obj


def _normalise(items: Sequence[Tuple[str, Any]]) -> List[WorkItem]:
    out = [WorkItem(index=i, item_id=item_id, payload=payload)
           for i, (item_id, payload) in enumerate(items)]
    seen: Dict[str, int] = {}
    for it in out:
        if it.item_id in seen:
            raise PoolError(f"duplicate item id {it.item_id!r} "
                            f"(indices {seen[it.item_id]} and {it.index})")
        seen[it.item_id] = it.index
    return out


def _json_safe(payload: Any) -> Tuple[Any, bool]:
    """JSON form of a payload, and whether it round-trips (replayable)."""
    try:
        json.dumps(payload)
        return payload, True
    except (TypeError, ValueError):
        return {"__repr__": repr(payload)}, False


def write_quarantine(
    path: str,
    task: str,
    outcomes: Sequence[ItemOutcome],
    payload_of: Dict[int, Any],
) -> None:
    """Persist the poisoned items as a replayable ``repro.pool/1`` doc."""
    items = []
    for o in sorted(outcomes, key=lambda o: o.index):
        payload, replayable = _json_safe(payload_of[o.index])
        items.append({
            "item_id": o.item_id,
            "index": o.index,
            "attempts": o.attempts,
            "errors": list(o.errors),
            "payload": payload,
            "replayable": replayable,
        })
    doc = {"schema": SCHEMA, "task": task, "items": items}
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_quarantine(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: expected schema {SCHEMA!r}, "
                         f"got {doc.get('schema')!r}")
    if not isinstance(doc.get("items"), list):
        raise ValueError(f"{path}: quarantine report has no items list")
    return doc


def replay_quarantine(
    path: str,
    fn: Optional[Callable[[Any], Any]] = None,
    only: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Tuple[str, bool, str]]:
    """Re-run quarantined items serially; returns (id, ok, detail).

    ``fn`` overrides the task recorded in the report (tests); ``only``
    restricts the replay to one item id.  Failures re-raise nothing —
    the point is to reproduce the recorded error deterministically and
    report it, single-process, where a debugger can reach it.
    """
    doc = load_quarantine(path)
    work = fn if fn is not None else resolve_task(doc["task"])
    say = progress or (lambda _m: None)
    out: List[Tuple[str, bool, str]] = []
    for item in doc["items"]:
        if only is not None and item["item_id"] != only:
            continue
        if not item.get("replayable", True):
            out.append((item["item_id"], False,
                        "payload not JSON-replayable"))
            continue
        say(f"replaying {item['item_id']}")
        try:
            work(item["payload"])
            out.append((item["item_id"], True, "clean"))
        except Exception as exc:  # noqa: BLE001 - report, don't die
            out.append((item["item_id"], False,
                        f"{type(exc).__name__}: {exc}"))
    return out


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------
class _Slot:
    """One worker slot: process + private task queue + private result
    pipe + liveness state."""

    __slots__ = ("proc", "task_q", "results", "assigned", "started",
                 "last_seen")

    def __init__(self) -> None:
        self.proc = None
        self.task_q = None
        #: read end of the worker's result pipe; None once torn
        self.results = None
        self.assigned: Optional[int] = None  # item index
        self.started: float = 0.0
        self.last_seen: float = 0.0


class _Run:
    """Mutable campaign state shared by the serial and parallel paths."""

    def __init__(self, items: List[WorkItem], cfg: PoolConfig,
                 metrics: Optional[object],
                 progress: Optional[Callable[[str], None]]):
        self.items = items
        self.cfg = cfg
        self.say = progress or (lambda _m: None)
        self.results: List[Any] = [None] * len(items)
        self.outcomes: List[Optional[ItemOutcome]] = [None] * len(items)
        self.attempts = [0] * len(items)
        self.errors: List[List[str]] = [[] for _ in items]
        self.n_retried = 0
        self.chaos_armed = cfg.chaos_kill
        self.c_ok = self.c_retried = self.c_quarantined = None
        self.g_hb_age = None
        if metrics is not None:
            self.c_ok = metrics.counter(
                "repro_pool_items_ok_total",
                help="pool items completed successfully")
            self.c_retried = metrics.counter(
                "repro_pool_items_retried_total",
                help="pool item retries scheduled")
            self.c_quarantined = metrics.counter(
                "repro_pool_items_quarantined_total",
                help="pool items quarantined")
            self.g_hb_age = metrics.gauge(
                "repro_pool_heartbeat_age_seconds",
                help="oldest busy-worker heartbeat age", unit="s")

    def ok(self, index: int, result: Any, worker: str = "inline") -> None:
        if self.outcomes[index] is not None:
            return  # stale duplicate from a presumed-dead worker
        self.results[index] = result
        it = self.items[index]
        self.outcomes[index] = ItemOutcome(
            it.item_id, index, "ok",
            attempts=self.attempts[index], errors=self.errors[index])
        if self.c_ok is not None:
            self.c_ok.inc()
        self.say(f"{it.item_id}: ok ({worker})")

    def skip(self, index: int, result: Any) -> None:
        self.results[index] = result
        it = self.items[index]
        self.outcomes[index] = ItemOutcome(it.item_id, index, "skipped")
        self.say(f"{it.item_id}: verified artifact found, skipping")

    def fail(self, index: int, message: str,
             retry: bool = True) -> Optional[float]:
        """Record one failed attempt; returns the retry delay in
        seconds, or None when the item is now quarantined.

        ``attempts`` counts executions *started* (incremented at
        dispatch), so a retried item is quarantined once
        ``1 + max_retries`` executions have all failed; ``retry=False``
        (the work function raised) quarantines it at once.
        """
        self.errors[index].append(message)
        it = self.items[index]
        if retry and self.attempts[index] <= self.cfg.max_retries:
            self.n_retried += 1
            if self.c_retried is not None:
                self.c_retried.inc()
            delay_s = BACKOFF.backoff(index, self.attempts[index]) / 1e6
            self.say(f"{it.item_id}: attempt {self.attempts[index]} failed "
                     f"({message}); retrying in {delay_s:.3f}s")
            return delay_s
        self.outcomes[index] = ItemOutcome(
            it.item_id, index, "quarantined",
            attempts=self.attempts[index], errors=self.errors[index])
        if self.c_quarantined is not None:
            self.c_quarantined.inc()
        self.say(f"{it.item_id}: quarantined after "
                 f"{self.attempts[index]} attempts ({message})")
        return None

    def take_chaos_kill(self, index: int) -> bool:
        """Should this dispatch SIGKILL its worker?  Fires at most once."""
        if self.chaos_armed is not None \
                and self.items[index].item_id == self.chaos_armed:
            self.chaos_armed = None
            return True
        return False

    @property
    def done(self) -> bool:
        return all(o is not None for o in self.outcomes)


def _run_serial(run: _Run, fn: Callable[[Any], Any], todo: List[int]) -> None:
    """Inline execution with identical retry/quarantine semantics."""
    pending = list(todo)
    while pending:
        index = pending.pop(0)
        it = run.items[index]
        run.attempts[index] += 1
        try:
            with watchdog(run.cfg.item_seconds):
                result = fn(it.payload)
        except ExperimentTimeout as exc:
            delay = run.fail(index, f"timeout: {exc}")
            if delay is not None:
                time.sleep(delay)
                pending.insert(0, index)
            continue
        except Exception as exc:  # noqa: BLE001 - continue the campaign
            run.fail(index, f"exception: {type(exc).__name__}: {exc}",
                     retry=False)
            continue
        run.ok(index, result)


def _spawn(ctx, slot: _Slot, slot_id: int, fn, cfg: PoolConfig):
    """Start (or restart) the slot's worker with fresh channels: a
    worker killed mid-write can only have torn its own."""
    from repro.pool.worker import worker_main

    _close_results(slot)
    slot.task_q = ctx.Queue()
    slot.results, writer = ctx.Pipe(duplex=False)
    slot.proc = ctx.Process(
        target=worker_main,
        args=(slot_id, fn, slot.task_q, writer,
              HEARTBEAT_INTERVAL, cfg.item_seconds, os.getpid()),
        daemon=True,
    )
    slot.proc.start()
    # the worker holds the only write end, so its death reads as EOF
    writer.close()
    slot.assigned = None
    slot.last_seen = time.monotonic()


def _close_results(slot: _Slot) -> None:
    if slot.results is not None:
        slot.results.close()
        slot.results = None


def _receive(slots: List[_Slot]) -> List[tuple]:
    """Every message the workers have sent, waiting up to ``_POLL_S``
    for the first.  A pipe whose worker died (EOF, or a message cut off
    mid-write) is closed; the liveness pass respawns its slot."""
    live = [slot.results for slot in slots if slot.results is not None]
    messages = []
    for conn in wait(live, timeout=_POLL_S):
        slot = next(s for s in slots if s.results is conn)
        try:
            while conn.poll():
                messages.append(conn.recv())
        except (EOFError, OSError):
            _close_results(slot)
    return messages


def _kill_slot(slot: _Slot) -> None:
    proc = slot.proc
    if proc is None:
        return
    try:
        proc.kill()
    except (AttributeError, OSError):  # pragma: no cover - py<3.7 / raced
        proc.terminate()
    proc.join(timeout=2.0)


def _run_parallel(run: _Run, fn: Callable[[Any], Any],
                  todo: List[int]) -> None:
    """The supervisor proper: dispatch, heartbeat-watch, retry, respawn."""
    cfg = run.cfg
    start_method = ("fork" if "fork" in mp.get_all_start_methods()
                    else "spawn")
    ctx = mp.get_context(start_method)
    n_workers = max(1, min(cfg.workers, len(todo)))
    slots = [_Slot() for _ in range(n_workers)]
    #: min-heap of (ready_at, index) items awaiting a worker
    ready: List[Tuple[float, int]] = [(0.0, i) for i in todo]
    heapq.heapify(ready)
    respawns = 0
    hard_kill = cfg.hard_kill_seconds

    def dispatch(slot_id: int) -> None:
        slot = slots[slot_id]
        if slot.assigned is not None or not ready:
            return
        now = time.monotonic()
        if ready[0][0] > now:
            return
        _, index = heapq.heappop(ready)
        it = run.items[index]
        run.attempts[index] += 1
        slot.assigned = index
        slot.started = slot.last_seen = now
        slot.task_q.put(("run", index, it.item_id, it.payload,
                         run.take_chaos_kill(index)))

    def fail_assigned(slot_id: int, message: str,
                      retry: bool = True) -> None:
        slot = slots[slot_id]
        index, slot.assigned = slot.assigned, None
        if index is None or run.outcomes[index] is not None:
            return
        delay = run.fail(index, message, retry)
        if delay is not None:
            heapq.heappush(ready, (time.monotonic() + delay, index))

    try:
        for slot_id, slot in enumerate(slots):
            _spawn(ctx, slot, slot_id, fn, cfg)
            dispatch(slot_id)

        while not run.done:
            for msg in _receive(slots):
                kind, slot_id, index = msg[0], msg[1], msg[2]
                slot = slots[slot_id]
                if kind == "hb":
                    slot.last_seen = time.monotonic()
                    continue
                if kind == "ok":
                    run.ok(index, msg[3], worker=f"worker {slot_id}")
                    if slot.assigned == index:
                        slot.assigned = None
                        slot.last_seen = time.monotonic()
                    continue
                if kind == "err":
                    if slot.assigned != index:
                        continue  # stale report from a replaced worker
                    slot.last_seen = time.monotonic()
                    fail_assigned(slot_id, f"{msg[3]}: {msg[4]}",
                                  retry=msg[3] != "exception")

            # -- liveness: dead, silent, or overdue workers ------------
            now = time.monotonic()
            oldest_age = 0.0
            for slot_id, slot in enumerate(slots):
                if not slot.proc.is_alive():
                    exitcode = slot.proc.exitcode
                    fail_assigned(slot_id,
                                  f"worker died (exit code {exitcode})")
                    if not run.done:
                        respawns += 1
                        if respawns > MAX_RESPAWNS:
                            raise PoolError(
                                f"gave up after {respawns} worker respawns "
                                f"(last exit code {exitcode})")
                        _spawn(ctx, slot, slot_id, fn, cfg)
                    continue
                if slot.assigned is not None:
                    age = now - slot.last_seen
                    oldest_age = max(oldest_age, age)
                    overdue = (hard_kill is not None
                               and now - slot.started > hard_kill)
                    if age > HEARTBEAT_GRACE or overdue:
                        why = (f"exceeded hard deadline {hard_kill}s"
                               if overdue else
                               f"heartbeat stalled for {age:.1f}s")
                        _kill_slot(slot)
                        fail_assigned(slot_id, why)
                        respawns += 1
                        if respawns > MAX_RESPAWNS:
                            raise PoolError(
                                f"gave up after {respawns} worker respawns "
                                f"({why})")
                        _spawn(ctx, slot, slot_id, fn, cfg)
            if run.g_hb_age is not None:
                run.g_hb_age.set(oldest_age)

            for slot_id in range(n_workers):
                dispatch(slot_id)
    finally:
        for slot in slots:
            if slot.proc is not None and slot.proc.is_alive():
                try:
                    slot.task_q.put_nowait(None)
                except Exception:
                    pass
        deadline_join = time.monotonic() + 1.0
        for slot in slots:
            if slot.proc is not None:
                slot.proc.join(timeout=max(0.0,
                                           deadline_join - time.monotonic()))
                if slot.proc.is_alive():
                    _kill_slot(slot)
            _close_results(slot)


def run_pool(
    items: Sequence[Tuple[str, Any]],
    fn: Callable[[Any], Any],
    cfg: PoolConfig = PoolConfig(),
    store: Optional[ArtifactStore] = None,
    config_for: Optional[Callable[[str], Dict[str, Any]]] = None,
    resume: bool = False,
    quarantine_path: Optional[str] = None,
    metrics: Optional[object] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> PoolReport:
    """Execute ``fn`` over ``items`` under full supervision.

    ``items`` is a sequence of ``(item_id, payload)``; ``fn`` must be a
    picklable module-level callable (the workers import it by
    reference under the ``spawn`` start method).  With ``store`` set,
    results must be strings: each is persisted atomically as it
    arrives, and ``resume=True`` skips items whose artifacts verify.
    Items that exhaust their retries land in the quarantine report
    instead of aborting the run; the report path defaults to
    ``<store.root>/quarantine.json``.
    """
    work = _normalise(items)
    run = _Run(work, cfg, metrics, progress)
    cfg_for = config_for or (lambda item_id: {"item_id": item_id})

    todo: List[int] = []
    for it in work:
        if resume and store is not None \
                and store.verify(it.item_id, cfg_for(it.item_id)):
            run.skip(it.index, store.read(it.item_id))
        else:
            todo.append(it.index)

    if store is not None:
        # persist incrementally: wrap ok() so every completed item
        # lands in the store the moment it is reduced
        plain_ok = run.ok

        def persisting_ok(index: int, result: Any,
                          worker: str = "inline") -> None:
            already = run.outcomes[index] is not None
            plain_ok(index, result, worker=worker)
            if already:
                return
            if not isinstance(result, str):
                raise PoolError(
                    f"store-backed pools need str results; "
                    f"{run.items[index].item_id} produced "
                    f"{type(result).__name__}")
            store.write(run.items[index].item_id, result,
                        cfg_for(run.items[index].item_id))

        run.ok = persisting_ok  # type: ignore[method-assign]
    if todo:
        if cfg.workers <= 0:
            _run_serial(run, fn, todo)
        else:
            _run_parallel(run, fn, todo)

    outcomes = [o for o in run.outcomes if o is not None]
    report = PoolReport(
        results=run.results,
        outcomes=outcomes,
        n_ok=sum(o.status == "ok" for o in outcomes),
        n_skipped=sum(o.status == "skipped" for o in outcomes),
        n_retried=run.n_retried,
    )

    q_path = quarantine_path
    if q_path is None and store is not None:
        q_path = os.path.join(store.root, "quarantine.json")
    if q_path is not None:
        if report.quarantined:
            write_quarantine(q_path, task_name(fn), report.quarantined,
                             {it.index: it.payload for it in work})
            report.quarantine_path = q_path
        elif os.path.exists(q_path):
            os.remove(q_path)  # an earlier run's poison has been cured
    return report
