"""Per-request causal timelines.

:func:`build_timelines` reconstructs, for every request in a run, an
exact partition of its end-to-end latency ``[arrival, finish]`` into
typed segments — ``queue`` / ``coldstart`` / ``retry`` / ``run`` /
``block`` / ``wait`` — by replaying the trace stream
(:mod:`repro.trace.events`).  The partition is *exact by construction
checking*, not by clamping: segment boundaries come only from recorded
event timestamps, so ``sum(durations) == end_to_end`` is a genuine
reconstruction invariant (and the ``why-exact-sum`` fuzz oracle treats
any mismatch as a bug in either the engines' event emission or this
decomposition).

A stay in the fluid engine's shared CFS pool is one ``task.run`` /
``task.deschedule`` span of length D during which the task ran at a
fractional rate; the deschedule carries the stay's CPU credit c, and
the stay splits into ``run`` c then ``wait``/``share`` D - c.  The
segments therefore agree with the request records on every engine:
the ``wait`` segments sum to ``wait_time``, the ``block`` segments to
``io_demand`` and the ``queue`` segments to ``dispatch - arrival``.

Each ``wait`` segment is tagged with the deschedule reason that opened
it (the ``why`` payload of ``task.deschedule``) and — when a
scheduler-decision audit stream (:mod:`repro.why.audit`) was recorded —
with the *decision-maker* that caused it (``cfs:2``, ``rt``,
``sfs-worker:0``, ``kernel``, ``faults``), joining audit records to
trace events on ``(tid, ts)``.

Raw tids are process-global and **not** deterministic across runs, so
nothing here leaks them into output: timelines are keyed by ``req_id``
and segments carry only times, kinds, reasons, cores and actor names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.trace import events as tev

#: segment kinds, in canonical display order
SEGMENT_KINDS = ("queue", "coldstart", "retry", "run", "wait", "block")

#: kinds that count toward *blame* — time the request was not making
#: forward progress on CPU or in I/O.
BLAME_KINDS = ("queue", "coldstart", "retry", "wait")


class Segment(NamedTuple):
    """One slice of a request's end-to-end latency."""

    t0: int          #: virtual start time (us)
    dur: int         #: duration (us); always > 0 in built timelines
    kind: str        #: one of :data:`SEGMENT_KINDS`
    reason: str = ""  #: deschedule reason / gap cause ("" when n/a)
    #: core for ``run`` segments (-1 = no placed core: the fluid pool,
    #: SRTF, IDEAL)
    core: int = -1
    actor: str = ""  #: audited decision-maker that opened the segment

    @property
    def end(self) -> int:
        return self.t0 + self.dur

    def to_dict(self) -> dict:
        d = {"t0": self.t0, "dur": self.dur, "kind": self.kind}
        if self.reason:
            d["reason"] = self.reason
        if self.kind == "run":
            d["core"] = self.core
        if self.actor:
            d["actor"] = self.actor
        return d


@dataclass(frozen=True)
class RequestTimeline:
    """Exact decomposition of one request's end-to-end latency."""

    req_id: int
    name: str
    app: str
    status: str
    attempts: int
    arrival: int
    finish: int
    segments: Tuple[Segment, ...]
    #: hedge-race outcome: "" (not hedged), "primary-won",
    #: "backup-won", or "no-win" (both chains died)
    hedge: str = ""

    @property
    def end_to_end(self) -> int:
        return self.finish - self.arrival

    @property
    def total(self) -> int:
        return sum(s.dur for s in self.segments)

    @property
    def exact(self) -> bool:
        """Do the segments partition ``[arrival, finish]`` exactly?

        True iff durations sum to the end-to-end latency *and* the
        segments are contiguous and in order — the invariant the
        ``why-exact-sum`` fuzz oracle enforces.
        """
        cursor = self.arrival
        for seg in self.segments:
            if seg.t0 != cursor or seg.dur <= 0:
                return False
            cursor = seg.end
        return cursor == self.finish

    @property
    def blamed_us(self) -> int:
        """Total time attributed to scheduling/queueing/retry, not work."""
        return sum(s.dur for s in self.segments if s.kind in BLAME_KINDS)

    def by_kind(self) -> Dict[str, int]:
        """Microseconds per segment kind (kinds with no segment absent)."""
        out: Dict[str, int] = {}
        for s in self.segments:
            out[s.kind] = out.get(s.kind, 0) + s.dur
        return out


def disagreement(tl: RequestTimeline, rec) -> str:
    """The agreement law between a timeline and its request record.

    For an ok, single-attempt, un-hedged request the ``wait`` segments
    sum to the record's ``wait_time``, the ``block`` segments to its
    ``io_demand`` and the ``queue`` segments to ``dispatch - arrival``.
    Returns the first broken clause as text, or "" when the law holds
    or does not apply (retried and hedged requests carry several
    attempts' stories, the record only the last attempt's).
    """
    if rec.status != "ok" or rec.attempts != 1 or tl.hedge:
        return ""
    got = tl.by_kind()
    for kind, field, want in (
            ("wait", "wait_time", rec.wait_time),
            ("block", "io_demand", rec.io_demand),
            ("queue", "dispatch - arrival", rec.dispatch - rec.arrival)):
        if got.get(kind, 0) != want:
            return (f"{kind} segments sum to {got.get(kind, 0)}us but the "
                    f"record's {field} is {want}us")
    return ""


# ----------------------------------------------------------------------
# reconstruction
# ----------------------------------------------------------------------
_TASK_KINDS = (
    tev.TASK_SPAWN, tev.TASK_RUN, tev.TASK_DESCHEDULE, tev.TASK_BLOCK,
    tev.TASK_WAKE, tev.TASK_FINISH,
)


def _gap_segments(
    t0: int,
    t1: int,
    first: bool,
    fail_reason: str,
    coldstarts: Sequence[int],
) -> List[Segment]:
    """Decompose an off-OS gap ``[t0, t1]`` (before a spawn, or after
    the last attempt up to the recorded finish).

    The gap is split at every cold-start failure inside it: the piece
    *ending* at a ``fault.coldstart`` event is the failed provisioning
    attempt (kind ``coldstart``); the final piece is either the initial
    ``queue`` wait (first attempt, nothing failed before it) or a
    ``retry`` tagged with why the previous attempt failed.
    """
    out: List[Segment] = []
    cursor = t0
    seen_cold = False
    for c in coldstarts:
        if c <= cursor or c > t1:
            continue
        out.append(Segment(cursor, c - cursor, "coldstart", "provision"))
        cursor = c
        seen_cold = True
    if cursor < t1:
        if first and not seen_cold:
            out.append(Segment(cursor, t1 - cursor, "queue", "dispatch"))
        else:
            reason = "coldstart" if seen_cold else (fail_reason or "backoff")
            out.append(Segment(cursor, t1 - cursor, "retry", reason))
    return out


def build_timelines(
    records: Sequence,
    trace,
    audit=None,
) -> Dict[int, RequestTimeline]:
    """Reconstruct one :class:`RequestTimeline` per request record.

    ``records`` are :class:`repro.metrics.collector.RequestRecord`;
    ``trace`` is a :class:`repro.trace.recorder.TraceRecorder` captured
    from the *same* run (only its decision events are read: no gauge
    sample shapes a timeline), or an iterable of its events;
    ``audit`` is an optional :class:`repro.why.audit.AuditLog` used to
    tag wait segments with the decision-maker that opened them.
    """
    events = getattr(trace, "decisions", None)
    if events is None:
        events = list(trace)

    spawns: Dict[int, List[Tuple[int, int]]] = {}  # req -> [(ts, tid)]
    by_tid: Dict[int, List] = {}
    coldstarts: Dict[int, List[int]] = {}          # req -> [ts, ...]
    crashed: Dict[int, int] = {}                   # tid -> ts
    timed_out: Dict[int, int] = {}                 # tid -> ts
    hedge_launch: Dict[int, int] = {}              # req -> launch ts
    hedge_win: Dict[int, Tuple[int, str]] = {}     # req -> (tid, who)
    cancelled = set()                              # hedge-loser tids
    for e in events:
        k = e.kind
        if k == tev.TASK_SPAWN:
            spawns.setdefault(e.args[1], []).append((e.ts, e.tid))
            by_tid.setdefault(e.tid, []).append(e)
        elif k in _TASK_KINDS:
            by_tid.setdefault(e.tid, []).append(e)
        elif k == tev.FAULT_COLDSTART:
            coldstarts.setdefault(e.args[0], []).append(e.ts)
        elif k == tev.FAULT_CRASH:
            crashed[e.tid] = e.ts
        elif k == tev.FAULT_TIMEOUT:
            timed_out[e.tid] = e.ts
        elif k == tev.HEDGE_LAUNCH:
            hedge_launch[e.args[0]] = e.ts
        elif k == tev.HEDGE_WIN:
            hedge_win[e.args[0]] = (e.tid, e.args[1])
        elif k == tev.HEDGE_CANCEL:
            cancelled.add(e.tid)

    displaced = audit.by_displaced() if audit is not None else {}

    out: Dict[int, RequestTimeline] = {}
    for rec in records:
        segs: List[Segment] = []
        cursor = rec.arrival
        cold = coldstarts.get(rec.req_id, ())
        attempts = [a for a in spawns.get(rec.req_id, [])
                    if a[1] not in cancelled]
        hedge = ""
        if rec.req_id in hedge_win:
            # a hedge race was decided: the winning chain *is* the
            # request's latency story — walk only it, and charge the
            # pre-spawn gap of a backup win to a retry/"hedge" segment
            # from the launch instant onward.
            win_tid, who = hedge_win[rec.req_id]
            hedge = f"{who}-won"
            attempts = [a for a in attempts if a[1] == win_tid]
            if who == "backup" and attempts:
                launch = hedge_launch.get(rec.req_id, -1)
                spawn_ts = attempts[0][0]
                if cursor < launch < spawn_ts:
                    segs.append(Segment(cursor, launch - cursor,
                                        "queue", "dispatch"))
                    segs.append(Segment(launch, spawn_ts - launch,
                                        "retry", "hedge"))
                    cursor = spawn_ts
        elif rec.req_id in hedge_launch:
            hedge = "no-win"  # both chains died; fall through sequential
        fail_reason = ""
        first = True
        for spawn_ts, tid in attempts:
            if spawn_ts < cursor:
                # overlapping chain of an undecided hedge race: the
                # other chain already carried the cursor past this
                # spawn, so its story is not on the critical path
                continue
            segs.extend(_gap_segments(cursor, spawn_ts, first,
                                      fail_reason, cold))
            first = False
            cursor, fail_reason = _walk_attempt(
                by_tid.get(tid, ()), spawn_ts, tid, crashed, timed_out,
                displaced, segs)
        if cursor < rec.finish:
            # tail after the last attempt: backoff that exhausted, a
            # shed decision, or cold-start retries that never spawned.
            if rec.status == "shed":
                segs.append(Segment(cursor, rec.finish - cursor,
                                    "queue", "shed"))
            else:
                tail = _gap_segments(cursor, rec.finish, not attempts,
                                     fail_reason or "exhausted", cold)
                segs.extend(tail)
            cursor = rec.finish
        out[rec.req_id] = RequestTimeline(
            req_id=rec.req_id, name=rec.name, app=rec.app,
            status=rec.status, attempts=rec.attempts,
            arrival=rec.arrival, finish=rec.finish,
            segments=tuple(segs),
            hedge=hedge,
        )
    return out


def _walk_attempt(
    events,
    spawn_ts: int,
    tid: int,
    crashed: Dict[int, int],
    timed_out: Dict[int, int],
    displaced: Dict[Tuple[int, int], object],
    segs: List[Segment],
) -> Tuple[int, str]:
    """Partition one attempt's on-OS lifetime into segments.

    Walks the tid's task events as a state machine: each event closes
    the current segment at its timestamp and (except ``task.finish``)
    opens the next one.  ``task.migrate`` / ``task.policy`` are neutral
    — they change labels, not occupancy — and never appear here (only
    lifecycle kinds are indexed).  Returns ``(end_ts, fail_reason)``
    where ``fail_reason`` is non-empty when the attempt died to a
    fault.
    """
    cursor = spawn_ts
    kind, reason, core, actor = "wait", "runqueue", -1, ""
    end = spawn_ts
    for e in events:
        k = e.kind
        if k == tev.TASK_SPAWN:
            continue
        if e.ts > cursor:
            if k == tev.TASK_DESCHEDULE and len(e.args) > 1:
                # a shared stay (fluid pool) ends with its CPU credit:
                # that much ran, the rest waited on the shared cores
                ran = min(e.args[1], e.ts - cursor)
                if ran > 0:
                    segs.append(Segment(cursor, ran, kind, reason, core,
                                        actor))
                    cursor += ran
                kind, reason, core, actor = "wait", "share", -1, ""
            if e.ts > cursor:
                segs.append(Segment(cursor, e.ts - cursor, kind, reason,
                                    core, actor))
            cursor = e.ts
        if k == tev.TASK_RUN:
            kind, reason, core, actor = "run", "", e.core, ""
        elif k == tev.TASK_DESCHEDULE:
            why = e.args[0] if e.args else ""
            rec = displaced.get((tid, e.ts))
            kind, reason, core = "wait", why, -1
            actor = rec.actor if rec is not None else ""
        elif k == tev.TASK_BLOCK:
            kind, reason, core, actor = "block", "io", -1, ""
        elif k == tev.TASK_WAKE:
            kind, reason, core, actor = "wait", "wake", -1, ""
        elif k == tev.TASK_FINISH:
            end = e.ts
            break
    else:
        end = cursor
    fail = ""
    if tid in crashed:
        fail = "crash"
    elif tid in timed_out:
        fail = "timeout"
    return end, fail
