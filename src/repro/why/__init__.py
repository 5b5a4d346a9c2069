"""repro.why — per-request critical-path attribution.

Three pieces, each usable alone:

* :mod:`repro.why.audit` — the scheduler-decision audit stream: every
  pick / preempt / throttle / demote that a runqueue, an engine, or
  the SFS FILTER makes, as a compact :class:`DecisionRecord`, behind
  the same zero-overhead Null pattern as tracing and metrics.
* :mod:`repro.why.timeline` — per-request causal timelines: the exact
  partition of each request's ``[arrival, finish]`` window into
  queue / retry / wait / run / block segments, each tagged with the
  decision (and decision-maker) that caused it.  The partition sums
  *exactly* to the recorded end-to-end latency and agrees with the
  request records on wait, block and queue time, on both engines and
  every scheduler — enforced by the ``why-exact-sum`` fuzz oracle.
* :mod:`repro.why.blame` — critical-path blame aggregation across
  requests, the per-class latency breakdown ``repro report`` prints,
  the ``repro.why/1`` JSON document, and the offline deschedule-reason
  flamegraph.
"""

from repro.why.audit import (
    AuditLog,
    DecisionRecord,
    NULL_AUDIT,
    NullAudit,
)
from repro.why.blame import (
    WHY_SCHEMA,
    blame_diff,
    blame_flame,
    blame_totals,
    build_why_doc,
    latency_by_class,
    render_flamegraph,
    why_json,
)
from repro.why.timeline import (
    RequestTimeline,
    Segment,
    build_timelines,
    disagreement,
)

__all__ = [
    "AuditLog",
    "DecisionRecord",
    "NULL_AUDIT",
    "NullAudit",
    "RequestTimeline",
    "Segment",
    "WHY_SCHEMA",
    "blame_diff",
    "blame_flame",
    "blame_totals",
    "build_timelines",
    "build_why_doc",
    "disagreement",
    "latency_by_class",
    "render_flamegraph",
    "why_json",
]
