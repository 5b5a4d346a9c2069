"""The scheduler-decision audit stream.

Where the trace answers *what happened to task 517*, the audit stream
answers *who decided that*: every scheduler decision — a runqueue pick,
a wakeup or RT preemption, a slice/quantum expiry, RT bandwidth
throttling, an SFS FILTER promotion or demotion, a fault kill — is one
compact :class:`DecisionRecord` naming the actor that made it, the task
it chose, and the task it displaced.

The log is the third sink behind the simulator's
:class:`repro.obs.probe.Probe`, which maps each decision to its audit
record alongside the trace event and instrument update; the default is
the shared :data:`NULL_AUDIT` whose ``enabled`` is False and whose
``record`` is a no-op.  Components guard each decision site with the
probe's cached ``enabled`` flag, so a run with only null sinks pays one
attribute load and one predicted branch per site
(``benchmarks/bench_probe_overhead.py`` guards this).

Install the log on the :class:`repro.sim.engine.Simulator` before
machines are built — ``Simulator(audit=AuditLog())`` — exactly like a
trace recorder.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

# ----------------------------------------------------------------------
# decision vocabulary
# ----------------------------------------------------------------------
#: a runqueue chose the next task to run
OP_PICK = "pick"
#: a wakeup / RT dispatch displaced the running task
OP_PREEMPT = "preempt"
#: fair-class slice expiry rotated the running task out
OP_SLICE = "slice"
#: SCHED_RR quantum expiry rotated the running task out
OP_QUANTUM = "quantum"
#: RT group bandwidth exhausted; the RT task was throttled off-CPU
OP_THROTTLE = "throttle"
#: sched_setscheduler moved a running task between classes
OP_RECLASS = "reclass"
#: the fault layer killed the task
OP_KILL = "kill"
#: SFS FILTER granted a run-to-completion slice (promotion to RT)
OP_PROMOTE = "promote"
#: SFS FILTER took the slice back (budget exhausted or I/O detected)
OP_DEMOTE = "demote"
#: SFS overload detector left the task in CFS (Fig 4 step 4.4)
OP_BYPASS = "bypass"

#: every op, in display order
AUDIT_OPS = (
    OP_PICK, OP_PREEMPT, OP_SLICE, OP_QUANTUM, OP_THROTTLE,
    OP_RECLASS, OP_KILL, OP_PROMOTE, OP_DEMOTE, OP_BYPASS,
)


class DecisionRecord(NamedTuple):
    """One scheduler decision.

    ``chosen`` is the task the decision favoured (the picked / promoted
    / preempting task), ``displaced`` the task it cost (the preempted /
    demoted / throttled one); either may be -1 when the slot does not
    apply.  ``reason`` carries the same reason code the matching
    ``task.deschedule`` trace event carries, so the two streams join.
    ``arg`` is op-specific detail (granted slice for ``promote``,
    remaining budget for ``demote``, ...).
    """

    ts: int
    op: str
    actor: str
    chosen: int = -1
    displaced: int = -1
    reason: str = ""
    arg: object = None


class NullAudit:
    """Does nothing, as cheaply as possible (the default everywhere)."""

    __slots__ = ()

    enabled: bool = False

    def record(self, ts: int, op: str, actor: str, chosen: int = -1,
               displaced: int = -1, reason: str = "",
               arg: object = None) -> None:
        """No-op; real logs append a :class:`DecisionRecord`."""

    def __len__(self) -> int:
        return 0


#: shared do-nothing singleton — safe because it is stateless
NULL_AUDIT = NullAudit()


class AuditLog(NullAudit):
    """In-memory decision log (install via ``Simulator(audit=...)``)."""

    __slots__ = ("records",)

    enabled = True

    def __init__(self) -> None:
        self.records: List[DecisionRecord] = []

    def record(self, ts: int, op: str, actor: str, chosen: int = -1,
               displaced: int = -1, reason: str = "",
               arg: object = None) -> None:
        self.records.append(
            DecisionRecord(ts, op, actor, chosen, displaced, reason, arg))

    # -- analysis helpers ----------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def op_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for rec in self.records:
            counts[rec.op] = counts.get(rec.op, 0) + 1
        return counts

    def by_op(self, op: str) -> List[DecisionRecord]:
        return [r for r in self.records if r.op == op]

    def by_displaced(self) -> Dict[Tuple[int, int], DecisionRecord]:
        """Index by ``(displaced tid, ts)`` — how timeline reconstruction
        joins a wait segment to the decision that opened it.  Last
        record wins on the (rare) same-instant collision, matching the
        causal order of same-timestamp events."""
        return {(r.displaced, r.ts): r for r in self.records
                if r.displaced >= 0}
