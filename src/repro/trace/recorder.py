"""Trace recorders.

A recorder is a two-method sink:

* ``enabled`` — class-level flag;
* ``emit(ts, kind, tid, core, args)`` — append one event.

Instrumented layers never call a recorder directly: the simulator's
:class:`repro.obs.probe.Probe` maps each scheduling decision to its
trace event, and every site is guarded by the probe's ``enabled`` flag,
so a run with only null sinks pays a pointer load and a predictable
branch per site — nothing else.  :class:`NullRecorder` is the default
everywhere; its ``emit`` is a no-op for runs whose probe is on for
another sink.  :class:`TraceRecorder` appends :class:`TraceEvent`
tuples to an in-memory list; exporters (:mod:`repro.trace.export`) turn
that list into Chrome trace-event JSON or JSONL after the run.

Recorders are installed on the :class:`repro.sim.engine.Simulator`
(``Simulator(trace=...)``) **before** machines and schedulers are
constructed — components cache the simulator's probe once.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from repro.trace.events import TraceEvent


class NullRecorder:
    """Do-nothing recorder; the zero-overhead default."""

    __slots__ = ()

    enabled: bool = False

    def emit(self, ts: int, kind: str, tid: int = -1, core: int = -1,
             args: Tuple = ()) -> None:  # pragma: no cover - never hot
        return None

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullRecorder>"


#: shared singleton — every uninstrumented run points here.
NULL_RECORDER = NullRecorder()


class TraceRecorder(NullRecorder):
    """In-memory structured event recorder.

    ``gauge_interval`` (integer microseconds) sets how often the gauge
    sampler (:meth:`repro.obs.probe.Probe.attach_sampler`) snapshots queue depths while a
    run is live.
    """

    __slots__ = ("events", "gauge_interval")

    enabled = True

    def __init__(self, gauge_interval: int = 10_000):
        if gauge_interval <= 0:
            raise ValueError("gauge_interval must be positive")
        self.events: List[TraceEvent] = []
        self.gauge_interval = gauge_interval

    def emit(self, ts: int, kind: str, tid: int = -1, core: int = -1,
             args: Tuple = ()) -> None:
        self.events.append(TraceEvent(ts, kind, tid, core, args))

    # ------------------------------------------------------------------
    # post-run inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def kind_counts(self) -> Dict[str, int]:
        """Event count per kind (the reconciliation surface for stats)."""
        return dict(Counter(e.kind for e in self.events))

    def by_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def by_tid(self, tid: int) -> List[TraceEvent]:
        return [e for e in self.events if e.tid == tid]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceRecorder {len(self.events)} events>"
