"""Trace recorders.

A recorder is a two-method sink:

* ``enabled`` — class-level flag;
* ``emit(ts, kind, tid, core, args)`` — append one event.

An enabled recorder also takes ``gauge_tick(ts, keys, values, n,
interval)``: ``n`` rows of the gauge sampler, one per tick.

Instrumented layers never call a recorder directly: the simulator's
:class:`repro.obs.probe.Probe` maps each scheduling decision to its
trace event, and every site is guarded by the probe's ``enabled`` flag,
so a run with only null sinks pays a pointer load and a predictable
branch per site — nothing else.  :class:`NullRecorder` is the default
everywhere; its ``emit`` is a no-op for runs whose probe is on for
another sink.  :class:`TraceRecorder` appends :class:`TraceEvent`
tuples to an in-memory list and keeps the gauge sampler's ticks as
compact rows; exporters (:mod:`repro.trace.export`) turn the merged
stream into Chrome trace-event JSON or JSONL after the run.

Recorders are installed on the :class:`repro.sim.engine.Simulator`
(``Simulator(trace=...)``) **before** machines and schedulers are
constructed — components cache the simulator's probe once.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, Tuple

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

    Two stores make up the stream.  ``decisions`` holds every event
    ``emit`` appends.  The sampler's ticks are columns, one row per
    tick (:meth:`gauge_tick`): ``tick_pos`` (how many decision events
    preceded it), ``tick_ts``, ``tick_keys`` (the sampler's fixed
    ``(kind, core)`` schema) and ``tick_values`` (one value per key).
    :meth:`iter_events` merges the two into the exact order of
    emission: a tick's samples are contiguous and sit before decision
    event ``tick_pos``.
    """

    __slots__ = ("decisions", "tick_pos", "tick_ts", "tick_keys",
                 "tick_values", "gauge_interval")

    enabled = True

    def __init__(self, gauge_interval: int = 10_000):
        if gauge_interval <= 0:
            raise ValueError("gauge_interval must be positive")
        self.decisions: List[TraceEvent] = []
        self.tick_pos: List[int] = []
        self.tick_ts: List[int] = []
        self.tick_keys: List[Tuple[Tuple[str, int], ...]] = []
        self.tick_values: List[Tuple[int, ...]] = []
        self.gauge_interval = gauge_interval

    def emit(self, ts: int, kind: str, tid: int = -1, core: int = -1,
             args: Tuple = ()) -> None:
        self.decisions.append(TraceEvent(ts, kind, tid, core, args))

    def gauge_tick(self, ts: int, keys: Tuple[Tuple[str, int], ...],
                   values: Tuple[int, ...], n: int, interval: int) -> None:
        """``n`` sampler ticks, ``interval`` us apart from ``ts``, with no
        decision event between them: ``values[i]`` is gauge ``keys[i]``
        at each."""
        self.tick_pos.extend([len(self.decisions)] * n)
        self.tick_ts.extend(range(ts, ts + n * interval, interval))
        self.tick_keys.extend([keys] * n)
        self.tick_values.extend([values] * n)

    # ------------------------------------------------------------------
    # post-run inspection
    # ------------------------------------------------------------------
    def iter_events(self) -> Iterator[TraceEvent]:
        """The whole stream in emission order, each gauge sample as a
        ``TraceEvent(ts, kind, -1, core, (value,))``."""
        decisions = self.decisions
        done = 0
        for pos, ts, keys, values in zip(self.tick_pos, self.tick_ts,
                                         self.tick_keys, self.tick_values):
            if pos > done:
                yield from decisions[done:pos]
                done = pos
            for (kind, core), value in zip(keys, values):
                yield TraceEvent(ts, kind, -1, core, (value,))
        yield from decisions[done:]

    def gauge_samples(self, kind: str) -> Iterator[Tuple[int, int, int]]:
        """``(ts, core, value)`` of every ``kind`` gauge sample, in
        stream order, read from the tick columns alone."""
        schema = slots = None
        for ts, keys, values in zip(self.tick_ts, self.tick_keys,
                                    self.tick_values):
            if keys is not schema:
                schema = keys
                slots = [(i, core) for i, (k, core) in enumerate(keys)
                         if k == kind]
            for i, core in slots:
                yield ts, core, values[i]

    @property
    def events(self) -> List[TraceEvent]:
        """The merged stream as a list, built on each access."""
        return list(self.iter_events())

    def __len__(self) -> int:
        return len(self.decisions) + sum(map(len, self.tick_values))

    def kind_counts(self) -> Dict[str, int]:
        """Event count per kind (the reconciliation surface for stats)."""
        counts = Counter(e.kind for e in self.decisions)
        for keys, ticks in Counter(self.tick_keys).items():
            for kind, _core in keys:
                counts[kind] += ticks
        return dict(counts)

    def by_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.iter_events() if e.kind == kind]

    def by_tid(self, tid: int) -> List[TraceEvent]:
        return [e for e in self.iter_events() if e.tid == tid]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceRecorder {len(self)} events>"
