"""Cancellable event-heap simulator.

The simulator is a classic discrete-event loop: a binary heap of
``(time, seq, handle)`` entries.  ``seq`` is a monotonically increasing
tie-breaker so that events scheduled earlier fire earlier at equal
timestamps, which makes every run fully deterministic.

Cancellation is *lazy*: :meth:`EventHandle.cancel` marks the handle and
the main loop discards dead entries when they surface, which keeps both
``schedule`` and ``cancel`` O(log n) / O(1).

A periodic timer (:meth:`Simulator.every`) keeps one handle on the heap
and re-arms it in place at each firing; a firing its ``idle`` test
finds idle costs no callback.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

from repro.invariants.checker import NULL_CHECKER
from repro.obs.probe import Probe
from repro.obs.registry import NULL_REGISTRY
from repro.trace.recorder import NULL_RECORDER
from repro.why.audit import NULL_AUDIT


class SimulationError(RuntimeError):
    """Raised on misuse of the simulator (e.g. scheduling in the past)."""


class EventHandle:
    """A scheduled callback; hold on to it if you may need to cancel.

    ``daemon`` marks housekeeping timers (gauge samplers, health
    pollers) that observe the run rather than drive it: they execute
    normally but are excluded from :attr:`Simulator.pending_work`, so
    two self-rearming daemons cannot keep each other — and the run —
    alive forever.

    A timer of :meth:`Simulator.every` also carries its ``interval``
    (0 for a one-shot event), its ``idle`` test and ``elided``, the
    number of firings it found idle (the owner may reset it).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "daemon",
                 "interval", "idle", "elided")

    def __init__(self, time: int, seq: int, callback: Callable[..., Any],
                 args: tuple, daemon: bool = False):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.daemon = daemon
        self.interval = 0
        self.idle: Optional[Callable[[], bool]] = None
        self.elided = 0

    def cancel(self) -> None:
        """Prevent the callback from firing.  Safe to call repeatedly."""
        self.cancelled = True
        # Drop references eagerly: a long-lived heap entry must not pin
        # tasks/closures for the rest of the run.
        self.callback = _noop
        self.args = ()
        self.idle = None

    @property
    def active(self) -> bool:
        """True while the event is still pending and not cancelled."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} seq={self.seq} {state}>"


def _noop(*_args: Any) -> None:
    return None


def _describe(handle: EventHandle) -> str:
    """One-line event description for runaway-guard diagnostics."""
    cb = handle.callback
    name = getattr(cb, "__qualname__", None) or repr(cb)
    args = ", ".join(_short(a) for a in handle.args)
    return f"t={handle.time} {name}({args})"


def _short(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


class Simulator:
    """Virtual-time discrete-event loop.

    Usage::

        sim = Simulator()
        sim.schedule(1000, fn, arg1)      # fire fn(arg1) in 1 ms
        sim.run()                          # run until the heap drains

    Time never flows backwards; callbacks run at exactly their scheduled
    virtual time and may schedule further events (including at ``now``).

    ``trace``, ``metrics`` and ``audit`` are the observability sinks:
    a :class:`repro.trace.TraceRecorder`, a
    :class:`repro.obs.MetricsRegistry` and a
    :class:`repro.why.AuditLog`, each defaulting to its shared no-op
    null.  The simulator wraps them in one :class:`repro.obs.probe.Probe`
    (``sim.probe``), the single instrumentation path every machine,
    scheduler, SFS and FaaS component caches — with its ``enabled``
    flag — at construction.  Install the sinks here *before* building
    those components.  The probe is read-only with respect to virtual
    time, so an instrumented run is bit-identical to a bare one.

    ``invariants`` is the runtime invariant checker
    (:mod:`repro.invariants`), defaulting to the shared no-op
    :data:`repro.invariants.checker.NULL_CHECKER`; it validates state
    rather than recording decisions, so components cache it (and its
    ``enabled`` flag) separately, under the same install-first rule.

    ``label`` names the run in diagnostics (e.g. the scheduler/engine
    pair); it is only ever read when an error message is built.
    """

    def __init__(self, trace: Optional[Any] = None,
                 invariants: Optional[Any] = None,
                 metrics: Optional[Any] = None,
                 label: str = "",
                 audit: Optional[Any] = None) -> None:
        self.now: int = 0
        self.label = label
        self._heap: list[tuple[int, int, EventHandle]] = []
        self._seq: int = 0
        self._running = False
        self.events_executed: int = 0
        self.trace = trace if trace is not None else NULL_RECORDER
        self.invariants = invariants if invariants is not None else NULL_CHECKER
        self._inv_on = self.invariants.enabled
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.audit = audit if audit is not None else NULL_AUDIT
        self.probe = Probe(self, self.trace, self.metrics, self.audit)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: int, callback: Callable[..., Any], *args: Any,
                    daemon: bool = False) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``.

        ``daemon=True`` marks a housekeeping timer excluded from
        :attr:`pending_work` (see :class:`EventHandle`)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        self._seq += 1
        handle = EventHandle(int(time), self._seq, callback, args, daemon)
        heapq.heappush(self._heap, (handle.time, handle.seq, handle))
        return handle

    def reserve(self, n: int) -> int:
        """Reserve the next ``n`` tie-break ranks and return the first.

        An event later scheduled with :meth:`schedule_ranked` at one of
        them fires, among the events at its timestamp, where it would
        have fired had it been scheduled at reservation time."""
        first = self._seq + 1
        self._seq += n
        return first

    def schedule_ranked(self, rank: int, time: int,
                        callback: Callable[..., Any],
                        *args: Any) -> EventHandle:
        """:meth:`schedule_at` with a rank from :meth:`reserve`."""
        seq, self._seq = self._seq, rank - 1
        try:
            return self.schedule_at(time, callback, *args)
        finally:
            self._seq = seq

    def schedule(self, delay: int, callback: Callable[..., Any], *args: Any,
                 daemon: bool = False) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.now + int(delay), callback, *args,
                                daemon=daemon)

    def every(self, interval: int, idle: Callable[[], bool],
              callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Fire every ``interval`` microseconds from now until cancelled,
        calling ``callback(*args)`` only at firings where ``idle()`` is
        false.

        Each firing, idle or not, re-arms the one handle ``interval``
        later at the next tie-break rank *before* any callback runs, and
        counts in :attr:`events_executed` and the ``max_events`` budget:
        a callback that rescheduled itself first thing would sit at
        exactly the same ``(time, seq)`` positions.  ``idle`` must be
        free of side effects, and picklable (a bound method or a
        ``functools.partial``, not a closure) for checkpointed runs.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval}")
        handle = self.schedule_at(self.now + int(interval), callback, *args)
        handle.interval = int(interval)
        handle.idle = idle
        return handle

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[int]:
        """Virtual time of the next live event, or None if drained."""
        self._drop_dead()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> bool:
        """Execute the next live event.  Returns False when drained."""
        self._drop_dead()
        if not self._heap:
            return False
        self._fire()
        return True

    def _fire(self) -> None:
        """Execute the event at the top of the heap, which is live."""
        heap = self._heap
        time, _seq, handle = heap[0]
        if self._inv_on:
            self.invariants.on_event(time, self.now)
        self.now = time
        self.events_executed += 1
        interval = handle.interval
        if interval:
            self._seq += 1
            handle.time = time + interval
            handle.seq = self._seq
            heapq.heapreplace(heap, (handle.time, self._seq, handle))
            if handle.idle():
                handle.elided += 1
            else:
                handle.callback(*handle.args)
            return
        heapq.heappop(heap)
        callback, args = handle.callback, handle.args
        handle.cancel()  # consumed; release references
        callback(*args)

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or the event
        budget ``max_events`` is spent.

        When ``until`` is given the clock is advanced to exactly
        ``until`` even if the last event fired earlier.

        ``max_events`` is a runaway guard, not a pause button: if the
        budget is exhausted while live events are still pending, the run
        did *not* complete and a :class:`SimulationError` is raised so
        truncated results can never be mistaken for finished ones.  The
        error names the virtual clock, the run label and the last few
        executed events, so a fuzz-found livelock is diagnosable from
        the exception alone.  The event descriptions are only recorded
        when a budget is armed — a guard-free run stays on the exact
        nominal path.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        executed = 0
        recent: Optional[deque] = (
            deque(maxlen=5) if max_events is not None else None
        )
        heap = self._heap
        try:
            while True:
                self._drop_dead()
                if not heap:
                    break
                if until is not None and heap[0][0] > until:
                    break
                if max_events is not None and executed >= max_events:
                    tail = "; ".join(recent) if recent else "(none)"
                    label = f" [{self.label}]" if self.label else ""
                    raise SimulationError(
                        f"event budget exhausted: {max_events} events executed "
                        f"with {self.pending} still pending at t={self.now}"
                        f"{label}; last events: {tail}"
                    )
                if recent is not None:
                    recent.append(_describe(heap[0][2]))
                self._fire()
                executed += 1
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for _, _, h in self._heap if not h.cancelled)

    @property
    def pending_work(self) -> bool:
        """Whether a live event that *drives* the run is queued — daemon
        housekeeping timers excluded.  Self-rearming daemons must gate
        on this, not on :attr:`pending`, or any two of them would keep
        each other alive after the real work has drained."""
        return any(
            not h.cancelled and not h.daemon for _, _, h in self._heap
        )

    def _drop_dead(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
