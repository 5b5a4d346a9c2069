"""Cancellable event-heap simulator.

The simulator is a classic discrete-event loop: a binary heap of
``(time, seq, handle)`` entries.  ``seq`` is a monotonically increasing
tie-breaker so that events scheduled earlier fire earlier at equal
timestamps, which makes every run fully deterministic.

Cancellation is *lazy*: :meth:`EventHandle.cancel` marks the handle and
the main loop discards dead entries when they surface, which keeps both
``schedule`` and ``cancel`` O(log n) / O(1).  Moving an event later
(:meth:`Simulator.move`) is lazy the same way: the handle takes its new
``(time, seq)`` at once, and its old heap entry, a lower bound of the
new key, is re-keyed when it surfaces.

A periodic timer (:meth:`Simulator.every`) keeps one handle on the heap
and re-arms it in place at each firing; a firing its ``idle`` test
finds idle costs no callback.  A *parked* timer (``every(...,
park=True)``) leaves the heap altogether while idle: its firings are
virtual, counted by arithmetic, until its owner pokes it
(:meth:`Simulator.poke`) because its ``idle`` test may have changed.

Ranks.  Every firing of a periodic timer takes, as its next tie-break
rank, the schedule counter at that firing: the literal re-arm consumes
one counter value there, a parked-mode timer takes ``counter + 0.5``
and consumes none, so the order among the other events is unchanged.
Finding the counter at a *virtual* firing needs the history of the
instant of the firing before it, but only when an event ran at exactly
that instant; a ``(time, rank, key, counter)`` log of the events run
since the oldest parked anchor answers that by bisection.  Parked-mode
timers whose ranks tie break the tie by ``key``: a longer interval
first (its previous firing was earlier), then an order fixed when the
timer was armed, which the timers of one interval and phase keep for
as long as they live.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

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
    number of firings it found idle (the owner may reset it; read it
    after :meth:`Simulator.settle` on a parked-mode timer).  Timers
    alone set ``park``: the :class:`_Park` state of a parked-mode timer,
    else None; one-shot events leave it unset (one slot keeps a handle
    in the allocator's size class of the slots before it).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "daemon",
                 "interval", "idle", "elided", "park")

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
        if self.interval and self.park is not None and not self.cancelled:
            self.park.sim._retire(self)
        self.cancelled = True
        # Drop references eagerly: a long-lived heap entry must not pin
        # tasks/closures for the rest of the run.
        self.callback = _noop
        self.args = ()
        self.idle = None

    def __lt__(self, other: "EventHandle") -> bool:
        # reached only when two parked-mode timers share (time, rank)
        return self.park.key < other.park.key

    @property
    def active(self) -> bool:
        """True while the event is still pending and not cancelled."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} seq={self.seq} {state}>"


class _Park:
    """A parked-mode timer's state: its simulator, its tie-break key
    and whether it is parked off the heap."""

    __slots__ = ("sim", "key", "parked")

    def __init__(self, sim: "Simulator", key: tuple):
        self.sim = sim
        self.key = key
        self.parked = False


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


#: a position in the firing order: (time, rank, key)
Position = Tuple[int, float, Any]

_INF = float("inf")

#: rank-log entries kept before every parked timer is settled to the
#: current event and the log restarts there
_LOG_LIMIT = 256


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
        # parked-mode timers: those off the heap, the rank log of the
        # events run since the oldest parked anchor, and the live timers
        # by (interval, phase) for tie-break keys
        self._parked: Dict[EventHandle, None] = {}
        self._log: List[tuple] = []
        self._phases: Dict[Tuple[int, int], List[EventHandle]] = {}
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

    def move(self, handle: EventHandle, time: int) -> EventHandle:
        """Move a pending one-shot event to absolute time ``time``, at
        the tie-break rank a fresh :meth:`schedule_at` would take, and
        return the handle that now holds it.

        A move no earlier than the event's current time updates the
        handle in place: its heap entry stays where it is as a lower
        bound and is re-keyed when it surfaces (a re-key is not a
        firing).  An earlier move cancels the handle and returns a
        fresh one, so every handle keeps exactly one heap entry."""
        if time < self.now:
            raise SimulationError(
                f"cannot move event to t={time} before now={self.now}"
            )
        self._seq += 1
        time = int(time)
        if time >= handle.time:
            handle.time = time
            handle.seq = self._seq
            return handle
        fresh = EventHandle(time, self._seq, handle.callback, handle.args,
                            handle.daemon)
        handle.cancel()
        heapq.heappush(self._heap, (time, fresh.seq, fresh))
        return fresh

    def schedule(self, delay: int, callback: Callable[..., Any], *args: Any,
                 daemon: bool = False) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.now + int(delay), callback, *args,
                                daemon=daemon)

    def every(self, interval: int, idle: Callable[[], bool],
              callback: Callable[..., Any], *args: Any,
              park: bool = False) -> EventHandle:
        """Fire every ``interval`` microseconds from now until cancelled,
        calling ``callback(*args)`` only at firings where ``idle()`` is
        false.

        Each firing, idle or not, counts in :attr:`events_executed` and
        the ``max_events`` budget, and takes its next tie-break rank
        *before* any callback runs: a callback that rescheduled itself
        first thing would sit at exactly the same ``(time, seq)``
        positions.  ``idle`` must be free of side effects, and picklable
        (a bound method or a ``functools.partial``, not a closure) for
        checkpointed runs.

        With ``park=False`` (the literal reference) each firing re-arms
        the one handle on the heap.  With ``park=True`` a firing that
        finds ``idle()`` true parks the timer off the heap: its later
        firings are virtual, each one idle by the owner's promise, and
        cost nothing until :meth:`poke` puts the timer back on the heap
        at its first firing after the current event.  The owner must
        poke whenever ``idle()`` may have turned false; the invariant
        checker's ``parked-idle`` law verifies that after every event.
        The first firing is armed through :meth:`schedule_at`.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval}")
        handle = self.schedule_at(self.now + int(interval), callback, *args)
        handle.interval = int(interval)
        handle.idle = idle
        handle.park = None
        if park:
            self._arm_parkable(handle)
        return handle

    def poke(self, handle: EventHandle) -> None:
        """Tell a timer of :meth:`every` that its ``idle`` test may have
        turned false.  A parked one goes back on the heap at its first
        firing after the current event; any other is left alone."""
        if handle.park is not None and handle.park.parked:
            self._unpark(handle)
            heapq.heappush(self._heap, (handle.time, handle.seq, handle))

    def settle(self, handle: EventHandle) -> None:
        """Count a parked timer's virtual firings up to the current
        event into ``handle.elided`` and :attr:`events_executed`.  Call
        it before reading ``elided`` mid-run; a no-op on any other
        handle."""
        if handle.park is not None and handle.park.parked:
            self._settle(handle, self._position())

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[int]:
        """Virtual time of the next live heap event, or None if drained
        (the virtual firings of parked timers are not events here)."""
        self._drop_dead()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> bool:
        """Execute the next live heap event.  Returns False when
        drained."""
        self._drop_dead()
        if not self._heap:
            return False
        self._fire()
        return True

    def _fire(self) -> None:
        """Execute the event at the top of the heap, which is live."""
        heap = self._heap
        time, seq, handle = heap[0]
        if self._inv_on:
            self.invariants.on_event(time, self.now)
        self.now = time
        self.events_executed += 1
        interval = handle.interval
        if interval:
            if handle.park is None:
                self._seq += 1
                handle.time = time + interval
                handle.seq = self._seq
                heapq.heapreplace(heap, (handle.time, self._seq, handle))
                if handle.idle():
                    handle.elided += 1
                else:
                    handle.callback(*handle.args)
            else:
                self._fire_parkable(time, seq, handle)
            return
        heapq.heappop(heap)
        if self._parked:
            self._log_event(time, seq, 0)
        callback, args = handle.callback, handle.args
        handle.cancel()  # consumed; release references
        callback(*args)
        if self._inv_on and self._parked:
            self.invariants.on_parked(self._parked, time)

    def _fire_parkable(self, time: int, seq: Any,
                       handle: EventHandle) -> None:
        """A heap firing of a parked-mode timer: park it if idle, else
        act and stay on the heap unless now idle."""
        heapq.heappop(self._heap)
        handle.time = time + handle.interval
        handle.seq = self._seq + 0.5
        if handle.idle():
            handle.elided += 1
            self._park(handle)
            return
        if self._parked:
            self._log_event(time, seq, handle.park.key)
        handle.callback(*handle.args)
        if not handle.cancelled:
            if handle.idle():
                self._park(handle)
            else:
                heapq.heappush(self._heap, (handle.time, handle.seq, handle))
        if self._inv_on and self._parked:
            self.invariants.on_parked(self._parked, time)

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
        nominal path.  Virtual firings of parked timers spend the budget
        like any other firing.

        A heap that drains while a parked timer is live, with no
        ``until``, raises :class:`SimulationError` naming the timer: the
        literal timer would fire forever.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        start = self.events_executed
        recent: Optional[deque] = (
            deque(maxlen=5) if max_events is not None else None
        )
        heap = self._heap
        try:
            while True:
                self._drop_dead()
                if not heap:
                    if self._parked and until is None:
                        raise SimulationError(
                            "event heap drained with parked timer(s) live, "
                            f"which would fire forever: "
                            f"{_describe(next(iter(self._parked)))}")
                    break
                if until is not None and heap[0][0] > until:
                    break
                if max_events is not None:
                    if self._parked:
                        time, seq, handle = heap[0]
                        self._settle_all((time, seq, handle.park.key
                                          if handle.interval and handle.park
                                          else 0))
                    if self.events_executed - start >= max_events:
                        self._budget_exhausted(start, max_events, recent)
                    recent.append(_describe(heap[0][2]))
                self._fire()
        finally:
            self._running = False
        if self._parked:
            self._settle_all((until if until is not None else self.now,
                              _INF, ()))
            self._log.clear()
            if max_events is not None and \
                    self.events_executed - start > max_events:
                self._budget_exhausted(start, max_events, recent)
        if until is not None and self.now < until:
            self.now = until

    def _budget_exhausted(self, start: int, max_events: int,
                          recent: deque) -> None:
        # virtual firings settled past the budget did not happen
        self.events_executed = start + max_events
        tail = "; ".join(recent) if recent else "(none)"
        label = f" [{self.label}]" if self.label else ""
        raise SimulationError(
            f"event budget exhausted: {max_events} events executed "
            f"with {self.pending} still pending at t={self.now}"
            f"{label}; last events: {tail}"
        )

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued, parked
        timers included."""
        return len(self._parked) + sum(
            1 for _, _, h in self._heap if not h.cancelled)

    @property
    def pending_work(self) -> bool:
        """Whether a live event that *drives* the run is queued — daemon
        housekeeping timers excluded, parked timers included.
        Self-rearming daemons must gate on this, not on :attr:`pending`,
        or any two of them would keep each other alive after the real
        work has drained."""
        return bool(self._parked) or any(
            not h.cancelled and not h.daemon for _, _, h in self._heap
        )

    def _drop_dead(self) -> None:
        """Pop cancelled entries off the top of the heap and re-key the
        lower-bound entries of moved events, until the top is live and
        exact."""
        heap = self._heap
        while heap:
            _time, seq, handle = heap[0]
            if handle.cancelled:
                heapq.heappop(heap)
            elif seq != handle.seq:
                heapq.heapreplace(heap, (handle.time, handle.seq, handle))
            else:
                return

    # ------------------------------------------------------------------
    # parked-mode timers
    # ------------------------------------------------------------------
    def _arm_parkable(self, handle: EventHandle) -> None:
        """Give a new parked-mode timer its tie-break key.

        The timers of one interval and phase keep one relative order
        while they live (a tie at one firing repeats the order of the
        one before), so each keeps the order it is given here for good.
        The new timer's first rank was just taken at the current event,
        so it goes after every timer of its group that fired at this
        instant already and before the rest."""
        interval = handle.interval
        group = self._phases.setdefault(
            (interval, handle.time % interval), [])
        before = after = None
        if group:
            pos = self._position() if self._parked else None
            for other in group:
                if other.park.parked:
                    self._settle(other, pos)
                order = other.park.key[1]
                if other.time > self.now:  # fired at this instant already
                    if before is None or order > before:
                        before = order
                elif after is None or order < after:
                    after = order
        if after is None:
            order = 0 if before is None else before + 1
        elif before is None:
            order = after - 1
        else:  # between two live timers: a dense order is needed
            from fractions import Fraction
            order = Fraction(before + after) / 2
        handle.park = _Park(self, (-interval, order))
        group.append(handle)

    def _retire(self, handle: EventHandle) -> None:
        """A parked-mode timer is being cancelled."""
        if handle.park.parked:
            self._unpark(handle)
        interval = handle.interval
        phase = (interval, handle.time % interval)
        group = self._phases[phase]
        group.remove(handle)
        if not group:
            del self._phases[phase]

    def _park(self, handle: EventHandle) -> None:
        handle.park.parked = True
        self._parked[handle] = None

    def _unpark(self, handle: EventHandle) -> None:
        self._settle(handle, self._position())
        handle.park.parked = False
        del self._parked[handle]
        if not self._parked:
            self._log.clear()

    def _position(self) -> Position:
        """Where the run stands: the current event (the newest log entry
        while a timer is parked) or, between runs, after every firing at
        the current instant."""
        log = self._log
        if log:
            time, rank, key, _counter = log[-1]
            return (time, rank, key)
        return (self.now, _INF, ())

    def _log_event(self, time: int, rank: Any, key: Any) -> None:
        """Log the event about to run while a timer is parked.  The log
        is bounded: when full, every parked timer is settled to this
        event, after which no earlier entry is read."""
        log = self._log
        if len(log) >= _LOG_LIMIT:
            self._settle_all((time, rank, key))
            log.clear()
        log.append((time, rank, key, self._seq))

    def _settle_all(self, pos: Position) -> None:
        for handle in self._parked:
            self._settle(handle, pos)

    def _settle(self, handle: EventHandle, pos: Position) -> None:
        """Count the virtual firings of a parked timer before ``pos`` and
        move its anchor (``time``, ``seq``) to its first firing after."""
        time, interval, key = handle.time, handle.interval, handle.park.key
        if (time, handle.seq, key) > pos:
            return
        now = pos[0]
        n = (now - 1 - time) // interval + 1 if time < now else 0
        time += n * interval
        rank = self._rank(handle, time) if n else handle.seq
        if time == now and (now, rank, key) < pos:
            n += 1
            rank = self._counter_at((now, rank, key)) + 0.5
            time += interval
        handle.time, handle.seq = time, rank
        handle.elided += n
        self.events_executed += n
        if self._inv_on:
            self.invariants.on_virtual_events(n)

    def _rank(self, handle: EventHandle, time: int) -> float:
        """Rank of a parked timer's virtual firing at ``time`` (a later
        firing than its anchor).  The rank is the counter at the firing
        before; that depends on where that firing fell only when an
        event ran at its instant, so walk back while one did."""
        log, interval, key = self._log, handle.interval, handle.park.key
        t = time
        while t > handle.time:
            i = bisect_left(log, (t - interval,))
            if i < len(log) and log[i][0] == t - interval:
                t -= interval
                continue
            rank = (log[i][3] if i < len(log) else self._seq) + 0.5
            break
        else:
            rank = handle.seq
        while t < time:
            rank = self._counter_at((t, rank, key)) + 0.5
            t += interval
        return rank

    def _counter_at(self, pos: Position) -> int:
        """The schedule counter at ``pos``: as the first logged event
        after it found it, or as it stands now if none is logged."""
        log = self._log
        i = bisect_right(log, pos)
        return log[i][3] if i < len(log) else self._seq
