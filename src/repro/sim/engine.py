"""Cancellable event-heap simulator.

A binary heap of ``(time, seq, handle)`` entries, where ``seq``, a
monotonically increasing counter, fires events scheduled earlier first
at equal timestamps.  Cancelling is lazy, and so is moving an event
later (:meth:`Simulator.move`): the old entry, a lower bound, is
re-keyed when it surfaces.

Virtual firings (docs/architecture.md §1).  A :class:`Chain` is a run
of firings at instants known in advance that cost no heap event each:
a parked periodic timer's (an arithmetic progression) and a discrete
core's CFS slice rotation.  What a firing arms takes the counter at the
firing plus one half as its rank, read from a log of the events run
while a chain is pending, where a literal re-arm takes the next counter
value.  Equal fractional ranks tie-break on the key ``(arm instant -
instant, tie)``: armed earlier first, then as the firings that armed
them, walked back through the literal arming history (:class:`_Tie`).
A parked timer's settle only counts its firings: it resolves ranks
where one is read (a poke, a log restart, a settle at its instant).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
    after :meth:`Simulator.settle` on a parked-mode timer).  ``park``
    breaks ties of fractional ranks: a parked-mode timer's
    :class:`_Timer` (None in literal mode), a chained event's
    :class:`Chain` or a key from :meth:`Chain.armed`; other one-shot
    events leave it unset (one slot keeps a handle in the allocator's
    size class of the slots before it).
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
            self.park.sim._retire(self.park)
        self.cancelled = True
        # Drop references eagerly: a long-lived heap entry must not pin
        # tasks/closures for the rest of the run.
        self.callback = _noop
        self.args = ()
        self.idle = None
        if self.seq is None:  # a chained event, never to be resolved
            self.park = ()

    def __lt__(self, other: "EventHandle") -> bool:
        # reached only when two fractional ranks tie
        return _key(self) < _key(other)

    @property
    def active(self) -> bool:
        """True while the event is still pending and not cancelled."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} seq={self.seq} {state}>"


def _key(handle: EventHandle) -> Any:
    """The tie-break key of an event holding a fractional rank."""
    park = handle.park
    return park if park.__class__ is tuple else park.heap_key()


def _noop(*_args: Any) -> None:
    return None


class _Tie:
    """The last element of a virtual firing's key: firing ``index`` of
    ``chain`` armed it, a completion (``sub`` 0) or the next firing."""

    __slots__ = ("chain", "index", "sub")

    def __init__(self, chain: "Chain", index: int, sub: int):
        self.chain = chain
        self.index = index
        self.sub = sub

    def _cmp(self, other: "_Tie") -> int:
        """-1, 0 or 1: compare the arming firings' positions back while
        they tie, to a reserved rank or two parked timers' fixed order."""
        ca, ia, cb, ib = self.chain, self.index, other.chain, other.index
        sa, sb = self.sub, other.sub
        while ca is not cb:
            if ca.__class__ is _Timer is cb.__class__:
                return -1 if ca.order < cb.order else 1
            # instant, rank, then the instant of the firing before
            a = (ca.times[ia], ca.rank(ia), ca.times[ia - 1])
            b = (cb.times[ib], cb.rank(ib), cb.times[ib - 1])
            if a != b:
                return -1 if a < b else 1
            ia, ib, sa, sb = ia - 1, ib - 1, 1, 1
        a, b = (ia, sa), (ib, sb)
        return -1 if a < b else (1 if b < a else 0)

    def __eq__(self, other: Any) -> bool:
        return other.__class__ is _Tie and not self._cmp(other)

    def __lt__(self, other: "_Tie") -> bool:
        return self._cmp(other) < 0


class Chain:
    """Virtual firings at ``times`` (ascending, none before the chain is
    made), the first at the reserved ``rank``; firing ``i`` takes the
    rank of what firing ``i - 1`` arms, resolved (before ``known``) and
    stored run-length: ``ranks[j]`` from firing ``marks[j]`` on.  An
    owner registers it (:meth:`Simulator.add_chain`) and implements
    :meth:`settle`; ``end`` is ``(i, sub)``, what armed its heap event
    (:meth:`Simulator.schedule_chained`), or None for a reserved rank."""

    __slots__ = ("sim", "times", "ranks", "marks", "known", "end", "key",
                 "fired")

    #: whether ties read only some firings (:meth:`_Timer._wanted`)
    _sparse = False

    def __init__(self, sim: "Simulator", times: Sequence[int], rank: Any):
        self.sim = sim
        self.times = times
        self.ranks: List[Any] = [rank]
        self.marks: List[int] = [0]
        self.known = 1
        self.end: Optional[Tuple[int, int]] = (0, 0)
        #: firings run as heap events, and for a timer those counted
        self.fired = 0

    def settle(self, pos: "Position") -> None:
        """Apply the firings before ``pos`` and drop the chain."""
        raise NotImplementedError

    def heap_key(self) -> Any:
        """The key of the chain's heap event (``()`` until resolved)."""
        return getattr(self, "key", ())

    def rank(self, i: int) -> Any:
        """The rank of firing ``i`` (resolved; None if not kept)."""
        if i >= self.marks[-1]:
            return self.ranks[-1]
        j = bisect_right(self.marks, i) - 1
        return self.ranks[j] if j >= 0 else None

    def position(self, i: int) -> "Position":
        """The position of firing ``i`` (resolved)."""
        t = self.times[i]
        if not i:
            return (t, self.rank(0), 0)
        return (t, self.rank(i), (self.times[i - 1] - t, _Tie(self, i - 1, 1)))

    def _before(self, t: float) -> int:
        """The number of firings before instant ``t``."""
        return bisect_left(self.times, t)

    def _resolve(self, k: int) -> None:
        """Resolve the ranks of firing ``k`` and of those before it a tie
        may read: for firing ``s``, the counter of the first logged event
        after firing ``s - 1`` (its instant decides unless an event ran
        there) plus one half, standing while no event is logged."""
        s = self.known
        if s > k:
            return
        sim = self.sim
        log, times, marks, ranks = sim._log, self.times, self.marks, self.ranks
        n = len(log)
        bound = -1
        for want in self._wanted(s, k) if self._sparse else (k,):
            if want > s and self._sparse:  # skip the firings no tie reads,
                i, s = s, want  # back to one whose previous instant no
                while s > i:  # event ran at
                    t = times[s - 1]
                    j = bisect_left(log, (t,))
                    if j == n or log[j][0] != t:
                        bound, counter = ((log[j][0], log[j][3]) if j < n
                                          else (_INF, sim._seq))
                        marks += (i, s)
                        ranks += (None, counter + 0.5)
                        s += 1
                        break
                    s -= 1
            for s in range(s, want + 1):  # a rank changes only where a
                t = times[s - 1]  # logged event lies before its firing
                if t >= bound:
                    j = bisect_left(log, (t,))
                    if j < n and log[j][0] == t:
                        j = bisect_right(log, self.position(s - 1))
                    bound, counter = ((log[j][0], log[j][3]) if j < n
                                      else (_INF, sim._seq))
                    if counter + 0.5 != ranks[-1]:
                        marks.append(s)
                        ranks.append(counter + 0.5)
            s = want + 1
        self.known = k + 1
        if len(marks) > _LOG_LIMIT and self._sparse:
            self._forget()

    def count_before(self, pos: "Position") -> int:
        """The number of firings before ``pos``, resolved."""
        times = self.times
        m = self._before(pos[0])
        self._resolve(m)
        while m < len(times) and times[m] == pos[0] and self.position(m) < pos:
            m += 1
            self._resolve(m)
        return m

    def armed(self, i: int, time: int, sub: int) -> Tuple[float, tuple]:
        """The rank and key of a timer at ``time`` armed at firing ``i``
        (``sub`` 0 for a completion, 1 for the next firing)."""
        self._resolve(i + 1)
        sim = self.sim
        if time - self.times[i] in sim._grids:  # a parked timer may tie
            sim._armed[self] = max(time, sim._armed.get(self, time))
        return self.rank(i + 1), (self.times[i] - time, _Tie(self, i, sub))

    def _resolve_end(self, handle: EventHandle) -> None:
        i, sub = self.end
        handle.seq, self.key = self.armed(i, handle.time, sub)


class _Timer(Chain):
    """A parked-mode timer of :meth:`Simulator.every`, pending while
    ``parked``: ``handle`` holds its next firing, ``order`` its place
    among the timers of its interval and phase.  While parked, its
    ranks are resolved only where one is read: at the instant of one of
    its firings, by :meth:`resolve` and when the rank log restarts."""

    __slots__ = ("handle", "order", "parked")
    _sparse = True

    def settle(self, pos: "Position") -> None:
        """Count the virtual firings before ``pos``; move the handle's
        time (not its rank) on."""
        m = self.count_before(pos)
        n = m - self.fired
        if n:
            sim = self.sim
            self.fired = m
            handle = self.handle
            handle.elided += n
            sim.events_executed += n
            if sim._inv_on:
                sim.invariants.on_virtual_events(n)
            handle.time = self.times[m]

    def count_before(self, pos: "Position") -> int:
        t = pos[0]
        if self.handle.time > t:  # its next firing is later (also
            return self.fired  # after a run stopped at ``pos``'s instant)
        if (t - self.times.start) % self.times.step:  # none fires at t
            return self._before(t)
        return Chain.count_before(self, pos)

    def resolve(self) -> None:
        """Give the handle the rank of the timer's next firing."""
        self._resolve(self.fired)
        self.handle.seq = self.rank(self.fired)

    def heap_key(self) -> Any:
        i = self.fired
        return (-self.times.step, _Tie(self, i - 1, 1)) if i else 0

    def _before(self, t: float) -> int:
        return max(0, -((self.times.start - t) // self.times.step))

    def _wanted(self, i: int, k: int) -> Sequence[int]:
        """The firings from ``i`` to ``k`` a tie may read: a pending chain's
        or an armed one's (one interval on) on this timer's grid."""
        sim = self.sim
        if i == k or not (sim._chains or sim._armed):
            return (k,)
        times = self.times
        start, step, phase = times.start, times.step, times.start % times.step
        lo, hi = times[i], times[k]
        wanted = {k}
        for chain in (*sim._chains, *sim._armed):
            ts = chain.times
            if ts[-1] >= lo and ts[0] < hi:
                window = ts[bisect_left(ts, lo):bisect_left(ts, hi)]
                if phase in map(step.__rmod__, window):  # rarely: collect
                    wanted.update((t - start) // step for t in window
                                  if t % step == phase)
        return sorted(wanted)

    def _forget(self) -> None:
        keep = self.fired  # and each firing from a tie chain's first on
        for chain in (*self.sim._chains, *self.sim._armed):
            keep = min(keep, self._before(chain.times[0]))
        j = bisect_right(self.marks, keep) - 1
        if j > 0:
            del self.marks[:j], self.ranks[:j]


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

#: the rank-log entries, and a parked timer's stored ranks, kept before
#: the log restarts or the timer forgets the ranks no tie reads
_LOG_LIMIT = 256
#: firings in a parked timer's progression (unbounded in practice)
_SPAN = 1 << 40


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
        #: False outside :meth:`run`; inside, the last instant a tick of
        #: :meth:`quiet_ticks` may run at (``until`` or infinity), or
        #: True when a ``max_events`` budget keeps every tick literal
        self._running: Any = False
        self.events_executed: int = 0
        # pending chains, parked timers, the rank log, live parked-mode
        # timers by (interval, phase), their intervals, and the chains
        # that armed an event one such interval after a firing
        self._chains: Dict[Chain, None] = {}
        self._parked: Dict[_Timer, None] = {}
        self._log: List[tuple] = []
        self._phases: Dict[Tuple[int, int], List[_Timer]] = {}
        self._grids: set = set()
        self._armed: Dict[Chain, int] = {}
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

    def schedule_ranked(self, rank: Any, time: int,
                        callback: Callable[..., Any],
                        *args: Any, key: Any = None) -> EventHandle:
        """:meth:`schedule_at` with a rank from :meth:`reserve`, or a
        fractional rank from :meth:`Chain.armed` with its ``key``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        handle = EventHandle(int(time), rank, callback, args)
        if key is not None:
            handle.park = key
        heapq.heappush(self._heap, (handle.time, rank, handle))
        return handle

    def schedule_chained(self, chain: Chain, time: int,
                         callback: Callable[..., Any],
                         *args: Any) -> EventHandle:
        """Schedule the one heap event of ``chain``, armed at its firing
        ``chain.end``, at a lower bound of its rank (the counter now),
        re-keyed when it surfaces once every firing before it ran."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        handle = EventHandle(int(time), None, callback, args)
        handle.park = chain
        heapq.heappush(self._heap, (handle.time, self._seq + 0.25, handle))
        return handle

    def add_chain(self, chain: Chain) -> None:
        """Register a pending chain: the rank log is kept until it is
        dropped, and a bounded run settles it at its end."""
        self._chains[chain] = None

    def drop_chain(self, chain: Chain, applied: int) -> None:
        """The owner applied the first ``applied`` firings of ``chain``
        and no longer needs it; the virtual ones count as executed
        events."""
        del self._chains[chain]
        n = applied - chain.fired
        self.events_executed += n
        if self._inv_on:
            self.invariants.on_virtual_events(n)
        if not self._chains and not self._parked:
            self._restart_log()

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
        The first firing takes the rank a :meth:`schedule_at` now would;
        a parked-mode timer whose ``idle()`` holds when it is armed
        starts parked, its first firing virtual.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval}")
        interval = int(interval)
        parked = park and idle()
        if parked:
            handle = EventHandle(self.now + interval, self.reserve(1),
                                 callback, args)
        else:
            handle = self.schedule_at(self.now + interval, callback, *args)
        handle.interval = interval
        handle.idle = idle
        handle.park = None
        if park:
            self._arm_parkable(handle, parked)
        return handle

    def poke(self, handle: EventHandle) -> None:
        """Tell a timer of :meth:`every` that its ``idle`` test may have
        turned false.  A parked one goes back on the heap at its first
        firing after the current event; any other is left alone."""
        timer = handle.park
        if handle.interval and timer is not None and timer.parked:
            timer.settle(self.position())
            timer.resolve()
            self._unpark(timer)
            heapq.heappush(self._heap, (handle.time, handle.seq, handle))

    def settle(self, handle: EventHandle) -> None:
        """Count a parked timer's virtual firings up to the current
        event into ``handle.elided`` and :attr:`events_executed`.  Call
        it before reading ``elided`` mid-run; a no-op on any other
        handle.  Counting is arithmetic: ranks are resolved only at the
        instant of one of the timer's firings, where they order it."""
        if handle.interval and handle.park is not None and handle.park.parked:
            handle.park.settle(self.position())

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[int]:
        """Virtual time of the next live heap event, or None if drained
        (virtual firings are not events here)."""
        self._drop_dead()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> bool:
        """Execute the next live heap event, settling every pending
        chain and parked timer to it first, so that the run stands as
        the literal one does after that event.  Returns False when
        drained."""
        self._drop_dead()
        if not self._heap:
            return False
        if self._chains or self._parked:
            self._settle_all(self._next_position())
            self._drop_dead()
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
            timer = handle.park
            handle.time = time + interval
            if timer is None:  # the literal re-arm consumes a rank
                if self._chains or self._parked:
                    self._log_event(time, seq, 0)
                self._seq += 1
                handle.seq = self._seq
                heapq.heapreplace(heap, (handle.time, self._seq, handle))
            else:  # a parked-mode timer leaves the heap while idle
                heapq.heappop(heap)
                handle.seq = rank = self._seq + 0.5
                timer.fired = i = timer.fired + 1
                timer.known = i + 1
                if rank != timer.ranks[-1]:
                    timer.marks.append(i)
                    timer.ranks.append(rank)
                    if len(timer.marks) > _LOG_LIMIT:
                        timer._forget()
            if handle.idle():
                handle.elided += 1
                if timer is not None:
                    timer.parked = True
                    self._parked[timer] = None
                return
            if timer is not None and (self._chains or self._parked):
                self._log_event(time, seq, (-interval, _Tie(timer, i - 2, 1))
                                if i > 1 else 0)
            handle.callback(*handle.args)
            if timer is None or handle.cancelled:
                return
            if handle.idle():
                timer.parked = True
                self._parked[timer] = None
            else:
                heapq.heappush(heap, (handle.time, handle.seq, handle))
        else:
            heapq.heappop(heap)
            if self._chains or self._parked:
                self._log_event(time, seq, _key(handle)
                                if seq.__class__ is float else 0)
            callback, args = handle.callback, handle.args
            handle.cancel()  # consumed; release references
            callback(*args)
        if self._inv_on and self._parked:
            self.invariants.on_parked([t.handle for t in self._parked],
                                      self.now)

    def quiet_ticks(self, interval: int) -> int:
        """Run ahead the firings of the current event's daemon tick that
        the literal run would fire next, and return ``n`` >= 1: the
        firing at ``now`` and those at ``now + interval``, ... before
        the next live heap event (and no later than ``until``).

        For a one-shot daemon whose firing re-arms it ``interval`` later
        and changes nothing but its own sinks (the gauge sampler), which
        calls this only when it will re-arm, as its last step before the
        re-arm.  No event runs between its firings, so each one would
        read what the current one read.  The ``n - 1`` later firings are
        literal firings run early, at their literal ranks: each consumes
        its re-arm's counter value, counts in :attr:`events_executed`,
        the rank log (while a parked timer is live) and the invariant
        checker; ``now`` is left at the last of them, whose re-arm is
        the caller's.  ``n`` is 1 (the firing stays literal) under
        :meth:`step`, a ``max_events`` budget or a pending chain, and
        when the heap holds nothing else."""
        horizon = self._running
        if horizon is True or horizon is False or self._chains:
            return 1
        self._drop_dead()
        heap = self._heap
        if not heap:
            return 1
        top_time, top_seq = heap[0][0], heap[0][1]
        now, counter = self.now, self._seq
        # firing j sits at (now + j * interval, counter + j)
        k = (top_time - now) // interval
        if now + k * interval == top_time and counter + k >= top_seq:
            k -= 1
        k = max(0, int(min(k, (horizon - now) // interval)))
        inv = self.invariants if self._inv_on else None
        for _ in range(k):
            self._seq += 1  # the re-arm of the firing before
            if inv is not None:
                if self._parked:
                    inv.on_parked([t.handle for t in self._parked], self.now)
                inv.on_event(self.now + interval, self.now)
            self.now += interval
            if self._parked:
                self._log_event(self.now, self._seq, 0)
        self.events_executed += k
        return k + 1

    def _next_position(self) -> "Position":
        """The position of the (live and exact) top of the heap."""
        time, seq, handle = self._heap[0]
        return (time, seq, _key(handle) if seq.__class__ is float else 0)

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
        nominal path.  Virtual firings spend the budget like any other
        firing (counted, not applied, before each event; a run that
        stops on the budget settles every pending chain).  A run that
        stops at ``until`` settles every pending chain there.

        A heap that drains while a parked timer is live, with no
        ``until``, raises :class:`SimulationError` naming the timer: the
        literal timer would fire forever.
        """
        if self._running is not False:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = (True if max_events is not None
                         else _INF if until is None else until)
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
                            f"{_describe(next(iter(self._parked)).handle)}")
                    break
                if until is not None and heap[0][0] > until:
                    break
                if max_events is not None:
                    virtual = 0
                    if self._chains or self._parked:
                        pos = self._next_position()
                        for chain in (*self._chains, *self._parked):
                            virtual += chain.count_before(pos) - chain.fired
                    if self.events_executed + virtual - start >= max_events:
                        if self._chains or self._parked:
                            self._settle_all(pos)
                        self._budget_exhausted(start, max_events, recent)
                    recent.append(_describe(heap[0][2]))
                self._fire()
        finally:
            self._running = False
        if self._chains or self._parked:
            pos = (until if until is not None else self.now, _INF, ())
            self._settle_all(pos)
            self._restart_log(pos)
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

    def _settle_all(self, pos: Position) -> None:
        """Settle every pending chain and parked timer to ``pos``."""
        for chain in (*self._chains, *self._parked):
            chain.settle(pos)

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
        """Pop cancelled entries off the top of the heap and re-key moved
        and chained events' lower bounds, until the top is exact."""
        heap = self._heap
        while heap:
            _time, seq, handle = heap[0]
            if handle.cancelled:
                heapq.heappop(heap)
            elif seq != handle.seq:
                if handle.seq is None:
                    handle.park._resolve_end(handle)
                heapq.heapreplace(heap, (handle.time, handle.seq, handle))
            else:
                return

    # ------------------------------------------------------------------
    # parked-mode timers and the rank log
    # ------------------------------------------------------------------
    def _arm_parkable(self, handle: EventHandle, parked: bool) -> None:
        """Make a parked-mode timer's chain, ``parked`` or not, and its
        fixed place among the timers of its interval and phase: after
        those that fired now."""
        interval = handle.interval
        first = handle.time
        timer = _Timer(self, range(first, first + _SPAN * interval, interval),
                       handle.seq)
        timer.handle = handle
        timer.parked = parked
        handle.park = timer
        self._grids.add(interval)
        group = self._phases.setdefault((interval, first % interval), [])
        timer.order = 0
        if group:
            pos = self.position()
            for other in group:
                if other.parked:
                    other.settle(pos)
            fired = [o.order for o in group if o.handle.time > self.now]
            rest = [o.order for o in group if o.handle.time <= self.now]
            if not rest:
                timer.order = max(fired) + 1
            elif not fired:
                timer.order = min(rest) - 1
            else:  # between two live timers: a dense order is needed
                from fractions import Fraction
                timer.order = Fraction(max(fired) + min(rest)) / 2
        group.append(timer)
        if parked:
            self._parked[timer] = None

    def _retire(self, timer: _Timer) -> None:
        """A parked-mode timer is being cancelled (unlinked from its
        handle, so that refcounting frees both)."""
        if timer.parked:
            timer.settle(self.position())
            self._unpark(timer)
        timer.handle = None
        phase = (timer.times.step, timer.times.start % timer.times.step)
        group = self._phases[phase]
        group.remove(timer)
        if not group:
            del self._phases[phase]

    def _unpark(self, timer: _Timer) -> None:
        timer.parked = False
        del self._parked[timer]
        if not self._chains and not self._parked:
            self._restart_log()

    def position(self) -> Position:
        """Where the run stands: the current event (the newest log entry
        while a chain is pending) or, between runs, after ``now``."""
        log = self._log
        if log:
            time, rank, key, _counter = log[-1]
            return (time, rank, key)
        return (self.now, _INF, ())

    def _log_event(self, time: int, rank: Any, key: Any) -> None:
        """Log the event about to run (first resolving every chain if
        the log is full)."""
        log = self._log
        if len(log) >= _LOG_LIMIT:
            self._restart_log((time, rank, key))
        log.append((time, rank, key, self._seq))

    def _restart_log(self, pos: Optional[Position] = None) -> None:
        """Empty the rank log, first resolving the ranks every pending
        chain and parked timer holds up to ``pos`` (the log decides
        them), and drop the chains whose armed events ran."""
        if pos is not None:
            for chain in (*self._chains, *self._parked):
                chain._resolve(chain.count_before(pos))
        self._log.clear()
        self._armed = {c: t for c, t in self._armed.items() if t >= self.now}
