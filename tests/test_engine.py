"""Unit tests for the discrete-event simulator kernel."""

import pickle
import random
from functools import partial

import pytest

from repro.invariants.checker import InvariantChecker
from repro.sim.engine import Chain, SimulationError, Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0
    assert sim.peek_time() is None


def test_events_fire_in_time_order(sim):
    fired = []
    sim.schedule(30, fired.append, "c")
    sim.schedule(10, fired.append, "a")
    sim.schedule(20, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30


def test_ties_fire_in_scheduling_order(sim):
    fired = []
    for tag in "abcde":
        sim.schedule(100, fired.append, tag)
    sim.run()
    assert fired == list("abcde")


def test_ranked_events_fire_where_they_were_reserved(sim):
    fired = []
    sim.schedule(100, fired.append, "before")
    rank = sim.reserve(2)
    sim.schedule(100, fired.append, "after")

    def later():
        # scheduled after "after", but at ranks reserved before it
        sim.schedule_ranked(rank + 1, 100, fired.append, "r1")
        sim.schedule_ranked(rank, 100, fired.append, "r0")
        sim.schedule(50, fired.append, "unranked")

    sim.schedule(50, later)
    sim.run()
    assert fired == ["before", "r0", "r1", "after", "unranked"]
    next_rank = sim.reserve(0)
    with pytest.raises(SimulationError):
        sim.schedule_ranked(rank, 10, fired.append, "past")
    assert sim.reserve(0) == next_rank  # a failed call leaves no trace


def test_callback_can_schedule_at_now(sim):
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0, fired.append, "nested")

    sim.schedule(5, first)
    sim.run()
    assert fired == ["first", "nested"]
    assert sim.now == 5


def test_cancelled_event_does_not_fire(sim):
    fired = []
    keep = sim.schedule(10, fired.append, "keep")
    drop = sim.schedule(10, fired.append, "drop")
    drop.cancel()
    sim.run()
    assert fired == ["keep"]
    assert keep.cancelled  # consumed handles read as cancelled


def test_cancel_is_idempotent(sim):
    h = sim.schedule(10, lambda: None)
    h.cancel()
    h.cancel()
    sim.run()
    assert sim.now == 0  # nothing ever fired


def test_cannot_schedule_in_the_past(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_run_until_advances_clock_exactly(sim):
    fired = []
    sim.schedule(10, fired.append, "a")
    sim.schedule(100, fired.append, "b")
    sim.run(until=50)
    assert fired == ["a"]
    assert sim.now == 50
    sim.run()
    assert fired == ["a", "b"]


def test_run_max_events_budget_raises_on_exhaustion(sim):
    fired = []
    for i in range(10):
        sim.schedule(i + 1, fired.append, i)
    with pytest.raises(SimulationError, match="event budget exhausted"):
        sim.run(max_events=3)
    assert fired == [0, 1, 2]
    # the error is recoverable: the loop is re-entrant after the raise
    sim.run()
    assert fired == list(range(10))


def test_run_max_events_sufficient_budget_is_silent(sim):
    fired = []
    for i in range(5):
        sim.schedule(i + 1, fired.append, i)
    sim.run(max_events=5)  # exactly enough: drains without error
    assert fired == list(range(5))


def test_run_max_events_ignores_cancelled_events(sim):
    fired = []
    handles = [sim.schedule(i + 1, fired.append, i) for i in range(6)]
    for h in handles[3:]:
        h.cancel()
    sim.run(max_events=3)  # the cancelled tail costs no budget
    assert fired == [0, 1, 2]


def test_step_returns_false_when_drained(sim):
    assert sim.step() is False
    sim.schedule(1, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_pending_counts_live_events(sim):
    h1 = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    assert sim.pending == 2
    h1.cancel()
    assert sim.pending == 1


def test_peek_time_skips_cancelled(sim):
    h = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    h.cancel()
    assert sim.peek_time() == 20


def test_events_executed_counter(sim):
    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_run_is_not_reentrant(sim):
    def bad():
        sim.run()

    sim.schedule(1, bad)
    with pytest.raises(SimulationError):
        sim.run()


def test_cancel_releases_references(sim):
    class Big:
        pass

    obj = Big()
    h = sim.schedule(10, lambda o: None, obj)
    h.cancel()
    assert h.args == ()


def test_drop_dead_compaction_keeps_pending_accurate(sim):
    """Cancelled-head compaction must agree with the live-event count."""
    handles = [sim.schedule(10 + i, lambda: None) for i in range(20)]
    for h in handles[:10]:  # cancel the whole heap head
        h.cancel()
    assert sim.pending == 10
    assert sim.peek_time() == 20  # triggers _drop_dead on the prefix
    assert len(sim._heap) == 10  # dead prefix physically removed
    assert sim.pending == 10
    handles[15].cancel()  # a dead entry in the middle stays lazily
    assert sim.pending == 9
    fired = 0
    while sim.step():
        fired += 1
    assert fired == 9
    assert sim.pending == 0


def test_pending_excludes_consumed_events(sim):
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    assert sim.step() is True
    assert sim.pending == 1


# ----------------------------------------------------------------------
# moved one-shot events (Simulator.move)
# ----------------------------------------------------------------------
def _script(sim, move):
    """Schedule, move later, earlier and later again, with events
    scheduled in between; ``move`` is the move under test."""
    fired = []
    h = sim.schedule_at(10, fired.append, "moved")
    sim.schedule_at(30, fired.append, "a30")
    h = move(sim, h, 30)
    sim.schedule_at(30, fired.append, "b30")
    sim.schedule_at(20, fired.append, "a20")
    h = move(sim, h, 20)
    sim.schedule_at(20, fired.append, "b20")
    h = move(sim, h, 30)
    sim.schedule_at(30, fired.append, "c30")
    return fired, h


def test_move_fires_where_a_fresh_schedule_would():
    def fresh(sim, h, time):  # cancel() clears callback and args
        callback, args = h.callback, h.args
        h.cancel()
        return sim.schedule_at(time, callback, *args)

    ref = Simulator()
    want, ref_h = _script(ref, fresh)
    sim = Simulator()
    got, h = _script(sim, Simulator.move)
    assert (h.time, h.seq) == (ref_h.time, ref_h.seq) == (30, 8)
    assert sim.reserve(0) == ref.reserve(0)  # one counter value per move
    ref.run()
    sim.run()
    assert got == want == ["a20", "b20", "a30", "b30", "moved", "c30"]
    assert sim.events_executed == ref.events_executed == 6


def test_move_later_is_in_place_and_earlier_is_a_fresh_handle(sim):
    h = sim.schedule_at(10, lambda: None)
    assert sim.move(h, 20) is h and (h.time, h.seq) == (20, 2)
    fresh = sim.move(h, 15)
    assert fresh is not h and h.cancelled and fresh.active
    assert (fresh.time, fresh.seq) == (15, 3)
    assert len(sim._heap) == 2  # one entry per handle, h's now dead


def test_move_to_the_same_instant_goes_after_earlier_events(sim):
    fired = []
    h = sim.schedule_at(10, fired.append, "moved")
    sim.schedule_at(10, fired.append, "other")
    assert sim.move(h, 10) is h
    sim.schedule_at(10, fired.append, "late")
    sim.run()
    assert fired == ["other", "moved", "late"]


def test_a_rekey_is_not_a_firing():
    checker = InvariantChecker()
    sim = Simulator(invariants=checker)
    fired = []
    h = sim.schedule_at(5, fired.append, "x")
    for time in (10, 20, 30):
        h = sim.move(h, time)
    sim.schedule_at(25, fired.append, "y")
    sim.run(max_events=2)  # re-keys spend no budget
    assert fired == ["y", "x"]
    assert sim.events_executed == 2
    assert checker.summary()["monotone-clock"] == 2


@pytest.mark.parametrize("first", [10, 20])
def test_run_until_stops_before_a_moved_event_past_it(sim, first):
    fired = []
    h = sim.schedule_at(first, fired.append, "x")
    sim.move(h, 50)
    sim.run(until=20)  # the entry at `first` is only a lower bound
    assert fired == [] and sim.now == 20
    assert sim.peek_time() == 50
    sim.run()
    assert fired == ["x"] and sim.now == 50


def test_move_keeps_pending_and_pending_work(sim):
    h = sim.schedule_at(10, lambda: None)
    d = sim.schedule_at(10, lambda: None, daemon=True)
    assert sim.pending == 2
    h = sim.move(h, 40)
    assert sim.pending == 2 and sim.pending_work
    h = sim.move(h, 20)
    assert sim.pending == 2 and sim.pending_work
    d = sim.move(d, 5)
    assert d.daemon and sim.pending == 2
    h.cancel()
    assert sim.pending == 1 and not sim.pending_work


class _Mover:
    """Picklable owner of a moved event (callbacks are bound methods)."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        self.handle = sim.schedule_at(10, self.fire, "moved")
        sim.schedule_at(5, self.push_back)
        sim.schedule_at(8, self.fire, "early")
        sim.schedule_at(30, self.fire, "mid")

    def push_back(self):
        self.handle = self.sim.move(self.handle, 60)
        self.sim.schedule_at(60, self.fire, "after")

    def fire(self, tag):
        self.log.append((self.sim.now, tag))


def test_moved_event_survives_pickling_mid_run():
    sim = Simulator()
    mover = _Mover(sim)
    sim.run(until=7)
    # the moved event's entry at t=10 is still on the heap, unkeyed
    assert any(seq != h.seq for _t, seq, h in sim._heap)
    clone = pickle.loads(pickle.dumps(mover))
    sim.run()
    clone.sim.run()
    assert clone.log == mover.log == [(8, "early"), (30, "mid"),
                                      (60, "moved"), (60, "after")]
    assert clone.sim.events_executed == sim.events_executed == 5


def test_cannot_move_into_the_past(sim):
    h = sim.schedule_at(50, lambda: None)
    sim.run(until=20)
    before = sim.reserve(0)
    with pytest.raises(SimulationError):
        sim.move(h, 10)
    assert sim.reserve(0) == before  # a failed move leaves no trace
    assert h.active and h.time == 50


def test_deterministic_replay():
    def drive(s: Simulator):
        order = []
        s.schedule(5, order.append, 1)
        s.schedule(5, order.append, 2)
        s.schedule(3, lambda: s.schedule(2, order.append, 0))
        s.run()
        return order

    assert drive(Simulator()) == drive(Simulator())


# ----------------------------------------------------------------------
# every(): periodic timers whose idle firings call nothing back
# ----------------------------------------------------------------------
def _timeline(use_every: bool, idle_at: frozenset):
    """Firings of a 10 us timer among same-instant events scheduled
    before and after its previous firing; returns (log, events)."""
    sim = Simulator()
    log = []

    def act(tag):
        log.append((sim.now, tag))

    def acted():  # what the timer's callback schedules lands after it
        act("tick")
        sim.schedule(10, act, "chained")

    if use_every:
        sim.every(10, lambda: sim.now in idle_at, acted)
    else:
        def tick():  # the literal loop: re-arm first, act when not idle
            sim.schedule(10, tick)
            if sim.now not in idle_at:
                acted()

        sim.schedule(10, tick)
    sim.schedule_at(20, act, "before-20")
    sim.schedule_at(30, act, "before-30")
    sim.schedule_at(10, lambda: sim.schedule_at(20, act, "after-20"))
    sim.schedule_at(25, lambda: sim.schedule_at(30, act, "after-30"))
    sim.schedule_at(30, lambda: sim.schedule(0, act, "now-30"))
    sim.run(until=45)
    return log, sim.events_executed


@pytest.mark.parametrize("idle_at", [frozenset(), frozenset({20, 30}),
                                     frozenset({10, 20, 30, 40})])
def test_every_orders_ties_like_a_self_rescheduling_callback(idle_at):
    log, events = _timeline(True, idle_at)
    assert (log, events) == _timeline(False, idle_at)
    assert [t for t, tag in log if tag == "tick"] == sorted(
        {10, 20, 30, 40} - idle_at)


def test_every_cancel_stops_the_timer(sim):
    fired = []
    h = sim.every(10, lambda: False, lambda: fired.append(sim.now))
    sim.schedule_at(35, h.cancel)
    sim.run()
    assert fired == [10, 20, 30]
    assert sim.pending == 0 and not h.active


def test_every_cancel_from_its_own_callback(sim):
    fired = []

    def act():
        fired.append(sim.now)
        if len(fired) == 2:
            h.cancel()

    h = sim.every(5, lambda: sim.now == 10, act)
    sim.run()
    assert fired == [5, 15]
    assert h.elided == 1


def test_every_elides_no_firing_past_until(sim):
    h = sim.every(10, lambda: True, pytest.fail)
    sim.run(until=35)
    assert (h.elided, sim.events_executed, sim.now) == (3, 3, 35)
    sim.run(until=50)
    assert (h.elided, sim.events_executed, sim.now) == (5, 5, 50)


def test_every_elided_firings_spend_the_event_budget(sim):
    h = sim.every(10, lambda: True, pytest.fail)
    with pytest.raises(SimulationError, match="budget exhausted"):
        sim.run(max_events=5)
    assert sim.events_executed == 5
    assert h.elided == 5


def test_every_firings_go_through_the_invariant_checker():
    checker = InvariantChecker()
    sim = Simulator(invariants=checker)
    acted = []
    h = sim.every(10, lambda: sim.now % 20 == 0, acted.append, 1)
    sim.schedule_at(55, h.cancel)
    sim.run()
    assert acted == [1, 1, 1]  # at 10, 30, 50
    assert checker.summary()["monotone-clock"] == sim.events_executed == 6


def test_every_rejects_a_non_positive_interval(sim):
    with pytest.raises(SimulationError):
        sim.every(0, lambda: True, lambda: None)


class _Ticker:
    """Picklable owner of a timer (callbacks are bound methods)."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        self.handle = sim.every(7, partial(_quiet, self), self.act)

    def act(self):
        self.log.append(self.sim.now)


def _quiet(ticker) -> bool:
    return ticker.sim.now % 3 != 0


def test_every_timer_survives_pickling_mid_run():
    sim = Simulator()
    ticker = _Ticker(sim)
    sim.schedule_at(100, ticker.handle.cancel)
    sim.run(until=40)
    clone = pickle.loads(pickle.dumps(ticker))
    sim.run()
    clone.sim.run()
    assert clone.log == ticker.log == [21, 42, 63, 84]
    assert clone.handle.elided == ticker.handle.elided == 10
    assert clone.sim.events_executed == sim.events_executed


# ----------------------------------------------------------------------
# chains: virtual one-shot firings at exact ranks
# ----------------------------------------------------------------------
class _RotorChain(Chain):
    __slots__ = ("rotor",)

    def settle(self, pos):
        self.rotor.settle(pos)


class _Rotor:
    """Fires every ``step`` us, ``n`` times, each firing re-arming the
    next; ``lazy`` runs all but the last as a chain's virtual firings,
    settled when read (:meth:`read`) or when the last one fires."""

    def __init__(self, sim, step, n, lazy):
        self.sim, self.step, self.n = sim, step, n
        self.count = 0
        self.chain = None
        if not lazy:
            sim.schedule(step, self.fire)
            return
        rank = sim.reserve(1)  # the rank of the literal first firing
        t0 = sim.now + step
        chain = _RotorChain(sim, list(range(t0, t0 + (n - 1) * step, step)),
                            rank)
        chain.rotor = self
        chain.end = (n - 2, 1)
        self.chain = chain
        self.handle = sim.schedule_chained(chain, t0 + (n - 1) * step,
                                           self._end)
        sim.add_chain(chain)

    def fire(self):
        self.count += 1
        if self.count < self.n:
            self.sim.schedule(self.step, self.fire)

    def _apply(self, m):
        chain, self.chain = self.chain, None
        self.sim.drop_chain(chain, m)
        self.count = m
        return chain

    def _end(self):
        self._apply(len(self.chain.times))
        self.fire()

    def settle(self, pos):
        self.handle.cancel()
        chain = self._apply(self.chain.count_before(pos))
        m = self.count
        at = chain.times[0] + m * self.step
        rank, key = (chain.armed(m - 1, at, 1) if m
                     else (chain.ranks[0], None))
        self.sim.schedule_ranked(rank, at, self.fire, key=key)

    def read(self):
        if self.chain is not None:
            self.settle(self.sim.position())
        return self.count


def _rotor_run(lazy, build, until=None):
    """Run ``build``'s script with a literal or a lazy rotor; return
    what its touches read, the executed-event count and the clock."""
    sim = Simulator()
    box = {"sim": sim, "out": []}
    build(sim, box, lazy)
    if until is not None:
        sim.run(until=until)
        box["out"].append(("until", sim.now, box["rotor"].count,
                           sim.events_executed))
    sim.run()
    return box["out"], sim.events_executed, sim.now


def _start_rotor(box, step, n, lazy):
    box["rotor"] = _Rotor(box["sim"], step, n, lazy)


def _touch(box, name):
    box["out"].append((name, box["sim"].now, box["rotor"].read()))


def _touch_at(box, t, name):
    box["sim"].schedule_at(t, _touch, box, name)


def _relay(box, t1, t, name):
    box["sim"].schedule_at(t1, _touch_at, box, t, name)


def _seen(out):
    return {name: count for name, _t, count in out}


def test_chain_touch_at_a_virtual_firing_instant():
    """A touch at the instant of a virtual firing (t=20) sees it iff the
    touch was scheduled after the firing that armed it (t=10)."""
    def build(sim, box, lazy):
        sim.schedule_at(20, _touch, box, "before the chain")
        sim.schedule_at(10, _touch_at, box, 20, "at 10, before it")

        def start():
            _start_rotor(box, 10, 6, lazy)
            sim.schedule_at(20, _touch, box, "after the chain")
            sim.schedule_at(10, _touch_at, box, 20, "at 10, after it")
            sim.schedule_at(15, _touch_at, box, 20, "after it")

        sim.schedule_at(0, start)

    literal = _rotor_run(False, build)
    assert _rotor_run(True, build) == literal
    assert _seen(literal[0]) == {
        "before the chain": 1, "at 10, before it": 1, "after the chain": 1,
        "at 10, after it": 2, "after it": 2}


def test_chain_event_ties_with_events_scheduled_around_its_arming():
    """The chain's one heap event (the firing at 40, armed at the
    virtual firing at 30) goes after a touch at 40 scheduled before that
    firing and before one scheduled after it."""
    def build(sim, box, lazy):
        def start():
            _start_rotor(box, 10, 4, lazy)
            sim.schedule_at(40, _touch, box, "with the chain")
            sim.schedule_at(25, _touch_at, box, 40, "between")
            sim.schedule_at(25, _relay, box, 30, 40, "at 30, after it")

        sim.schedule_at(30, _touch_at, box, 40, "at 30, before it")
        sim.schedule_at(0, start)

    literal = _rotor_run(False, build)
    assert _rotor_run(True, build) == literal
    assert _seen(literal[0]) == {
        "at 30, before it": 3, "with the chain": 3, "between": 3,
        "at 30, after it": 4}


def test_chain_outlives_a_full_rank_log():
    """More than 256 logged events while a chain is pending."""
    def build(sim, box, lazy):
        for t in range(1, 400):
            sim.schedule_at(t, int)

        def start():
            _start_rotor(box, 10, 40, lazy)
            sim.schedule_at(350, _touch, box, "with the chain")
            sim.schedule_at(345, _touch_at, box, 350, "after 340")

        sim.schedule_at(0, start)

    literal = _rotor_run(False, build)
    assert _rotor_run(True, build) == literal
    assert _seen(literal[0]) == {"with the chain": 34, "after 340": 35}


def test_run_until_ending_on_a_virtual_firing():
    def build(sim, box, lazy):
        sim.schedule_at(0, _start_rotor, box, 10, 6, lazy)
        sim.schedule_at(45, _touch, box, "later")

    literal = _rotor_run(False, build, until=30)
    assert _rotor_run(True, build, until=30) == literal
    assert literal[0][0] == ("until", 30, 3, 4)


_SNAPSHOTS: list = []


def _snapshot(box):
    if box["rotor"].chain is not None:
        _SNAPSHOTS.append(pickle.dumps(box))


def test_chain_survives_pickling_mid_plan():
    def build(sim, box, lazy):
        sim.schedule_at(0, _start_rotor, box, 10, 8, lazy)
        sim.schedule_at(25, _snapshot, box)
        sim.schedule_at(55, _touch, box, "after the snapshot")

    out, executed, _now = _rotor_run(True, build)
    clone = pickle.loads(_SNAPSHOTS.pop())
    clone["sim"]._running = False  # pickled inside an event
    clone["sim"].run()
    assert clone["out"] == out == _rotor_run(False, build)[0]
    assert clone["sim"].events_executed == executed


def test_chain_firings_spend_the_event_budget():
    results = []
    for lazy in (False, True):
        sim = Simulator()
        box = {"sim": sim, "out": []}
        sim.schedule_at(0, _start_rotor, box, 10, 20, lazy)
        sim.schedule_at(95, _touch, box, "mid")
        with pytest.raises(SimulationError, match="event budget exhausted"):
            sim.run(max_events=12)
        results.append((box["out"], sim.events_executed, sim.now,
                        box["rotor"].count))
    assert results[0] == results[1] == ([("mid", 95, 9)], 12, 100, 10)


# ----------------------------------------------------------------------
# a chain and a parked timer tied at one instant
# ----------------------------------------------------------------------
def _tie_run(lazy, timer_first):
    """A parked timer (interval 10) and a 6-firing rotor (step 10), both
    armed in one event at t=0; the timer turns busy at 55 and, acting
    at 60, reads the rotor, whose 6th firing is at 60 too."""
    sim = Simulator()
    box = {"sim": sim, "out": []}
    state = {"busy": False}

    def act():
        state["busy"] = False
        _touch(box, "timer")

    def arm_timer():
        box["timer"] = sim.every(10, lambda: not state["busy"], act,
                                 park=lazy)

    def start():
        if timer_first:
            arm_timer()
        _start_rotor(box, 10, 6, lazy)
        if not timer_first:
            arm_timer()

    def wake():
        state["busy"] = True
        sim.poke(box["timer"])

    sim.schedule_at(0, start)
    sim.schedule_at(55, wake)
    sim.schedule_at(75, lambda: box["timer"].cancel())
    sim.run()
    return box["out"], sim.events_executed, sim.now, box["rotor"].count


def test_tie_of_a_chain_and_a_parked_timer_armed_rotor_first():
    literal = _tie_run(False, timer_first=False)
    assert _tie_run(True, timer_first=False) == literal
    assert literal[0] == [("timer", 60, 6)]


def test_tie_of_a_chain_and_a_parked_timer_armed_timer_first():
    """The literal timer fires first at every instant from 10 on, as
    armed; no fixed rule for a chained and a parked firing holds in
    both arming orders."""
    literal = _tie_run(False, timer_first=True)
    assert _tie_run(True, timer_first=True) == literal
    assert literal[0] == [("timer", 60, 5)]


def _mixed_scenario(seed, lazy, settle=False):
    """Parked timers and lazy rotors of one interval (10) and two
    phases, armed by events among events that touch the rotors, poke
    the timers and schedule events at their own instant and later
    (``settle``: and read a timer's ``elided`` through
    :meth:`Simulator.settle`); every decision is a function of (seed,
    tag, time), not of order."""
    sim = Simulator()
    box = {"sim": sim, "out": []}
    busy, timers, rotors = {}, {}, {}

    def rng(tag):
        return random.Random(f"{seed}/{tag}/{sim.now}")

    def read(tag, r):
        if rotors:
            name = r.choice(sorted(rotors))
            box["out"].append((tag, sim.now, name, rotors[name].read()))

    def event(tag):
        r = rng(tag)
        read(tag, r)
        if settle and timers:
            name = r.choice(sorted(timers))
            sim.settle(timers[name])
            box["out"].append((tag, sim.now, name, timers[name].elided))
        for k in range(r.randrange(3)):
            when = r.choice((0, 0, 5, 10))
            if r.random() < 0.5:
                sim.schedule(when, wake, r.choice(sorted(busy)))
            elif tag.count(".") < 3:
                sim.schedule(when, event, f"{tag}.{k}")

    def wake(name):
        box["out"].append((f"wake {name}", sim.now))
        if name in timers:
            busy[name] = True
            sim.poke(timers[name])

    def act(name):
        busy[name] = False
        r = rng(name)
        read(name, r)
        if r.random() < 0.4:
            sim.schedule(r.choice((0, 5, 10)), event, f"{name}!")

    def arm(name):
        busy[name] = False
        timers[name] = sim.every(10, partial(lambda n: not busy[n], name),
                                 act, name, park=lazy)

    def start(name, n):
        rotors[name] = _Rotor(sim, 10, n, lazy)

    r = random.Random(seed)
    for i in range(3):
        busy[f"t{i}"] = False
        sim.schedule_at(r.choice((0, 0, 5, 10)), arm, f"t{i}")
    for i in range(3):
        sim.schedule_at(r.choice((0, 0, 5, 10, 20)), start, f"r{i}",
                        r.randrange(3, 9))
    for i in range(12):
        sim.schedule_at(r.randrange(0, 120, 5), event, f"e{i}")
    sim.schedule_at(150, lambda: [h.cancel() for h in timers.values()])
    sim.run()
    return (box["out"], sim.events_executed, sim.now,
            {n: h.elided for n, h in timers.items()})


@pytest.mark.parametrize("seed", range(40))
def test_random_ties_of_chains_and_parked_timers(seed):
    assert _mixed_scenario(seed, True) == _mixed_scenario(seed, False)


@pytest.mark.parametrize("seed", range(20))
def test_random_ties_with_elided_read_mid_run(seed):
    """A settle counts a parked timer's firings without resolving their
    ranks unless it lies at one of their instants; either way the count
    read mid-run is the literal one."""
    lazy = _mixed_scenario(seed, True, settle=True)
    assert lazy == _mixed_scenario(seed, False, settle=True)
    assert any(len(entry) == 4 and entry[3] for entry in lazy[0])


# ----------------------------------------------------------------------
# a parked-mode timer armed idle, and ranks resolved only when read
# ----------------------------------------------------------------------
def _idle_armed_run(lazy, poke_at=None, cancel_at=None, settle_at=()):
    """A timer (interval 10) armed idle at t=2 among touches at its
    first instant (12) scheduled before and after the arming; it turns
    busy at ``poke_at``, is cancelled at ``cancel_at`` and has its idle
    firings read at ``settle_at``, before and after its firing there."""
    sim = Simulator()
    out = []
    state = {"busy": False}
    box = {}

    def act():
        state["busy"] = False
        out.append(("act", sim.now))

    def arm():
        box["timer"] = sim.every(10, lambda: not state["busy"], act,
                                 park=lazy)
        if lazy:
            out.append(("armed parked", box["timer"].park.parked))
        for t in settle_at:
            sim.schedule_at(t, read, "after")
        sim.schedule_at(12, out.append, ("after", 12))

    def read(tag):
        sim.settle(box["timer"])
        out.append((tag, sim.now, box["timer"].elided))

    def wake():
        state["busy"] = True
        sim.poke(box["timer"])

    sim.schedule_at(12, out.append, ("before", 12))
    for t in settle_at:
        sim.schedule_at(t, read, "before")
    sim.schedule_at(2, arm)
    if poke_at is not None:
        sim.schedule_at(poke_at, wake)
    sim.schedule_at(cancel_at or 45, lambda: box["timer"].cancel())
    sim.schedule_at(60, int)
    sim.run()
    return ([e for e in out if e[0] != "armed parked"], sim.events_executed,
            box["timer"].elided, sim.pending), out


@pytest.mark.parametrize("case", [
    {"poke_at": 5}, {"poke_at": 12}, {"poke_at": 31}, {"cancel_at": 7},
    {"cancel_at": 12}, {"settle_at": (12,)}, {"settle_at": (22, 32)},
    {"settle_at": (12, 22), "poke_at": 17},
], ids=lambda case: "-".join(f"{k}{v}" for k, v in case.items()))
def test_timer_armed_idle_starts_parked(case):
    literal, _ = _idle_armed_run(False, **case)
    lazy, out = _idle_armed_run(True, **case)
    assert lazy == literal
    assert ("armed parked", True) in out


def _late_poke_run(lazy, poke_at):
    """A timer (interval 10) armed idle at 0, settled (counted) at 105
    and poked at ``poke_at``.  Every microsecond an event schedules a
    touch at the next multiple of 10, so the firing that acts lands
    among the touches of its instant where its rank says, and ranks
    change at every event; the rank log restarts every 256 of them."""
    sim = Simulator()
    out = []
    state = {"busy": False}

    def act():
        state["busy"] = False
        out.append(("act", sim.now))

    timer = sim.every(10, lambda: not state["busy"], act, park=lazy)

    def settle():
        sim.settle(timer)
        out.append(("settled", sim.now, timer.elided))

    def wake():
        state["busy"] = True
        sim.poke(timer)

    def relay():
        sim.schedule_at(sim.now // 10 * 10 + 10, out.append, sim.now)

    for t in range(1, 600):
        sim.schedule_at(t, relay)
    sim.schedule_at(105, settle)
    sim.schedule_at(poke_at, wake)
    sim.schedule_at(650, timer.cancel)
    sim.run()
    return out, sim.events_executed, timer.elided


# 388 and 514-519 poke just after a log restart that follows an idle
# firing (380, 510): the restart must resolve the rank the log decides
@pytest.mark.parametrize("poke_at", [111, 255, 388, 389, 447, 514, 519,
                                     583])
def test_counted_settle_then_poke_after_log_restarts(poke_at):
    literal = _late_poke_run(False, poke_at)
    assert _late_poke_run(True, poke_at) == literal
    out = literal[0]
    assert ("settled", 105, 10) in out
    fired = poke_at // 10 * 10  # the last idle firing before the act
    at = out.index(("act", fired + 10))
    assert out[at - 1:at + 2:2] == [fired, fired + 1]


def _stepped(lazy):
    """Step a rotor (step 10, 8 firings) and a phase-5 parked timer
    (interval 10, busy from 47) by hand; return, after each step, the
    executed events, the rotor's count and the timer's idle firings."""
    sim = Simulator()
    box = {"sim": sim, "out": []}
    state = {"busy": False}

    def act():
        state["busy"] = False

    def arm():
        box["timer"] = sim.every(10, lambda: not state["busy"], act,
                                 park=lazy)

    def wake():
        state["busy"] = True
        sim.poke(box["timer"])

    sim.schedule_at(0, _start_rotor, box, 10, 8, lazy)
    sim.schedule_at(5, arm)
    sim.schedule_at(33, int)
    sim.schedule_at(47, wake)
    sim.schedule_at(70, int)
    sim.schedule_at(96, lambda: box["timer"].cancel())
    seen = []
    while sim.step():
        seen.append((sim.events_executed, box["rotor"].count,
                     box["timer"].elided if "timer" in box else 0))
    return seen


def test_step_settles_every_chain_and_parked_timer():
    literal = _stepped(False)
    assert [e for e, _count, _elided in literal] == list(
        range(1, len(literal) + 1))
    lazy = _stepped(True)
    assert len(lazy) < len(literal)
    for state in lazy:
        assert state == literal[state[0] - 1]
