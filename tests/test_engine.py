"""Unit tests for the discrete-event simulator kernel."""

import pickle
from functools import partial

import pytest

from repro.invariants.checker import InvariantChecker
from repro.sim.engine import SimulationError, Simulator


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
