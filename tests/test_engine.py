"""Unit tests for the discrete-event simulator kernel."""

import pytest

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


def test_deterministic_replay():
    def drive(s: Simulator):
        order = []
        s.schedule(5, order.append, 1)
        s.schedule(5, order.append, 2)
        s.schedule(3, lambda: s.schedule(2, order.append, 0))
        s.run()
        return order

    assert drive(Simulator()) == drive(Simulator())
