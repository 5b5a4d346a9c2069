"""Parked periodic timers (``Simulator.every(..., park=True)``) against
the literal reference (``park=False``).

A parked timer leaves the event heap while idle and is put back by
``Simulator.poke``; its virtual firings must take exactly the ranks the
literal timer's firings take, and count in ``events_executed``, the
``max_events`` budget and ``handle.elided`` as if they had fired.  Every
test here runs one scenario in both modes and compares all of it.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

import test_poll_elision as elision
from repro.invariants.checker import InvariantChecker, InvariantViolation
from repro.sim.engine import SimulationError, Simulator


# ----------------------------------------------------------------------
# SFS stress: the tie workloads of test_poll_elision in both modes
# ----------------------------------------------------------------------
def _literal_every(every):
    def literal(self, interval, idle, callback, *args, park=False):
        return every(self, interval, idle, callback, *args)
    return literal


@pytest.mark.parametrize("engine,poll_ms", sorted(elision.STRESS))
def test_sfs_stress_parked_matches_literal(engine, poll_ms, monkeypatch):
    """Full digest text of each seed, ``events_executed`` included; the
    parked runs arm the invariant checker, so ``parked-idle`` is checked
    after every event."""
    run = elision._stress.__wrapped__
    checkers = []

    def checked_sim():
        checkers.append(InvariantChecker())
        return Simulator(invariants=checkers[-1])

    with monkeypatch.context() as m:
        m.setattr(elision, "Simulator", checked_sim)
        parked = [run(engine, poll_ms, seed)[0] for seed in elision.SEEDS]
    assert sum(c.summary().get("parked-idle", 0) for c in checkers) > 0
    with monkeypatch.context() as m:
        m.setattr(Simulator, "every", _literal_every(Simulator.every))
        for seed, text in zip(elision.SEEDS, parked):
            assert run(engine, poll_ms, seed)[0] == text, seed


# ----------------------------------------------------------------------
# engine-level scenarios
# ----------------------------------------------------------------------
class Owner:
    """Owns timers whose idle test reads a flag; whoever raises a flag
    pokes the timer, and the timer's action lowers it again."""

    def __init__(self, sim: Simulator, park: bool):
        self.sim = sim
        self.park = park
        self.log = []
        self.flags = {}
        self.timers = {}

    def arm(self, name, interval, action=None):
        self.flags[name] = False
        self.timers[name] = self.sim.every(
            interval, partial(self._idle, name), self._act, name, action,
            park=self.park)

    def _idle(self, name):
        return not self.flags[name]

    def _act(self, name, action):
        self.log.append((self.sim.now, name))
        self.flags[name] = False
        if action is not None:
            action()

    def raise_flag(self, name):
        self.log.append((self.sim.now, f"raise {name}"))
        if name in self.timers:
            self.flags[name] = True
            self.sim.poke(self.timers[name])

    def mark(self, tag):
        self.log.append((self.sim.now, tag))

    def outcome(self):
        for handle in self.timers.values():
            self.sim.settle(handle)
        return (self.log, self.sim.events_executed, self.sim.now,
                {n: h.elided for n, h in self.timers.items()})


def both(scenario):
    """The scenario's outcome in literal and in parked mode."""
    return [scenario(Owner(Simulator(), park)) for park in (False, True)]


def test_poke_before_and_after_a_virtual_firing_at_one_instant():
    def scenario(o):
        sim = o.sim
        o.arm("t", 10)
        # at 40: raised by an event ranked before the timer's firing at
        # 40 (scheduled before its firing at 30), so it acts at 40 ...
        sim.schedule_at(25, lambda: sim.schedule_at(40, o.raise_flag, "t"))
        sim.schedule_at(35, lambda: sim.schedule_at(40, o.mark, "x"))
        # ... and at 60 by one ranked after it (scheduled after the
        # firing at 50), so it acts only at 70
        sim.schedule_at(35, lambda: sim.schedule_at(60, o.mark, "y"))
        sim.schedule_at(55, lambda: sim.schedule_at(60, o.raise_flag, "t"))
        sim.schedule_at(95, o.timers["t"].cancel)
        sim.run()
        return o.outcome()

    literal, parked = both(scenario)
    assert parked == literal
    assert [t for t, tag in literal[0] if tag == "t"] == [40, 70]


def test_two_parked_timers_sharing_an_instant():
    def scenario(o):
        sim = o.sim
        # a and b share phase and interval; c has twice the interval
        sim.schedule_at(3, o.arm, "a", 10, lambda: sim.schedule(0, o.mark,
                                                                "after-a"))
        sim.schedule_at(3, o.arm, "b", 10, lambda: sim.schedule(10, o.mark,
                                                                "after-b"))
        sim.schedule_at(13, o.arm, "c", 20)
        for t in (20, 41, 63, 81):
            sim.schedule_at(t, o.raise_flag, "b")
            sim.schedule_at(t, o.raise_flag, "a")
            sim.schedule_at(t + 1, o.raise_flag, "c")
        sim.schedule_at(120, lambda: [h.cancel()
                                      for h in o.timers.values()])
        sim.run()
        return o.outcome()

    literal, parked = both(scenario)
    assert parked == literal
    acts = [(t, tag) for t, tag in literal[0] if tag in "abc"]
    assert (23, "a") in acts and (23, "b") in acts


def test_run_until_lands_on_a_virtual_firing():
    def scenario(o):
        sim = o.sim
        o.arm("t", 10)
        sim.schedule_at(30, o.mark, "x")
        sim.run(until=30)
        first = (sim.events_executed, sim.now)
        o.raise_flag("t")  # between runs: the firing at 30 is past
        sim.schedule_at(30, o.mark, "y")
        sim.run(until=50)
        o.timers["t"].cancel()
        return first, o.outcome()

    literal, parked = both(scenario)
    assert parked == literal
    assert literal[0] == (4, 30)
    assert (40, "t") in literal[1][0]


def test_event_budget_runs_out_between_real_events():
    def scenario(o):
        sim = o.sim
        o.arm("t", 10)
        sim.schedule_at(15, o.mark, "x")
        sim.schedule_at(95, o.mark, "y")
        with pytest.raises(SimulationError, match="budget exhausted"):
            sim.run(max_events=6)
        return sim.events_executed

    literal, parked = both(scenario)
    assert parked == literal == 6


def test_event_budget_runs_out_at_the_end_of_a_bounded_run():
    def scenario(o):
        sim = o.sim
        o.arm("t", 10)
        sim.schedule_at(15, o.mark, "x")
        with pytest.raises(SimulationError, match="budget exhausted"):
            sim.run(until=100, max_events=6)
        return sim.events_executed

    literal, parked = both(scenario)
    assert parked == literal == 6


def _random_scenario(seed: int, o: Owner):
    """Timers of two intervals and several phases, armed by events, among
    events that schedule events at their own instant and later; every
    decision is a function of (seed, tag, time), not of order."""
    sim = o.sim

    def rng(tag):
        return random.Random(f"{seed}/{tag}/{sim.now}")

    def event(tag):
        o.mark(tag)
        r = rng(tag)
        for k in range(r.randrange(3)):
            kind = r.random()
            when = r.choice((0, 0, 2, 5, 10))
            if kind < 0.5:
                sim.schedule(when, o.raise_flag, r.choice(names))
            elif tag.count(".") < 3:
                sim.schedule(when, event, f"{tag}.{k}")

    def action(name):
        r = rng(name)
        if r.random() < 0.5:
            sim.schedule(r.choice((0, 5, 10)), event, f"{name}!")
        if r.random() < 0.3:  # poke a timer from a timer's own firing
            o.raise_flag(r.choice(names))

    names = [f"t{i}" for i in range(4)]
    r = random.Random(seed)
    for name in names:
        at = r.choice((0, 0, 5, 10))
        sim.schedule_at(at, lambda name=name, iv=r.choice((10, 10, 20)):
                        o.arm(name, iv, partial(action, name)))
    for i in range(12):
        sim.schedule_at(r.randrange(0, 150, 5), event, f"e{i}")
    sim.schedule_at(200, lambda: [h.cancel() for h in o.timers.values()])
    sim.run()
    return o.outcome()


@pytest.mark.parametrize("seed", range(40))
def test_random_ties_parked_matches_literal(seed):
    literal, parked = both(partial(_random_scenario, seed))
    assert parked == literal


# ----------------------------------------------------------------------
# liveness and the parked-idle law
# ----------------------------------------------------------------------
def test_pending_counts_a_parked_timer_as_live_work(sim):
    h = sim.every(10, lambda: True, pytest.fail, park=True)
    sim.run(until=15)
    assert h.park.parked
    assert sim.pending == 1
    assert sim.pending_work
    h.cancel()
    assert sim.pending == 0
    assert not sim.pending_work


def test_drained_heap_with_a_parked_timer_raises_naming_it(sim):
    def poll():
        pass

    sim.every(10, lambda: True, poll, park=True)
    sim.schedule_at(25, lambda: None)
    with pytest.raises(SimulationError, match="parked.*poll"):
        sim.run()


def test_missed_poke_fails_the_parked_idle_law():
    sim = Simulator(invariants=InvariantChecker())
    state = {"busy": False}
    sim.every(10, lambda: not state["busy"], lambda: None, park=True)
    sim.schedule_at(25, state.__setitem__, "busy", True)  # no poke
    with pytest.raises(InvariantViolation, match="parked-idle"):
        sim.run(until=100)


def test_virtual_firings_count_in_the_checker():
    checker = InvariantChecker()
    sim = Simulator(invariants=checker)
    h = sim.every(10, lambda: True, pytest.fail, park=True)
    sim.schedule_at(55, h.cancel)
    sim.run()
    assert h.elided == 5
    assert checker.summary()["monotone-clock"] == sim.events_executed == 6
