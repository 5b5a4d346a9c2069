"""The gauge sampler covers a quiet stretch with one heap firing.

Between two heap events nothing a gauge reads can change, so a sampler
firing runs ahead the ticks the literal run would fire before the next
live event (:meth:`Simulator.quiet_ticks`).  Every test here compares
against the literal run: a daemon that re-arms itself at each tick, or
a traced run driven by :meth:`Simulator.step`, where every tick stays a
heap event.
"""

from __future__ import annotations

import gc
import random
from functools import partial

import pytest
from conftest import make_cpu_task

from repro.experiments.runner import RunConfig, run_many, run_workload
from repro.faas.driver import Driver, Host
from repro.invariants.checker import InvariantChecker
from repro.machine.base import MachineParams
from repro.machine.fluid import FluidMachine
from repro.obs import MetricsRegistry
from repro.sim.engine import SimulationError, Simulator
from repro.sim.units import MS
from repro.trace import TraceRecorder
from repro.why import AuditLog
from repro.workload.faasbench import FaaSBench, FaaSBenchConfig


# ----------------------------------------------------------------------
# engine level: a daemon tick beside hand-made and random ties
# ----------------------------------------------------------------------
def _sampled(batched, build, interval=10, until=None, max_events=None,
             checked=False):
    """Run ``build(sim, log)``'s events beside a daemon tick of
    ``interval`` that records, per tick, its instant and how many
    events had run; ``batched`` covers quiet stretches with one heap
    firing.  Returns everything the two modes must agree on."""
    checker = InvariantChecker() if checked else None
    sim = Simulator(invariants=checker)
    log, rows, fired = [], [], [0]

    def tick():
        fired[0] += 1
        now, seen = sim.now, len(log)
        rearm = sim.pending_work
        n = sim.quiet_ticks(interval) if rearm and batched else 1
        rows.extend((now + j * interval, seen) for j in range(n))
        if rearm:
            sim.schedule(interval, tick, daemon=True)

    sim.schedule(interval, tick, daemon=True)
    build(sim, log)
    error, stop = None, None
    try:
        sim.run(until=until, max_events=max_events)
        if until is not None:  # where it stands there, and on to the end
            stop = (len(rows), sim.events_executed, sim._seq, sim.now)
            sim.run()
    except SimulationError as exc:  # its event list names object ids
        error = str(exc).split("; last events")[0]
    state = (rows, log, sim.events_executed, sim._seq, sim.now, error,
             stop, checker.summary() if checked else None)
    return state, fired[0]


def _agree(build, **kw):
    """The batched run equals the literal one; returns both firing
    counts of the tick (batched, literal)."""
    batched, fired = _sampled(True, build, **kw)
    literal, ticks = _sampled(False, build, **kw)
    assert batched == literal
    assert ticks == len(literal[0])
    return fired, ticks


def _act(sim, log, tag):
    log.append((sim.now, tag))


def _ties_at_tick_instants(sim, log):
    """Events at tick instants (50 and 90) armed before the tick before
    them (at 0, ranked ahead of every tick) and after it (at 40 behind
    the tick there, and at 45), and one at the instant it was armed."""
    act = partial(_act, sim, log)
    sim.schedule_at(50, act, "armed at 0")
    sim.schedule_at(40, lambda: sim.schedule_at(50, act, "armed at 40"))
    sim.schedule_at(45, lambda: sim.schedule_at(50, act, "armed at 45"))
    sim.schedule_at(90, lambda: sim.schedule(0, act, "armed at 90"))
    sim.schedule_at(300, act, "last")


@pytest.mark.parametrize("checked", [False, True])
def test_ties_at_tick_instants(checked):
    fired, ticks = _agree(_ties_at_tick_instants, checked=checked)
    assert ticks == 30 and fired < ticks / 2


def _poked_timer(sim, log, poke_at):
    """A 4 ms parked-mode timer beside a 1 ms tick, idle until it is
    poked at ``poke_at``, between two ticks."""
    busy = [False]

    def act():
        busy[0] = False
        log.append((sim.now, "act"))

    timer = sim.every(4 * MS, lambda: not busy[0], act, park=True)

    def poke():
        busy[0] = True
        log.append((sim.now, "poke"))
        sim.poke(timer)

    sim.schedule_at(poke_at, poke)
    sim.schedule_at(30 * MS, timer.cancel)


@pytest.mark.parametrize("poke_at", [6_500, 7_500, 8_000, 13_200, 15_999])
@pytest.mark.parametrize("checked", [False, True])
def test_parked_timer_poked_between_ticks(poke_at, checked):
    """Each tick run ahead logs its rank: the poked timer's firing takes
    the counter of the first event logged after its last firing, which
    is a tick, so its act lands before the tick of its instant."""
    fired, ticks = _agree(partial(_poked_timer, poke_at=poke_at),
                          interval=MS, checked=checked)
    assert fired < ticks / 2
    rows, log = _sampled(True, partial(_poked_timer, poke_at=poke_at),
                         interval=MS)[0][:2]
    act = log.index((-(-poke_at // (4 * MS)) * 4 * MS, "act"))
    assert (log[act][0], act + 1) in rows


@pytest.mark.parametrize("until", [35, 40, 41, 255])
def test_until_between_ticks(until):
    fired, ticks = _agree(_ties_at_tick_instants, until=until)
    assert fired < ticks


@pytest.mark.parametrize("budget", [10, 10_000])
def test_event_budget_keeps_every_tick_literal(budget):
    fired, ticks = _agree(_ties_at_tick_instants, max_events=budget)
    assert fired == ticks


def _random_script(seed, sim, log):
    """Events at multiples of 5 (ticks fall on multiples of 10) that
    schedule more at their own instant and later, beside two parked
    timers poked by some of them."""
    r = random.Random(seed)
    busy, timers = {}, {}

    def event(tag):
        log.append((sim.now, tag))
        rr = random.Random(f"{seed}/{tag}/{sim.now}")
        for k in range(rr.randrange(3)):
            when = rr.choice((0, 5, 10, 20, 35))
            if rr.random() < 0.3:
                sim.schedule(when, wake, rr.choice(sorted(timers)))
            elif tag.count(".") < 3:
                sim.schedule(when, event, f"{tag}.{k}")

    def wake(name):
        log.append((sim.now, f"wake {name}"))
        busy[name] = True
        sim.poke(timers[name])

    def act(name):
        busy[name] = False
        log.append((sim.now, name))

    for name, interval in (("a", 20), ("b", 30)):
        busy[name] = False
        timers[name] = sim.every(interval, partial(lambda n: not busy[n],
                                                   name),
                                 act, name, park=True)
    for i in range(10):
        sim.schedule_at(r.randrange(0, 400, 5), event, f"e{i}")
    sim.schedule_at(500, lambda: [h.cancel() for h in timers.values()])


@pytest.mark.parametrize("seed", range(20))
def test_random_ties_with_parked_timers(seed):
    _agree(partial(_random_script, seed), checked=seed % 2 == 1)


# ----------------------------------------------------------------------
# a traced run: step() (every tick a heap event) against run()
# ----------------------------------------------------------------------
def _workload(n=120, cores=4, seed=5):
    return FaaSBench(FaaSBenchConfig(n_requests=n, n_cores=cores,
                                     target_load=1.1, io_fraction=0.3),
                     seed=seed).generate()


def _traced(engine, stepped):
    """A traced, metered and audited sfs host run with a 1 ms sampler,
    driven by ``step()`` or ``run()``."""
    wl = _workload()
    recorder, registry = TraceRecorder(gauge_interval=MS), MetricsRegistry()
    driver = Driver("sampler", trace=recorder,
                    metrics=registry, audit=AuditLog())
    sim = driver.sim
    host = Host(sim, "sfs", engine, MachineParams(n_cores=4))
    sim.probe.attach_sampler(host.machine, host.sfs)
    driver.feed(wl, host.arrive)
    if stepped:
        while sim.step():
            pass
    else:
        sim.run()
    gauges = sorted((g.name, sorted(g.labels.items()), g.snapshot(),
                     g.series) for g in registry if g.kind == "gauge")
    return (recorder.tick_pos, recorder.tick_ts, recorder.tick_keys,
            recorder.tick_values, gauges, sim.events_executed, sim._seq)


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_traced_run_matches_the_stepped_run(engine):
    literal = _traced(engine, stepped=True)
    assert _traced(engine, stepped=False) == literal
    tick_ts = literal[1]
    assert len(tick_ts) > 100
    assert tick_ts == list(range(MS, MS * (len(tick_ts) + 1), MS))


def _two_machines(stepped):
    """A metered run sampling two machines, whose machine-wide gauges
    resolve to one registry gauge each: their samples interleave."""
    registry = MetricsRegistry(gauge_interval=MS)
    sim = Simulator(metrics=registry)
    machines = [FluidMachine(sim, MachineParams(n_cores=2))
                for _ in range(2)]
    sim.probe.attach_sampler(*machines)
    for i in range(12):
        sim.schedule_at(i * 7 * MS, machines[i % 2].spawn,
                        make_cpu_task((5 + i % 4) * MS))
    if stepped:
        while sim.step():
            pass
    else:
        sim.run()
    return sorted((g.name, g.snapshot(), g.series)
                  for g in registry if g.kind == "gauge")


def test_keys_sharing_a_gauge_interleave_per_tick():
    literal = _two_machines(stepped=True)
    assert _two_machines(stepped=False) == literal
    assert any(len(series) > 40 for _, _, series in literal)


# ----------------------------------------------------------------------
# one run's object graph is freed by reference counting alone
# ----------------------------------------------------------------------
def _garbage_of(run) -> int:
    run()  # first-use imports leave cyclic garbage of their own
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def test_traced_run_leaves_no_cyclic_garbage():
    wl = _workload(n=60)
    sinks = (TraceRecorder(), MetricsRegistry(), AuditLog())

    def run():
        run_workload(wl, RunConfig(scheduler="sfs", engine="fluid",
                                   machine=MachineParams(n_cores=4)),
                     trace=sinks[0], metrics=sinks[1], audit=sinks[2])

    assert _garbage_of(run) == 0


def test_paired_runs_leave_no_cyclic_garbage():
    wl = _workload(n=60)

    def run():
        run_many(wl, RunConfig(engine="fluid",
                               machine=MachineParams(n_cores=4)),
                 ("cfs", "sfs", "srtf"))

    assert _garbage_of(run) == 0
