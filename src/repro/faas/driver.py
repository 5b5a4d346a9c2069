"""The one run path every driver shares.

Every run in the paper makes the same moves: a request arrives, its
function process is spawned under CFS, and the sandbox sends SFS a
``(pid, invocation timestamp)`` message (§VI).  This module writes that
sequence once, in two classes:

* :class:`Driver` — one run's simulator and invariant checker (built
  from the ``trace`` / ``metrics`` / ``audit`` / ``invariants``
  arguments), a prefetch-one arrival source over any
  :class:`~repro.workload.spec.RequestSpec` iterator (a materialized
  workload or a :class:`~repro.workload.stream.StreamCursor`), and the
  epilogue: run to the end, refuse unfinished work, build the records,
  check the accounting, assemble the :class:`RunResult`;
* :class:`Host` — one FaaS server: the machine and the optional
  user-space layer from :data:`SCHEDULER_TABLE` and :data:`ENGINES`,
  and the host step — admission, ingress, provisioning, spawn,
  deadline/crash arming, SFS notify and finish bookkeeping — with the
  fault wrapper written once.

Front ends stay thin: :func:`run_host` (``run_workload`` and
``ext-predictive``) feeds a bare host; the streaming replay feeds a
bare host whose result sink is a summary; :class:`OpenLambdaPlatform`
is a host with gateway → pool → cold-start stages before the spawn;
the cluster places each arrival before a host's ``invoke``.

Every callback that reaches the event heap is a bound method of a
picklable object, so a streaming replay can checkpoint the whole graph
mid-run (:mod:`repro.stream.checkpoint`).
"""

from __future__ import annotations

import time
from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.predictive import PredictiveSFS
from repro.core.sfs import SFS
from repro.invariants.checker import resolve_checker
from repro.machine.discrete import DiscreteMachine
from repro.machine.fluid import FluidMachine
from repro.metrics.collector import RunResult, build_records
from repro.sched.srtf import SRTFMachine
from repro.sim.engine import Simulator
from repro.sim.task import SchedPolicy, Task
from repro.trace import RunManifest
from repro.workload.spec import RequestSpec, Workload

#: scheduler -> (the kernel class its functions are spawned in, the
#: machine replacing the engine or None, the user-space layer or None).
#: SFS and its size-based variant spawn in CFS and promote functions
#: themselves; the clairvoyant srtf/ideal oracles are whole machines
#: and serve as comparison baselines only (IDEAL is SRTF with a core
#: for every runnable task).
SCHEDULER_TABLE = {
    "cfs": (SchedPolicy.CFS, None, None),
    "fifo": (SchedPolicy.FIFO, None, None),
    "rr": (SchedPolicy.RR, None, None),
    "sfs": (SchedPolicy.CFS, None, SFS),
    "predictive": (SchedPolicy.CFS, None, PredictiveSFS),
    "srtf": (SchedPolicy.CFS, SRTFMachine, None),
    "ideal": (SchedPolicy.CFS, partial(SRTFMachine, unbounded=True), None),
}
SCHEDULERS = tuple(SCHEDULER_TABLE)
#: the schedulers that run on an engine (the streaming replay's choices)
ENGINE_SCHEDULERS = tuple(
    name for name, (_, oracle, _) in SCHEDULER_TABLE.items() if oracle is None)
ENGINES = {"fluid": FluidMachine, "discrete": DiscreteMachine}


class Pairs(list):
    """The materialized result sink: every ``(spec, task)`` pair, in
    spawn order, for :func:`repro.metrics.collector.build_records`."""

    def spawned(self, spec: RequestSpec, task: Task) -> None:
        self.append((spec, task))

    def finished(self, spec: RequestSpec, task: Task) -> None:
        pass


class Host:
    """One FaaS server: machine, optional SFS layer, and the host step.

    ``faults`` is the run's :class:`~repro.faults.runtime.FaultRuntime`
    governor (a cluster shares one across hosts) or None; every fault
    boundary below short-circuits on that one attribute, so a nominal
    run takes the exact pre-fault path.  ``sink`` receives each spawned
    and each finished request (default: :class:`Pairs`).
    """

    #: cluster slot for labels and fault attribution (-1 = standalone)
    host_index = -1

    def __init__(self, sim: Simulator, scheduler: str, engine: str, params,
                 sfs_config=None, faults=None,
                 notify_latency: int = 0, sink=None):
        policy, oracle, layer = SCHEDULER_TABLE[scheduler]
        self.sim = sim
        self.policy = policy
        self.machine = (oracle or ENGINES[engine])(sim, params)
        self.sfs = layer(self.machine, sfs_config) if layer else None
        self.faults = faults
        self.notify_latency = notify_latency
        self.sink = sink if sink is not None else Pairs()
        #: requests accepted but not yet finished (admission control and
        #: the cluster's least-loaded placement read it)
        self.outstanding = 0
        #: tid -> (spec, task) of every live process, in spawn order
        self._inflight: Dict[int, Tuple[RequestSpec, Task]] = {}
        self._probe = sim.probe
        self._probe_on = self._probe.enabled
        self.machine.on_finish(self._on_finish)

    @property
    def pairs(self):
        """The materialized sink's ``(spec, task)`` pairs."""
        return self.sink

    # ------------------------------------------------------------------
    # the host step
    # ------------------------------------------------------------------
    def arrive(self, spec: RequestSpec) -> bool:
        """A fresh request at the front door; False when it was shed."""
        if self.faults is not None and not self.faults.admit(
                spec, self.outstanding):
            return False  # load shed: 429 before any work happens
        self.outstanding += 1
        self._ingress(spec)
        return True

    def retry_entry(self, spec: RequestSpec) -> None:
        """A retry lands on this host (possibly routed from another)."""
        self.outstanding += 1
        self._ingress(spec)

    def _ingress(self, spec: RequestSpec) -> None:
        """One attempt (fresh or retry) enters the host."""
        if self.faults is not None:
            if self.faults.expired(spec):  # deadline passed while backing off
                self.outstanding -= 1
                self.faults.mark_timeout(spec)
                return
            self.faults.begin(spec)
        self._stages(spec)

    def _stages(self, spec: RequestSpec) -> None:
        """Front-end stages between ingress and spawn.  A bare host has
        none: provisioning is instantaneous and only a fault fails it."""
        if not self._provision_failed(spec):
            self._spawn(spec)

    def _provision_failed(self, spec: RequestSpec) -> bool:
        """Did provisioning fail for this attempt?  Then the slot is
        freed and the attempt dies before a process exists."""
        if self.faults is None or not self.faults.coldstart_faulted(spec):
            return False
        self._free(spec)
        self._fail_before_spawn(spec)
        return True

    def _spawn(self, spec: RequestSpec) -> None:
        """Start the function process and tell SFS about it."""
        faults = self.faults
        if faults is not None and faults.expired(spec):
            # the deadline passed during provisioning: no process, and
            # the healthy container goes back to the pool
            self._free(spec, container=True)
            self.outstanding -= 1
            faults.mark_timeout(spec)
            return
        task = spec.make_task(policy=self.policy)
        self.sink.spawned(spec, task)
        if self._probe_on:
            self._probe.task_spawn(task, spec)
        self._inflight[task.tid] = (spec, task)
        self.machine.spawn(task)
        if faults is not None:
            faults.arm(spec, task, self.machine)
            faults.note_spawn(spec, task, self.host_index)
        if self.sfs is not None:
            # the sandbox's message (pid, invocation timestamp) to SFS
            delay = self._notify_delay()
            if delay > 0:
                self.sim.schedule(delay, self.sfs.submit, task, spec.arrival)
            else:
                self.sfs.submit(task, spec.arrival)

    def _notify_delay(self) -> int:
        return self.notify_latency

    def _on_finish(self, task: Task) -> None:
        spec, _ = self._inflight.pop(task.tid)
        # a killed sandbox is destroyed, not kept warm
        self._free(spec, container=not task.killed)
        self.sink.finished(spec, task)
        delay = (self.faults.on_task_end(spec, task)
                 if self.faults is not None else None)
        self.outstanding -= 1  # this host's involvement in the attempt ends
        if delay is not None:
            self.sim.schedule(delay, self._route_retry, spec)

    def _free(self, spec: RequestSpec, slot: bool = True,
              container: bool = False) -> None:
        """Return what the attempt holds; a bare host holds nothing."""

    # ------------------------------------------------------------------
    # failure paths
    # ------------------------------------------------------------------
    def _fail_before_spawn(self, spec: RequestSpec,
                           reason: str = "crash") -> None:
        """The attempt died before a process existed (provisioning
        failure or the host went down mid-pipeline)."""
        self.outstanding -= 1
        delay = self.faults.fail_attempt(spec, reason=reason,
                                         host=self.host_index)
        if delay is not None:
            self.sim.schedule(delay, self._route_retry, spec)

    def _route_retry(self, spec: RequestSpec) -> None:
        """Backoff elapsed: re-dispatch, through the cluster if any."""
        router = self.faults.retry_router
        if router is not None:
            router(spec)
        else:
            self.retry_entry(spec)


class Driver:
    """One run: simulator and checker, arrivals, epilogue.

    ``label`` names the run in diagnostics and invariant violations;
    ``seed`` is the workload seed a violation report replays from.
    """

    def __init__(self, label: str, seed=None, invariants=None, trace=None,
                 metrics=None, audit=None):
        self.checker = resolve_checker(invariants, seed=seed, label=label)
        self.sim = Simulator(trace=trace, invariants=self.checker,
                             metrics=metrics, label=label, audit=audit)
        self.truncated_at_horizon = False

    # ------------------------------------------------------------------
    # prefetch-one arrivals
    # ------------------------------------------------------------------
    def feed(self, specs, entry, horizon: Optional[int] = None) -> None:
        """Deliver ``specs`` (sized, in arrival order) to ``entry`` at
        their arrival times; arrivals after ``horizon`` are never
        admitted.

        The heap holds at most one future arrival, so its size tracks
        in-flight work, not trace length.  Every arrival's tie-break
        rank is reserved now, so each one orders among same-time events
        exactly as if all had been scheduled up front: a streaming
        replay and the run of its materialized workload are one event
        sequence.
        """
        self._rank = self.sim.reserve(len(specs))
        self._source = iter(specs)
        self._entry = entry
        self._horizon = horizon
        self._fetch()

    def _fetch(self) -> None:
        spec = next(self._source, None)
        if spec is None:
            return
        if self._horizon is not None and spec.arrival > self._horizon:
            self.truncated_at_horizon = True
            return
        self.sim.schedule_ranked(self._rank, spec.arrival, self._arrive, spec)
        self._rank += 1

    def _arrive(self, spec: RequestSpec) -> None:
        self._fetch()
        self._entry(spec)

    # ------------------------------------------------------------------
    # epilogue
    # ------------------------------------------------------------------
    def drain(self, hosts: List[Host], what: str,
              until: Optional[int] = None,
              max_events: Optional[int] = None) -> None:
        """Run to the end (or to ``until``); at the end every spawned
        process must have finished."""
        self.sim.run(until=until, max_events=max_events)
        if until is not None:
            return
        unfinished = [spec.req_id for host in hosts
                      for spec, _ in host._inflight.values()]
        if unfinished:
            raise RuntimeError(f"{len(unfinished)} {what} never finished "
                               f"(first: {unfinished[:5]})")

    def result(self, workload: Workload, hosts: List[Host], faults,
               meta: Dict[str, object], scheduler: str, engine: str,
               sfs: Optional[SFS] = None, manifest=None) -> RunResult:
        """Records (with the fault governor's outcomes), the accounting
        check, and the :class:`RunResult` over ``hosts``, whose machines
        drop their observers: the run is over."""
        for host in hosts:
            host.machine.detach_observers()
        pairs = [pair for host in hosts for pair in host.pairs]
        if faults is not None:
            meta["fault_stats"] = faults.stats.as_dict()
        records = build_records(pairs, faults=faults)
        if self.checker.enabled:
            self.checker.check_accounting(
                workload, records, meta.get("fault_stats"),
                [host.sfs for host in hosts if host.sfs is not None])
            meta["invariant_checks"] = self.checker.summary()
        return RunResult(
            scheduler=scheduler,
            engine=engine,
            records=records,
            sim_time=self.sim.now,
            busy_time=sum(host.machine.busy_time for host in hosts),
            n_cores=sum(host.machine.n_cores for host in hosts),
            sfs_stats=sfs.stats if sfs else None,
            slice_timeline=list(sfs.monitor.timeline) if sfs else None,
            queue_delay_samples=sfs.delay_samples() if sfs else None,
            overhead=sfs.overhead if sfs else None,
            meta=meta,
            manifest=manifest,
        )


def run_host(workload: Workload, cfg, trace=None, metrics=None,
             audit=None) -> RunResult:
    """Replay ``workload`` on one bare host under ``cfg`` (a
    :class:`repro.experiments.runner.RunConfig`)."""
    wall_start = time.perf_counter()
    label = f"scheduler={cfg.scheduler} engine={cfg.engine}"
    driver = Driver(label, workload.meta.get("seed"), cfg.invariants,
                    trace, metrics, audit)
    sim = driver.sim
    if cfg.faults is not None:
        # a straggler entry for host 0 degrades this (single) machine
        speed = cfg.faults.straggler_speed(0)
        if speed != 1.0:
            cfg = replace(cfg, machine=replace(cfg.machine, speed=speed))
    host = Host(sim, cfg.scheduler, cfg.engine, cfg.machine, cfg.sfs,
                cfg.governor(sim), cfg.notify_latency)
    sim.probe.attach_sampler(host.machine, host.sfs)
    driver.feed(workload, host.arrive)
    driver.drain([host], f"requests under {cfg.scheduler}/{cfg.engine}",
                 max_events=cfg.max_events)
    manifest = RunManifest.build(
        run_config=cfg,
        workload=workload,
        sim=sim,
        n_cores=host.machine.n_cores,
        wall_time_s=time.perf_counter() - wall_start,
        trace=trace,
    )
    return driver.result(workload, [host], host.faults, dict(workload.meta),
                         cfg.scheduler, cfg.engine, host.sfs, manifest)
