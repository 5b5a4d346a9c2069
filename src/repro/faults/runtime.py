"""The fault governor: injection arming + failure handling at runtime.

One :class:`FaultRuntime` is shared by every host in a run.  The FaaS
layer consults it at each request boundary:

* ``admit``      — at the front door (load shedding);
* ``begin``      — when an attempt enters the pipeline;
* ``coldstart_faulted`` / ``fail_attempt`` — when provisioning fails
  before a process exists;
* ``arm``        — right after ``machine.spawn`` (crash + deadline
  timers for the new process);
* ``on_task_end`` — from the platform's finish callback, for *every*
  exit; returns the backoff delay when the attempt should be retried.

All decisions delegate to the frozen :class:`~repro.faults.plan.FaultPlan`
and :class:`~repro.faults.policy.RetryPolicy`, so the governor holds
only bookkeeping state (attempt counts, terminal outcomes, armed
timers) — never entropy.  When a run has no fault configuration the
platform simply does not construct a governor, keeping the nominal hot
path bit-identical to a build without this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.faults.plan import NULL_PLAN, FaultPlan
from repro.faults.policy import AdmissionControl, RetryPolicy
from repro.sim.engine import EventHandle, Simulator
from repro.sim.task import Task, TaskState
from repro.workload.spec import RequestSpec

#: terminal request states beyond the default "ok"
STATUS_OK = "ok"
STATUS_FAILED = "failed"      # attempts exhausted (crash / provisioning)
STATUS_TIMEOUT = "timeout"    # request deadline expired
STATUS_SHED = "shed"          # admission control rejected it
STATUS_HOST_LOST = "host_lost"  # died with a failed host, no failover left


@dataclass
class FaultStats:
    """Aggregate injection / handling counters for one run."""

    crashes: int = 0             # sandbox kills injected
    coldstart_failures: int = 0  # provisioning failures injected
    host_kills: int = 0          # tasks lost to host failures
    timeouts: int = 0            # deadline expiries
    retries: int = 0             # backoffs scheduled
    shed: int = 0                # requests rejected at admission
    abandoned: int = 0           # requests that exhausted retries
    host_lost: int = 0           # requests lost with a failed host
    failovers: int = 0           # stranded attempts re-dispatched
    hedges: int = 0              # backup attempts launched
    hedge_wins: int = 0          # hedge races the backup won
    retry_throttled: int = 0     # retries denied by the global budget

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class _Outcome:
    status: str
    end_ts: int


class FaultRuntime:
    """Shared per-run fault governor (see module docstring)."""

    def __init__(
        self,
        sim: Simulator,
        plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        admission: Optional[AdmissionControl] = None,
        timeout: Optional[int] = None,
    ):
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (us)")
        self.sim = sim
        self.plan = plan if plan is not None else NULL_PLAN
        self.retry = retry
        self.admission = admission
        self.timeout = timeout
        self.stats = FaultStats()
        self._probe = sim.probe
        self._probe_on = self._probe.enabled
        #: cluster hook: re-dispatch a retry through placement instead
        #: of pinning it to the host that just failed it
        self.retry_router: Optional[Callable[[RequestSpec], None]] = None
        #: cluster hook: the ResilienceRuntime coordinator (failover /
        #: hedging / retry budget); None for single-host runs
        self.resilience = None
        self._attempts: Dict[int, int] = {}
        self._terminal: Dict[int, _Outcome] = {}
        self._specs: Dict[int, RequestSpec] = {}
        # armed timers are keyed by *task id*, not request id: under
        # hedging one request can have two live attempts, each with its
        # own crash/deadline timers
        self._armed: Dict[int, List[EventHandle]] = {}

    # ------------------------------------------------------------------
    # request boundaries
    # ------------------------------------------------------------------
    def admit(self, spec: RequestSpec, outstanding: int) -> bool:
        """Front-door admission; records a shed outcome on rejection."""
        if self.admission is None or self.admission.admits(outstanding):
            return True
        self.stats.shed += 1
        self._specs[spec.req_id] = spec
        self._terminal[spec.req_id] = _Outcome(STATUS_SHED, self.sim.now)
        if self.resilience is not None:
            self.resilience.settle(spec.req_id)
        if self._probe_on:
            self._probe.shed(spec.req_id, outstanding)
        return False

    def settled(self, req_id: int) -> bool:
        """Has the request already been answered (hedge win) or gone
        terminal?  Pipeline stages drop settled work on the floor."""
        res = self.resilience
        return res is not None and res.is_settled(req_id)

    def attempts_of(self, req_id: int) -> int:
        """Attempts begun so far for a request (0 before ingress)."""
        return self._attempts.get(req_id, 0)

    def deadline_of(self, spec: RequestSpec) -> Optional[int]:
        """Absolute deadline (us), or None when timeouts are off."""
        if self.timeout is None:
            return None
        return spec.arrival + self.timeout

    def expired(self, spec: RequestSpec) -> bool:
        """Is the request past its deadline at this boundary?"""
        deadline = self.deadline_of(spec)
        return deadline is not None and self.sim.now >= deadline

    def mark_timeout(self, spec: RequestSpec, tid: int = -1) -> None:
        """Terminal: the deadline passed (between or during attempts)."""
        self.stats.timeouts += 1
        self._specs[spec.req_id] = spec
        self._terminal[spec.req_id] = _Outcome(STATUS_TIMEOUT, self.sim.now)
        if self.resilience is not None:
            self.resilience.settle(spec.req_id)
        if self._probe_on:
            self._probe.timeout(tid, self.deadline_of(spec))

    def begin(self, spec: RequestSpec) -> int:
        """An attempt enters the pipeline; returns its 1-based number."""
        attempt = self._attempts.get(spec.req_id, 0) + 1
        self._attempts[spec.req_id] = attempt
        self._specs[spec.req_id] = spec
        if self.resilience is not None:
            self.resilience.note_begin(spec.req_id)
        return attempt

    # ------------------------------------------------------------------
    # injection decisions
    # ------------------------------------------------------------------
    def coldstart_faulted(self, spec: RequestSpec) -> bool:
        """Does provisioning fail for the current attempt?"""
        attempt = self._attempts[spec.req_id]
        if not self.plan.coldstart_fails(spec.req_id, attempt):
            return False
        self.stats.coldstart_failures += 1
        if self._probe_on:
            self._probe.coldstart_failed(spec.req_id, attempt)
        return True

    def arm(self, spec: RequestSpec, task: Task, machine) -> None:
        """Arm crash and deadline timers for a freshly spawned process."""
        req_id = spec.req_id
        attempt = self._attempts[req_id]
        handles: List[EventHandle] = []
        frac = self.plan.crashes(req_id, attempt)
        if frac is not None:
            delay = max(1, int(frac * task.ideal_duration))
            handles.append(self.sim.schedule(
                delay, self._crash, task, machine, attempt))
        deadline = self.deadline_of(spec)
        if deadline is not None:  # boundary checks guarantee now < deadline
            handles.append(self.sim.schedule_at(
                deadline, self._deadline, spec, task, machine))
        if handles:
            self._armed[task.tid] = handles

    def note_spawn(self, spec: RequestSpec, task: Task, host: int) -> None:
        """A process exists for the current attempt on ``host``."""
        if self.resilience is not None:
            self.resilience.note_spawn(spec, task, host)

    def _crash(self, task: Task, machine, attempt: int) -> None:
        if task.state is TaskState.FINISHED:
            return  # raced with a real completion
        self.stats.crashes += 1
        if self._probe_on:
            self._probe.crash(task, attempt)
        machine.kill(task, "crash")

    def _deadline(self, spec: RequestSpec, task: Task, machine) -> None:
        if task.state is TaskState.FINISHED:
            return
        # under hedging two attempts share one deadline; count the
        # request's expiry once even though both tasks get killed
        if spec.req_id not in self._terminal:
            self.stats.timeouts += 1
            if self._probe_on:
                self._probe.timeout(task.tid, self.deadline_of(spec))
        machine.kill(task, "timeout")

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def fail_attempt(self, spec: RequestSpec, reason: str = "crash",
                     host: int = -1) -> Optional[int]:
        """The current attempt failed retryably (crash, host loss,
        provisioning).  Returns the backoff delay (us) when a retry
        should be scheduled, or None when the failure is terminal
        (outcome recorded) or a resilience mechanism absorbed it."""
        req_id = spec.req_id
        attempt = self._attempts[req_id]
        res = self.resilience
        if res is not None:
            if res.absorb_death(req_id):
                return None  # hedge sibling still racing: no retry
            if reason == "host" and res.try_strand(spec, host):
                return None  # parked for failover at the next poll
        if self.retry is not None and self.retry.allows(attempt):
            if res is None or res.allow_retry(req_id, attempt):
                delay = self.retry.backoff(req_id, attempt)
                deadline = self.deadline_of(spec)
                if deadline is None or self.sim.now + delay < deadline:
                    self.stats.retries += 1
                    if res is not None:
                        res.note_retry_scheduled(req_id)
                    if self._probe_on:
                        self._probe.retry(req_id, attempt, delay)
                    return delay
                self.mark_timeout(spec)  # the backoff would overrun it
                return None
            self.stats.retry_throttled += 1
            if self._probe_on:
                self._probe.retry_throttled(req_id, attempt)
        if reason == "host":
            self.stats.host_lost += 1
            status = STATUS_HOST_LOST
        else:
            self.stats.abandoned += 1
            status = STATUS_FAILED
        self._terminal[req_id] = _Outcome(status, self.sim.now)
        if res is not None:
            res.settle(req_id)
        if self._probe_on:
            self._probe.give_up(req_id, attempt, host_lost=reason == "host")
        return None

    def on_task_end(self, spec: RequestSpec, task: Task) -> Optional[int]:
        """Observe an exit (normal or killed).  Returns a retry delay
        when the platform should re-ingress the request, else None."""
        for handle in self._armed.pop(task.tid, ()):
            handle.cancel()
        res = self.resilience
        host = res.note_task_end(spec, task) if res is not None else -1
        if not task.killed:
            if res is not None:
                res.on_finish(spec, task)
            return None
        if task.kill_reason == "hedge":
            return None  # the sibling already answered this request
        if task.kill_reason == "timeout":
            self._terminal[spec.req_id] = _Outcome(STATUS_TIMEOUT, self.sim.now)
            if res is not None:
                res.settle(spec.req_id)
            return None
        if task.kill_reason == "host":
            self.stats.host_kills += 1
            return self.fail_attempt(spec, reason="host", host=host)
        return self.fail_attempt(spec)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def status_of(self, req_id: int) -> Tuple[str, int]:
        """(terminal status, attempts started) for a request."""
        attempts = self._attempts.get(req_id, 0)
        outcome = self._terminal.get(req_id)
        if outcome is None:
            return STATUS_OK, max(1, attempts)
        return outcome.status, attempts

    def orphans(
        self, exclude: Set[int]
    ) -> Iterable[Tuple[RequestSpec, str, int, int]]:
        """Terminally-failed requests that never produced a task pair
        (shed at the door, or every attempt died before spawn), as
        ``(spec, status, attempts, end_ts)`` sorted by request id."""
        for req_id in sorted(self._terminal):
            if req_id in exclude:
                continue
            outcome = self._terminal[req_id]
            yield (self._specs[req_id], outcome.status,
                   self._attempts.get(req_id, 0), outcome.end_ts)
