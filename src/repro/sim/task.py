"""Task model: an OS process executing a serverless function.

A task is a sequence of alternating **bursts**.  A CPU burst consumes
processor time under whatever scheduling class the task currently has;
an I/O burst blocks the task for a fixed virtual duration regardless of
scheduling (the device, not the CPU, is the bottleneck).

The machine models (:mod:`repro.machine`) own the task state transitions;
the task itself is a passive record with accounting that every engine
fills in identically, so metrics code never needs to know which engine
produced a run.
"""

from __future__ import annotations

import enum
import itertools
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.sim.engine import EventHandle


class BurstKind(enum.Enum):
    """What a burst consumes: processor time or device time."""

    CPU = "cpu"
    IO = "io"


@dataclass(frozen=True)
class Burst:
    """One burst of work; ``duration`` is integer microseconds."""

    kind: BurstKind
    duration: int

    def __post_init__(self) -> None:
        if not isinstance(self.kind, BurstKind):
            raise ValueError(f"burst kind must be a BurstKind, got {self.kind!r}")
        # Reject float durations (incl. NaN, which passes every comparison
        # guard) before they corrupt the integer event arithmetic.  Any
        # integral type is fine (numpy ints included); bool is not.
        if isinstance(self.duration, bool) or not isinstance(
            self.duration, numbers.Integral
        ):
            raise ValueError(
                f"burst duration must be an integer number of us, "
                f"got {self.duration!r}"
            )
        if self.duration <= 0:
            raise ValueError(f"burst duration must be positive, got {self.duration}")


class TaskState(enum.Enum):
    """Kernel-visible process state (what ``gopsutil`` polling sees)."""

    CREATED = "created"    # not yet dispatched to the OS
    READY = "ready"        # runnable, waiting in a runqueue
    RUNNING = "running"    # on a core
    BLOCKED = "blocked"    # sleeping on I/O
    FINISHED = "finished"  # exited


class SchedPolicy(enum.IntEnum):
    """Linux scheduling classes used by the paper.

    Real-time classes (FIFO, RR) have strictly higher static priority
    than the fair class (CFS / ``SCHED_NORMAL``); see ``sched(7)``.
    """

    CFS = 0    # SCHED_NORMAL
    RR = 1     # SCHED_RR
    FIFO = 2   # SCHED_FIFO


#: consume_cpu runs at every charge; a module global is cheaper to read
#: than an enum class attribute
_CPU = BurstKind.CPU

#: Classes that preempt CFS unconditionally.
RT_POLICIES = (SchedPolicy.FIFO, SchedPolicy.RR)

_task_ids = itertools.count()


@dataclass(slots=True)
class Task:
    """A schedulable process.

    Durations and timestamps are integer microseconds.  ``bursts`` is the
    ground-truth demand; engines must never mutate it — per-burst progress
    lives in ``burst_index`` / ``burst_remaining``.
    """

    bursts: Sequence[Burst]
    name: str = ""
    app: str = ""  # the function application this invocation belongs to
    policy: SchedPolicy = SchedPolicy.CFS
    rt_priority: int = 0
    weight: int = 1024  # nice-0 CFS weight

    tid: int = field(default_factory=lambda: next(_task_ids))

    # --- dynamic state (owned by the machine) -------------------------
    state: TaskState = TaskState.CREATED
    burst_index: int = 0
    burst_remaining: int = 0
    vruntime: int = 0

    # --- accounting ----------------------------------------------------
    dispatch_time: Optional[int] = None      # spawned into the OS
    first_run_time: Optional[int] = None     # first time on a core
    finish_time: Optional[int] = None
    cpu_time: int = 0                        # CPU service received
    io_time: int = 0                         # device time received
    wait_time: int = 0                       # runnable-but-not-running
    ctx_involuntary: int = 0                 # preemptions / slice expiry
    ctx_voluntary: int = 0                   # blocks / yields
    migrations: int = 0
    policy_changes: List[Tuple[int, SchedPolicy]] = field(default_factory=list)

    # --- SFS accounting (written by repro.core, read by metrics) -------
    sfs_bypassed: bool = False               # overload detector left it in CFS
    sfs_demoted: bool = False                # FILTER slice budget exhausted
    sfs_slice_granted: Optional[int] = None  # S at first FILTER promotion
    sfs_slice_left: Optional[int] = None     # remaining FILTER slice budget

    # --- fault accounting (written by repro.faults, read by metrics) ---
    killed: bool = False                     # terminated by machine.kill
    kill_reason: Optional[str] = None        # "crash" | "timeout" | "host"

    # --- engine and policy state, one owner per field (table of owners
    # and lifetimes: docs/architecture.md §3).  The class is slotted, so
    # writing an undeclared attribute raises AttributeError. ----------
    since: int = 0                           # base: READY since, run start
    timer: Optional[EventHandle] = None      # base: I/O wake, burst/task end
    core: int = -1                           # discrete: rq core, run core
    last_core: int = -1                      # discrete: last run core
    svc_residue: float = 0.0                 # discrete: straggler service
    pool_target: float = 0.0                 # fluid: credit at burst end
    pool_credit: float = 0.0                 # fluid: credit at entry
    pool_cs: float = 0.0                     # fluid: switch rate at entry
    cs_residue: float = 0.0                  # fluid: fractional switches
    slot: int = -1                           # fluid, traced: trace core
    step: int = 0                            # IDEAL, traced: burst index
    step_handle: Optional[EventHandle] = None  # IDEAL, traced: burst end
    eevdf_deadline: Optional[int] = None     # EEVDF: virtual deadline

    def __post_init__(self) -> None:
        if not self.bursts:
            raise ValueError("a task needs at least one burst")
        self.bursts = tuple(self.bursts)
        self.burst_remaining = self.bursts[0].duration
        # sched(7): RT priorities live in [1, 99]
        if self.policy in RT_POLICIES and self.rt_priority <= 0:
            self.rt_priority = 1

    # ------------------------------------------------------------------
    # demand (static) properties
    # ------------------------------------------------------------------
    @property
    def cpu_demand(self) -> int:
        """Total CPU time the task needs (the IDEAL aggregate CPU time)."""
        return sum(b.duration for b in self.bursts if b.kind is BurstKind.CPU)

    @property
    def io_demand(self) -> int:
        """Total device time the task needs."""
        return sum(b.duration for b in self.bursts if b.kind is BurstKind.IO)

    @property
    def ideal_duration(self) -> int:
        """Turnaround on an idle machine: all bursts back to back."""
        return self.cpu_demand + self.io_demand

    @property
    def total_remaining(self) -> int:
        """Remaining work (CPU + I/O) across current and future bursts."""
        rem = self.burst_remaining if self.burst_index < len(self.bursts) else 0
        rem += sum(b.duration for b in self.bursts[self.burst_index + 1 :])
        return rem

    @property
    def cpu_remaining(self) -> int:
        """Remaining CPU demand (the SRTF oracle's sort key)."""
        rem = 0
        if self.burst_index < len(self.bursts):
            cur = self.bursts[self.burst_index]
            if cur.kind is BurstKind.CPU:
                rem += self.burst_remaining
        rem += sum(
            b.duration
            for b in self.bursts[self.burst_index + 1 :]
            if b.kind is BurstKind.CPU
        )
        return rem

    @property
    def current_burst(self) -> Optional[Burst]:
        if self.burst_index >= len(self.bursts):
            return None
        return self.bursts[self.burst_index]

    @property
    def is_rt(self) -> bool:
        return self.policy in RT_POLICIES

    @property
    def finished(self) -> bool:
        return self.state is TaskState.FINISHED

    @property
    def turnaround(self) -> Optional[int]:
        """Dispatch-to-finish time (the paper's *execution duration*)."""
        if self.finish_time is None or self.dispatch_time is None:
            return None
        return self.finish_time - self.dispatch_time

    @property
    def context_switches(self) -> int:
        return self.ctx_involuntary + self.ctx_voluntary

    # ------------------------------------------------------------------
    # mutation helpers used by engines (kept here so every engine
    # accounts identically)
    # ------------------------------------------------------------------
    def consume_cpu(self, amount: int) -> None:
        """Charge ``amount`` us of CPU service to the current CPU burst."""
        if amount < 0:
            raise ValueError(f"negative CPU amount {amount}")
        index = self.burst_index
        if index >= len(self.bursts) or self.bursts[index].kind is not _CPU:
            raise RuntimeError(f"task {self.tid} is not in a CPU burst")
        if amount > self.burst_remaining:
            raise RuntimeError(
                f"task {self.tid} overran burst: {amount} > {self.burst_remaining}"
            )
        self.burst_remaining -= amount
        self.cpu_time += amount
        self.vruntime += amount * 1024 // self.weight

    def complete_io(self) -> Optional[Burst]:
        """Finish the current I/O burst (device time fully served) and
        advance; returns the next burst (None when the task is done)."""
        burst = self.current_burst
        if burst is None or burst.kind is not BurstKind.IO:
            raise RuntimeError(f"task {self.tid} is not in an I/O burst")
        self.io_time += burst.duration
        self.burst_remaining = 0
        return self.advance_burst()

    def advance_burst(self) -> Optional[Burst]:
        """Move to the next burst; returns it (None when the task is done)."""
        if self.burst_remaining != 0:
            raise RuntimeError(
                f"task {self.tid} advancing with {self.burst_remaining}us left"
            )
        self.burst_index += 1
        nxt = self.current_burst
        self.burst_remaining = nxt.duration if nxt is not None else 0
        return nxt

    def record_policy_change(self, now: int, policy: SchedPolicy) -> None:
        self.policy = policy
        self.policy_changes.append((now, policy))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Task {self.tid} {self.name!r} {self.state.value} "
            f"{self.policy.name} burst={self.burst_index}/{len(self.bursts)}>"
        )


def cpu_task(duration: int, name: str = "", **kw) -> Task:
    """Convenience constructor for a single-CPU-burst task."""
    return Task(bursts=[Burst(BurstKind.CPU, duration)], name=name, **kw)


def io_cpu_task(io: int, cpu: int, name: str = "", **kw) -> Task:
    """Task with a leading I/O burst then a CPU burst (Fig 11 shape)."""
    return Task(bursts=[Burst(BurstKind.IO, io), Burst(BurstKind.CPU, cpu)], name=name, **kw)
