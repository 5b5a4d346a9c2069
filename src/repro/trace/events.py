"""Trace event taxonomy.

Every event is one immutable :class:`TraceEvent` tuple: virtual
timestamp, dotted kind, the task and core it concerns (``-1`` when not
applicable) and a small kind-specific payload of JSON-safe scalars.
The flat-tuple shape keeps recording allocation-cheap (one tuple per
event, no dicts on the hot path) while :data:`EVENT_FIELDS` gives every
payload slot a name so exporters can render self-describing records.

Kinds are grouped into three namespaces:

``task.*``
    OS-level lifecycle, emitted by the machine engines: on/off-CPU
    intervals, blocks, wakes, policy changes, migrations, exit.
``sfs.*``
    User-space scheduler decisions, emitted by :mod:`repro.core`:
    queue entries and their single outcome (promote / bypass / watch /
    skip), FILTER demotions, slice recomputations.
``fault.*`` / ``retry.*`` / ``shed.*``
    Fault-injection and failure-handling lifecycle, emitted by
    :mod:`repro.faults`: crashes, cold-start failures, timeouts, host
    state changes, retry scheduling, admission-control rejections.
``gauge.*``
    Periodically sampled state: runqueue depths, queue lengths,
    watch-list size, pool occupancy.

The stream is append-only and time-ordered (events are recorded as the
simulation executes, and virtual time never flows backwards), so
exporters are single pass.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple


class TraceEvent(NamedTuple):
    """One recorded occurrence at virtual time ``ts`` (microseconds)."""

    ts: int
    kind: str
    tid: int = -1
    core: int = -1
    args: Tuple = ()

    def to_dict(self) -> dict:
        """Self-describing mapping (JSONL exporter / analysis)."""
        d = {"ts": self.ts, "kind": self.kind}
        if self.tid >= 0:
            d["tid"] = self.tid
        if self.core >= 0:
            d["core"] = self.core
        names = EVENT_FIELDS.get(self.kind)
        if names is not None and len(self.args) <= len(names):
            d.update(zip(names, self.args))
        elif self.args:
            d["args"] = list(self.args)
        return d


# --- task lifecycle (machine engines) ---------------------------------
TASK_SPAWN = "task.spawn"            # dispatched into the OS
TASK_RUN = "task.run"                # went on-CPU (core >= 0) / no placed
#                                      core (-1: fluid pool, SRTF, IDEAL)
TASK_DESCHEDULE = "task.deschedule"  # left the CPU / pool; args: why[, served]
TASK_BLOCK = "task.block"            # entered an I/O burst
TASK_WAKE = "task.wake"              # I/O done, runnable again
TASK_FINISH = "task.finish"          # process exited
TASK_POLICY = "task.policy"          # sched_setscheduler took effect
TASK_MIGRATE = "task.migrate"        # resumed on a different core

#: why a task left the CPU (``task.deschedule`` payload)
DESCHED_BURST_END = "burst_end"      # CPU burst completed (finish or block next)
DESCHED_SLICE = "slice"              # CFS slice expired
DESCHED_QUANTUM = "quantum"          # SCHED_RR quantum expired
DESCHED_PREEMPT = "preempt"          # preempted by a higher-priority task
DESCHED_RECLASS = "reclass"          # sched_setscheduler moved it off
DESCHED_THROTTLE = "throttle"        # RT group bandwidth exhausted
DESCHED_KILL = "killed"              # SIGKILL (fault injection)

# --- fault injection and failure handling (repro.faults) ---------------
FAULT_CRASH = "fault.crash"          # sandbox crashed mid-execution
FAULT_COLDSTART = "fault.coldstart"  # container provisioning failed
FAULT_TIMEOUT = "fault.timeout"      # request deadline expired
FAULT_HOST_DOWN = "fault.host_down"  # host failed (core = host index)
FAULT_HOST_UP = "fault.host_up"      # host recovered (core = host index)
RETRY_BACKOFF = "retry.backoff"      # attempt failed; retry scheduled
RETRY_EXHAUSTED = "retry.exhausted"  # attempts capped out; abandoned
RETRY_THROTTLED = "retry.throttled"  # retry denied by the global budget
SHED_REQUEST = "shed.request"        # admission control rejected it

# --- cluster resilience (repro.faas.resilience) -------------------------
HEALTH_DOWN = "health.down"          # dispatcher marked host unhealthy
HEALTH_UP = "health.up"              # dispatcher marked host healthy
FAILOVER_REDISPATCH = "failover.redispatch"  # stranded attempt re-placed
HEDGE_LAUNCH = "hedge.launch"        # backup attempt dispatched
HEDGE_WIN = "hedge.win"              # hedge race decided
HEDGE_CANCEL = "hedge.cancel"        # losing attempt killed (tid = loser)

# --- SFS decisions (repro.core) ---------------------------------------
SFS_SUBMIT = "sfs.submit"            # fresh request entered the global queue
SFS_RESUBMIT = "sfs.resubmit"        # post-I/O wake re-enqueued
SFS_PROMOTE = "sfs.promote"          # FILTER-scheduled (core = worker index)
SFS_FILTER_FINISH = "sfs.filter_finish"  # finished inside its slice (4.1)
SFS_DEMOTE_SLICE = "sfs.demote_slice"    # slice expired -> CFS (4.2)
SFS_DEMOTE_IO = "sfs.demote_io"          # block detected -> CFS (4.3)
SFS_OVERLOAD = "sfs.overload"        # overload bypass: stayed in CFS (4.4)
SFS_SKIP_FINISHED = "sfs.skip_finished"  # finished in CFS before a worker got it
SFS_WATCH_AT_POP = "sfs.watch_at_pop"    # found blocked at dequeue
SFS_WATCH = "sfs.watch"              # added to the blocked watch list
SFS_WATCH_FINISH = "sfs.watch_finish"    # finished in CFS while watched
SFS_SLICE = "sfs.slice"              # SliceMonitor recomputed S

# --- periodic gauges ---------------------------------------------------
GAUGE_RUNNABLE = "gauge.runnable"        # ready-but-not-running, machine-wide
GAUGE_IDLE_CORES = "gauge.idle_cores"
GAUGE_RUNQUEUE = "gauge.runqueue"        # per-core CFS depth (core = index)
GAUGE_RT_QUEUE = "gauge.rt_queue"        # global RT runqueue length
GAUGE_POOL = "gauge.pool"                # fluid CFS pool occupancy
GAUGE_RT_RUNNING = "gauge.rt_running"    # fluid dedicated-core count
GAUGE_GLOBAL_QUEUE = "gauge.global_queue"  # SFS global queue length
GAUGE_WATCH_LIST = "gauge.watch_list"      # SFS watch-list size
GAUGE_BUSY_WORKERS = "gauge.busy_workers"  # occupied FILTER workers
GAUGE_KEEPALIVE = "gauge.keepalive"        # warm containers cached
GAUGE_OUTSTANDING = "gauge.outstanding"    # invocations in flight
GAUGE_UNHEALTHY = "gauge.unhealthy_hosts"  # hosts the dispatcher avoids
GAUGE_RETRY_TOKENS = "gauge.retry_tokens"  # retry-budget bucket level

#: payload slot names per kind (tuples zip positionally with ``args``;
#: trailing slots are optional: ``served`` rides only on fluid pool exits).
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    TASK_SPAWN: ("name", "req_id"),
    TASK_RUN: (),
    TASK_DESCHEDULE: ("reason", "served"),
    TASK_BLOCK: (),
    TASK_WAKE: (),
    TASK_FINISH: (),
    TASK_POLICY: ("policy", "rt_priority"),
    TASK_MIGRATE: ("from_core",),
    SFS_SUBMIT: (),
    SFS_RESUBMIT: (),
    SFS_PROMOTE: ("slice", "delay"),
    SFS_FILTER_FINISH: (),
    SFS_DEMOTE_SLICE: (),
    SFS_DEMOTE_IO: ("slice_left",),
    SFS_OVERLOAD: ("delay", "slice"),
    SFS_SKIP_FINISHED: ("delay",),
    SFS_WATCH_AT_POP: ("delay",),
    SFS_WATCH: (),
    SFS_WATCH_FINISH: (),
    SFS_SLICE: ("slice",),
    FAULT_CRASH: ("attempt",),
    FAULT_COLDSTART: ("req_id", "attempt"),
    FAULT_TIMEOUT: ("deadline",),
    FAULT_HOST_DOWN: (),
    FAULT_HOST_UP: (),
    RETRY_BACKOFF: ("req_id", "attempt", "delay"),
    RETRY_EXHAUSTED: ("req_id", "attempts"),
    RETRY_THROTTLED: ("req_id", "attempt"),
    SHED_REQUEST: ("req_id", "depth"),
    HEALTH_DOWN: (),
    HEALTH_UP: (),
    FAILOVER_REDISPATCH: ("req_id", "from_host", "to_host"),
    HEDGE_LAUNCH: ("req_id", "primary_host", "backup_host"),
    HEDGE_WIN: ("req_id", "winner"),
    HEDGE_CANCEL: ("req_id",),
    GAUGE_RUNNABLE: ("value",),
    GAUGE_IDLE_CORES: ("value",),
    GAUGE_RUNQUEUE: ("value",),
    GAUGE_RT_QUEUE: ("value",),
    GAUGE_POOL: ("value",),
    GAUGE_RT_RUNNING: ("value",),
    GAUGE_GLOBAL_QUEUE: ("value",),
    GAUGE_WATCH_LIST: ("value",),
    GAUGE_BUSY_WORKERS: ("value",),
    GAUGE_KEEPALIVE: ("value",),
    GAUGE_OUTSTANDING: ("value",),
    GAUGE_UNHEALTHY: ("value",),
    GAUGE_RETRY_TOKENS: ("value",),
}

#: kinds that open / close the per-core on-CPU span pairing.
CORE_SPAN_OPEN = TASK_RUN
CORE_SPAN_CLOSE = TASK_DESCHEDULE

#: kinds that close an open FILTER-worker span (core = worker index).
WORKER_SPAN_CLOSERS = (SFS_FILTER_FINISH, SFS_DEMOTE_SLICE, SFS_DEMOTE_IO)
