"""Cluster fault tolerance: health-checked failover, hedging, budgets.

The dispatcher-side half of ``repro.resilient``.  Three mechanisms,
all optional and all declaratively configured:

* **health-checked failover** — the dispatcher polls host liveness
  every ``health_interval`` microseconds (the same shape as SFS's own
  4 ms message poller, so detection latency is a simulated quantity,
  not an abstraction).  A request whose attempt died with a failed
  host is *stranded* rather than failed, and re-dispatched through
  placement at the next poll — which is also when the dispatcher's
  health view marks the host unhealthy, so the re-dispatch cannot land
  back on the host that just ate the attempt.
* **hedged requests** — after a seeded per-request delay, a backup
  attempt is launched on a different healthy host; first un-killed
  completion wins and the loser is cancelled (``kill_reason ==
  "hedge"``).  While both chains race, a chain that dies is absorbed
  instead of consuming a retry.
* **retry-storm defense** — a global token bucket gates retry
  scheduling: when correlated failures would amplify into a storm, the
  bucket empties and further failures go terminal immediately
  (visible as ``retry.throttled`` events and the
  ``repro_cluster_retry_throttled_total`` counter) instead of
  metastably collapsing goodput.

Determinism discipline matches :mod:`repro.faults.plan`: the hedge
delay is a pure function of ``(seed, req_id)``; the token bucket
refills from virtual time only; the poller is a self-rescheduling
simulator event using the gauge-sampler rearm rule, so it never keeps
a drained run alive.  With ``ClusterConfig.resilience = None`` none of
this code is reachable and the cluster's event stream is byte-identical
to a build without this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.task import Task, TaskState
from repro.trace import events as tev
from repro.workload.spec import RequestSpec

#: hash salt for per-request hedge delays (crash 0xC1, coldstart 0xC2,
#: backoff 0xB0, flap windows 0xD0, fuzz cases 0xF0)
_SALT_HEDGE = 0xE1


@dataclass(frozen=True)
class HedgePolicy:
    """Backup-request policy: when to launch the second attempt.

    ``hedge_delay`` is a pure function of ``(seed, req_id)`` — the same
    request hedges at the same instant under CFS and under SFS.
    """

    #: base wait before dispatching the backup, us
    delay: int = 50_000
    #: uniform jitter as a fraction of ``delay`` (0 = fixed delay)
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.delay < 1:
            raise ValueError("hedge delay must be >= 1 us")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError("hedge jitter must be in [0, 1)")

    def hedge_delay(self, req_id: int) -> int:
        if self.jitter == 0.0:
            return self.delay
        rng = np.random.default_rng((self.seed, req_id, _SALT_HEDGE))
        lo = self.delay * (1.0 - self.jitter)
        hi = self.delay * (1.0 + self.jitter)
        return max(1, int(rng.uniform(lo, hi)))

    def to_json(self) -> dict:
        return {"delay": self.delay, "jitter": self.jitter,
                "seed": self.seed}


@dataclass(frozen=True)
class RetryBudget:
    """Global retry-rate token bucket (virtual-time refill)."""

    #: sustained retries per virtual second the cluster will pay for
    rate_per_sec: float = 50.0
    #: bucket capacity (burst allowance)
    burst: int = 20

    def __post_init__(self) -> None:
        if not (self.rate_per_sec > 0):
            raise ValueError("retry budget rate must be positive")
        if self.burst < 1:
            raise ValueError("retry budget burst must be >= 1")

    def to_json(self) -> dict:
        return {"rate_per_sec": self.rate_per_sec, "burst": self.burst}


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the fault-tolerant dispatcher may do."""

    #: dispatcher liveness-poll period, us (detection latency bound)
    health_interval: int = 4_000
    #: re-dispatch attempts that died with a failed host?
    failover: bool = True
    #: per-request cap on failover re-dispatches
    max_failovers: int = 4
    #: backup-dispatch policy (None = no hedging)
    hedge: Optional[HedgePolicy] = None
    #: global retry-rate limit (None = unbounded retries)
    retry_budget: Optional[RetryBudget] = None

    def __post_init__(self) -> None:
        if self.health_interval < 1:
            raise ValueError("health_interval must be >= 1 us")
        if self.max_failovers < 0:
            raise ValueError("max_failovers must be >= 0")

    def to_json(self) -> dict:
        return {
            "health_interval": self.health_interval,
            "failover": self.failover,
            "max_failovers": self.max_failovers,
            "hedge": self.hedge.to_json() if self.hedge else None,
            "retry_budget":
                self.retry_budget.to_json() if self.retry_budget else None,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ResilienceConfig":
        if not isinstance(data, dict):
            raise ValueError("ResilienceConfig JSON must be an object")
        known = ("health_interval", "failover", "max_failovers", "hedge",
                 "retry_budget")
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(f"unknown ResilienceConfig fields: "
                             f"{sorted(unknown)} (known: {sorted(known)})")
        hedge = data.get("hedge")
        budget = data.get("retry_budget")
        return cls(
            health_interval=int(data.get("health_interval", 4_000)),
            failover=bool(data.get("failover", True)),
            max_failovers=int(data.get("max_failovers", 4)),
            hedge=HedgePolicy(**hedge) if hedge else None,
            retry_budget=RetryBudget(**budget) if budget else None,
        )


class ResilienceRuntime:
    """Per-run coordinator for failover, hedging and retry budgets.

    Owned by :class:`repro.faas.cluster.FaaSCluster` (one per run) and
    consulted by the shared :class:`repro.faults.runtime.FaultRuntime`
    governor at attempt boundaries.  Holds only bookkeeping — every
    stochastic decision lives in the frozen policies.
    """

    def __init__(self, sim, config: ResilienceConfig, cluster,
                 governor) -> None:
        self.sim = sim
        self.config = config
        self.cluster = cluster
        self.governor = governor
        self._probe = sim.probe
        self._probe_on = self._probe.enabled
        self._probe.register("resilience")
        #: req_id -> terminal-or-won (pipeline events for settled
        #: requests are dropped at every stage boundary)
        self._settled: set = set()
        #: req_id -> {tid: (task, host)} for live (spawned) attempts
        self._live: Dict[int, Dict[int, Tuple[Task, int]]] = {}
        #: req_id -> host of the first dispatch (hedge placement avoids it)
        self._primary_host: Dict[int, int] = {}
        #: req_id -> hedge race state while two chains are in flight
        self._hedge: Dict[int, Dict[str, object]] = {}
        #: req_ids with a retry backoff scheduled but not yet begun
        self._awaiting_retry: set = set()
        #: (spec, host) attempts awaiting failover re-dispatch
        self._stranded: List[Tuple[RequestSpec, int]] = []
        self._failovers: Dict[int, int] = {}
        # token bucket state (virtual-time refill; floats, but the
        # arithmetic is a pure function of event times so it replays
        # bit-identically)
        budget = config.retry_budget
        self._tokens = float(budget.burst) if budget else 0.0
        self._tokens_at = 0

    # ------------------------------------------------------------------
    # health poller (gauge-sampler rearm rule: see module docstring)
    # ------------------------------------------------------------------
    def attach(self) -> None:
        self.sim.schedule(self.config.health_interval, self._poll,
                          daemon=True)

    def _poll(self) -> None:
        cluster = self.cluster
        view = cluster._view
        for idx, host in enumerate(cluster.hosts):
            actual = not host.down
            if view[idx] != actual:
                view[idx] = actual
                if self._probe_on:
                    self._probe.health(idx, actual)
        if self._stranded:
            stranded, self._stranded = self._stranded, []
            for spec, host in stranded:
                self._redispatch_stranded(spec, host)
        # rearm only while the run is live (daemon events — the gauge
        # sampler and this poller itself — do not count as liveness);
        # a strand always implies pending work (the stranding host's
        # recovery event), but keep the explicit check for clarity
        if self.sim.pending_work or self._stranded:
            self.sim.schedule(self.config.health_interval, self._poll,
                              daemon=True)

    def _redispatch_stranded(self, spec: RequestSpec, from_host: int) -> None:
        req_id = spec.req_id
        if self.is_settled(req_id):
            return  # e.g. the deadline expired while stranded... handled
        self.governor.stats.failovers += 1
        to_host = self.cluster._redispatch(spec)
        if self._probe_on:
            self._probe.failover(req_id, from_host, to_host)

    # ------------------------------------------------------------------
    # request lifecycle notes (called by cluster / governor)
    # ------------------------------------------------------------------
    def is_settled(self, req_id: int) -> bool:
        return req_id in self._settled

    def settle(self, req_id: int) -> None:
        self._settled.add(req_id)
        self._hedge.pop(req_id, None)
        self._awaiting_retry.discard(req_id)

    def after_dispatch(self, spec: RequestSpec, host: int) -> None:
        """The first dispatch of a request was placed on ``host``."""
        req_id = spec.req_id
        if self.is_settled(req_id):
            return  # shed at the door
        self._primary_host[req_id] = host
        hp = self.config.hedge
        if hp is not None and len(self.cluster.hosts) > 1:
            self.sim.schedule(hp.hedge_delay(req_id), self._fire_hedge, spec)

    def note_begin(self, req_id: int) -> None:
        self._awaiting_retry.discard(req_id)

    def note_retry_scheduled(self, req_id: int) -> None:
        self._awaiting_retry.add(req_id)

    def note_spawn(self, spec: RequestSpec, task: Task, host: int) -> None:
        req_id = spec.req_id
        self._live.setdefault(req_id, {})[task.tid] = (task, host)
        st = self._hedge.get(req_id)
        if st is not None and st["backup_tid"] is None \
                and host == st["backup_host"]:
            st["backup_tid"] = task.tid

    def note_task_end(self, spec: RequestSpec, task: Task) -> int:
        """An attempt's task exited; returns the host it ran on (-1 if
        it was never registered)."""
        live = self._live.get(spec.req_id)
        if not live:
            return -1
        _, host = live.pop(task.tid, (None, -1))
        if not live:
            self._live.pop(spec.req_id, None)
        return host

    # ------------------------------------------------------------------
    # hedging
    # ------------------------------------------------------------------
    def _fire_hedge(self, spec: RequestSpec) -> None:
        req_id = spec.req_id
        if self.is_settled(req_id) or req_id in self._awaiting_retry:
            return  # already answered, or already in the retry path
        if self.governor.attempts_of(req_id) != 1:
            return  # a retry happened; hedging only covers the first try
        cluster = self.cluster
        primary = self._primary_host.get(req_id, -1)
        backup, best = -1, None
        for i in range(len(cluster.hosts)):
            if i == primary or not cluster._view[i]:
                continue
            v = cluster.hosts[i].outstanding
            if best is None or v < best:
                backup, best = i, v
        if backup < 0:
            return  # no second healthy host to hedge onto
        self.governor.stats.hedges += 1
        if self._probe_on:
            self._probe.hedge(req_id, primary, backup)
        self._hedge[req_id] = {"chains": 2, "backup_host": backup,
                               "backup_tid": None}
        cluster._hedge_dispatch(spec, backup)

    def absorb_death(self, req_id: int) -> bool:
        """A chain died while a hedge race is on: absorb it (no retry)
        as long as the sibling chain is still in flight."""
        st = self._hedge.get(req_id)
        if st is None:
            return False
        st["chains"] -= 1
        if st["chains"] >= 1:
            return True
        self._hedge.pop(req_id, None)  # both chains dead: race over
        return False

    def on_finish(self, spec: RequestSpec, task: Task) -> None:
        """An attempt completed normally — the request's answer."""
        req_id = spec.req_id
        st = self._hedge.pop(req_id, None)
        if st is not None:
            winner = "backup" if task.tid == st.get("backup_tid") \
                else "primary"
            if winner == "backup":
                self.governor.stats.hedge_wins += 1
            if self._probe_on:
                self._probe.hedge_win(task, req_id, winner)
        self.settle(req_id)
        if st is not None:
            self._cancel_losers(req_id)

    def _cancel_losers(self, req_id: int) -> None:
        for tid, (task, host) in list(self._live.get(req_id, {}).items()):
            if task.state is TaskState.FINISHED:
                continue
            if self._probe_on:
                self._probe.hedge_cancel(tid, req_id)
            self.cluster.hosts[host].machine.kill(task, "hedge")

    # ------------------------------------------------------------------
    # failover stranding
    # ------------------------------------------------------------------
    def try_strand(self, spec: RequestSpec, host: int) -> bool:
        """An attempt died with a failed host: park it for re-dispatch
        at the next health poll, within the per-request failover cap."""
        if not self.config.failover:
            return False
        req_id = spec.req_id
        n = self._failovers.get(req_id, 0)
        if n >= self.config.max_failovers:
            return False
        self._failovers[req_id] = n + 1
        self._stranded.append((spec, host))
        return True

    # ------------------------------------------------------------------
    # retry budget
    # ------------------------------------------------------------------
    def allow_retry(self, req_id: int, attempt: int) -> bool:
        budget = self.config.retry_budget
        if budget is None:
            return True
        now = self.sim.now
        if now > self._tokens_at:
            rate_per_us = budget.rate_per_sec / 1_000_000.0
            self._tokens = min(float(budget.burst),
                               self._tokens + (now - self._tokens_at)
                               * rate_per_us)
            self._tokens_at = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    # ------------------------------------------------------------------
    # gauges
    # ------------------------------------------------------------------
    def gauge_keys(self) -> Tuple[Tuple[str, int], ...]:
        """The cluster-level gauges (see ``MachineBase.gauge_keys``)."""
        keys = ((tev.GAUGE_UNHEALTHY, -1),)
        if self.config.retry_budget is not None:
            keys += ((tev.GAUGE_RETRY_TOKENS, -1),)
        return keys

    def gauge_values(self, out: list) -> None:
        out.append(sum(1 for ok in self.cluster._view if not ok))
        if self.config.retry_budget is not None:
            out.append(int(self._tokens))
