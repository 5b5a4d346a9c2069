"""Seeded, biased case generation.

A fuzz case is a ``(workload, run-config)`` pair — the config carries
the fault plan and failure handling — built from a single hashed
generator keyed by ``(campaign_seed, index)``.  Nothing else feeds the
draw, so any case in any campaign replays bit-identically from its id
alone: ``make_case(seed, index)`` IS the reproducer, before the
shrinker even starts.

The biases target the corners the paper's claims live in: heavy-tail
duration mixes (short functions drowning among long ones — the
FILTER/late-bind motivation), bursty and simultaneous arrivals (event
tie-breaks), straggler + crash combos, and every scheduler family the
repo models (CFS, RT via FIFO/RR, EEVDF via the discrete fair class,
and SFS on top).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.experiments.runner import RunConfig
from repro.faults.plan import FaultPlan
from repro.faults.policy import AdmissionControl, RetryPolicy
from repro.machine.base import MachineParams
from repro.sim.task import Burst, BurstKind
from repro.workload.spec import RequestSpec, Workload

#: hash salt separating the case stream from every other hashed stream
#: in the repo (fault decisions use 0xC1/0xC2, backoff 0xB0)
_SALT_CASE = 0xF0


@dataclass(frozen=True)
class ClusterCase:
    """The cluster dimension of a fuzz case (``None`` = single machine).

    Small on purpose — 2 to 4 hosts is enough to exercise fault
    domains, failover re-dispatch and hedged requests; the shrinker
    folds toward 2 hosts with hedging off.  The fault domains and
    domain outage windows themselves live on the case's
    :class:`~repro.faults.plan.FaultPlan` (they are plan data, like any
    other host failure).
    """

    n_hosts: int
    scheduler: str = "cfs"
    hedge: bool = False

    def __post_init__(self) -> None:
        if self.n_hosts < 2:
            raise ValueError("cluster cases need >= 2 hosts")
        if self.scheduler not in ("cfs", "sfs"):
            raise ValueError("cluster cases run 'cfs' or 'sfs'")


@dataclass(frozen=True)
class FuzzCase:
    """One generated scenario, identified by ``(campaign_seed, index)``."""

    campaign_seed: int
    index: int
    workload: Workload
    config: RunConfig
    #: when set, the case runs through the fault-tolerant cluster tier
    #: (repro.faas.cluster + resilience) instead of a bare machine
    cluster: Optional[ClusterCase] = None

    def with_workload(self, workload: Workload) -> "FuzzCase":
        return replace(self, workload=workload)

    def with_config(self, config: RunConfig) -> "FuzzCase":
        return replace(self, config=config)

    def with_cluster(self, cluster: Optional["ClusterCase"]) -> "FuzzCase":
        return replace(self, cluster=cluster)


# ----------------------------------------------------------------------
# biased component draws
# ----------------------------------------------------------------------
def _durations(rng: np.random.Generator, n: int) -> np.ndarray:
    """CPU demands (us) from one of three shapes, heavy tails favoured."""
    profile = rng.choice(3, p=(0.35, 0.40, 0.25))
    if profile == 0:  # short-uniform: everything finishes in a slice
        d = rng.uniform(200, 5_000, size=n)
    elif profile == 1:  # heavy tail: the paper's Table-I regime
        d = np.exp(rng.normal(np.log(2_000), 1.8, size=n))
        d = np.minimum(d, 2_000_000)
    else:  # bimodal: short crowd + a few multi-second hogs
        d = rng.uniform(200, 3_000, size=n)
        long_mask = rng.random(n) < 0.2
        d[long_mask] = rng.uniform(200_000, 1_500_000, size=int(long_mask.sum()))
    return np.maximum(np.rint(d), 1).astype(np.int64)


def _arrivals(rng: np.random.Generator, n: int, total_cpu: int,
              n_cores: int) -> np.ndarray:
    """Absolute arrival times; ties are a feature, not a bug."""
    kind = rng.choice(3, p=(0.5, 0.3, 0.2))
    if kind == 0:  # poisson at a drawn load
        load = rng.uniform(0.5, 1.6)
        mean_iat = max(1.0, total_cpu / (n_cores * load * n))
        iats = np.maximum(np.rint(rng.exponential(mean_iat, size=n)), 0)
        return np.cumsum(iats.astype(np.int64))
    if kind == 1:  # bursts: clusters of equal-time arrivals
        n_clusters = int(rng.integers(1, max(2, n // 2) + 1))
        times = np.sort(rng.integers(0, max(1, total_cpu // max(1, n_cores)),
                                     size=n_clusters))
        picks = rng.integers(0, n_clusters, size=n)
        return np.sort(times[picks]).astype(np.int64)
    return np.zeros(n, dtype=np.int64)  # thundering herd at t=0


def _bursts(rng: np.random.Generator, cpu_us: int) -> Tuple[Burst, ...]:
    """Mostly pure-CPU; sometimes a leading I/O or an I/O sandwich."""
    shape = rng.choice(3, p=(0.7, 0.2, 0.1))
    if shape == 0:
        return (Burst(BurstKind.CPU, int(cpu_us)),)
    io = int(rng.integers(1_000, 50_000))
    if shape == 1:  # leading I/O (the paper's IO knob)
        return (Burst(BurstKind.IO, io), Burst(BurstKind.CPU, int(cpu_us)))
    head = max(1, int(cpu_us) // 2)
    tail = max(1, int(cpu_us) - head)
    return (Burst(BurstKind.CPU, head), Burst(BurstKind.IO, io),
            Burst(BurstKind.CPU, tail))


def _fault_plan(rng: np.random.Generator) -> Optional[FaultPlan]:
    if rng.random() >= 0.45:
        return None
    crash = float(rng.choice((0.0, 0.1, 0.3), p=(0.3, 0.4, 0.3)))
    cold = float(rng.choice((0.0, 0.1), p=(0.7, 0.3)))
    stragglers: Tuple[Tuple[int, float], ...] = ()
    if rng.random() < 0.35:
        # host 0 is the only host a bare-machine run has
        stragglers = ((0, float(np.round(rng.uniform(0.3, 0.9), 3))),)
    plan = FaultPlan(
        seed=int(rng.integers(0, 2**31)),
        crash_prob=crash,
        coldstart_fail_prob=cold,
        stragglers=stragglers,
    )
    return None if plan.is_null else plan


def _scheduler_engine(rng: np.random.Generator) -> Tuple[str, str, str]:
    """(scheduler, engine, fair_class) covering CFS/RT/EEVDF/SFS."""
    scheduler = str(rng.choice(
        ("cfs", "sfs", "fifo", "rr"), p=(0.35, 0.35, 0.15, 0.15)))
    engine = str(rng.choice(("fluid", "discrete"), p=(0.6, 0.4)))
    fair_class = "cfs"
    if engine == "discrete" and scheduler in ("cfs", "sfs") \
            and rng.random() < 0.35:
        fair_class = "eevdf"  # the 6.6+ kernel fair class
    return scheduler, engine, fair_class


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------
def make_case(campaign_seed: int, index: int) -> FuzzCase:
    """Build case ``(campaign_seed, index)``; pure, replayable, biased.

    Every draw comes from one hashed generator keyed by the id, in a
    fixed order — two calls return structurally identical cases.
    """
    rng = np.random.default_rng((campaign_seed, index, _SALT_CASE))

    n = int(rng.integers(1, 25))
    if rng.random() < 0.15:
        n = int(rng.integers(25, 49))  # occasionally larger
    n_cores = int(rng.integers(1, 9))

    cpu = _durations(rng, n)
    arrivals = _arrivals(rng, n, int(cpu.sum()), n_cores)
    requests: List[RequestSpec] = []
    for i in range(n):
        bursts = _bursts(rng, int(cpu[i]))
        requests.append(RequestSpec(
            req_id=i, arrival=int(arrivals[i]), bursts=bursts,
            name=f"fuzz-{i}", app="fuzz",
        ))
    workload = Workload(requests, meta={
        "generator": "fuzz",
        "seed": campaign_seed,
        "index": index,
    })

    scheduler, engine, fair_class = _scheduler_engine(rng)
    machine = MachineParams(
        n_cores=n_cores,
        ctx_switch_cost=int(rng.choice((0, 500), p=(0.6, 0.4))),
        fair_class=fair_class,
    )
    plan = _fault_plan(rng)
    retry = None
    if plan is not None and (plan.crash_prob or plan.coldstart_fail_prob) \
            and rng.random() < 0.7:
        retry = RetryPolicy(max_attempts=int(rng.integers(2, 5)),
                            base_backoff=1_000, max_backoff=100_000,
                            seed=int(rng.integers(0, 2**31)))
    timeout = None
    admission = None
    if rng.random() < 0.10:
        # deadline generous enough that only tail requests expire
        timeout = int(rng.integers(2, 20)) * 1_000_000
    if rng.random() < 0.10:
        admission = AdmissionControl(max_outstanding=int(rng.integers(2, 9)))

    config = RunConfig(
        scheduler=scheduler,
        engine=engine,
        machine=machine,
        notify_latency=int(rng.choice((0, 200), p=(0.3, 0.7))),
        faults=plan,
        retry=retry,
        admission=admission,
        timeout=timeout,
        max_events=_event_budget(workload),
    )

    # cluster dimension LAST: every draw above is untouched, so a case
    # that stays single-machine is byte-identical to pre-cluster fuzz
    cluster, cluster_plan = _cluster_case(
        rng, plan, int(arrivals.max()), int(cpu.sum()), n_cores)
    if cluster is not None and cluster_plan is not plan:
        config = replace(config, faults=cluster_plan)
    return FuzzCase(campaign_seed=campaign_seed, index=index,
                    workload=workload, config=config, cluster=cluster)


def _cluster_case(
    rng: np.random.Generator,
    plan: Optional[FaultPlan],
    last_arrival: int,
    total_cpu: int,
    n_cores: int,
) -> Tuple[Optional["ClusterCase"], Optional[FaultPlan]]:
    """~15% of cases run through the resilient cluster tier.

    Half of those get a correlated domain outage: the hosts are split
    into two racks and the rack *without* host 0 fails for a window —
    host 0 may already be a straggler in the plan, and a host cannot be
    both degraded and dead (FaultPlan rejects the contradiction).
    Returns ``(cluster, plan)`` with the plan possibly extended.
    """
    if rng.random() >= 0.15:
        return None, plan
    n_hosts = int(rng.integers(2, 5))
    scheduler = str(rng.choice(("cfs", "sfs")))
    hedge = bool(rng.random() < 0.5)
    if rng.random() < 0.5:
        # rack 0 keeps host 0 (and stays up); rack 1 takes the outage
        keep = max(1, n_hosts // 2)
        domains = (tuple(range(keep)), tuple(range(keep, n_hosts)))
        horizon = max(1, last_arrival + total_cpu // max(1, n_cores))
        down_at = int(rng.integers(0, max(1, horizon // 2)))
        up_at = down_at + 1 + int(rng.integers(0, max(1, horizon // 2)))
        outage = ((1, down_at, up_at),)
        if plan is None:
            plan = FaultPlan(seed=int(rng.integers(0, 2**31)),
                             fault_domains=domains, domain_failures=outage)
        else:
            plan = replace(plan, fault_domains=domains,
                           domain_failures=outage)
    elif plan is None and rng.random() < 0.5:
        # no outage: still give the cluster something to retry against
        plan = FaultPlan(seed=int(rng.integers(0, 2**31)), crash_prob=0.2)
    return ClusterCase(n_hosts=n_hosts, scheduler=scheduler,
                       hedge=hedge), plan


def _event_budget(workload: Workload) -> int:
    """Per-case runaway guard: generous for any legal schedule (the
    discrete engine slices at >= min-granularity, so events scale with
    total CPU time), tight enough that a livelock fails in seconds."""
    return 500_000 + workload.total_cpu_demand // 50


def plan_component_count(plan: Optional[FaultPlan]) -> int:
    """How many independent fault-plan components a plan carries (the
    shrinker minimises this; the acceptance criteria bound it)."""
    if plan is None:
        return 0
    return (
        int(plan.crash_prob > 0)
        + int(plan.coldstart_fail_prob > 0)
        + len(plan.stragglers)
        + len(plan.host_failures)
        + len(plan.domain_failures)
    )
