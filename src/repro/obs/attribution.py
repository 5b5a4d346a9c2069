"""Virtual-time attribution: where did the latency go?

The paper's distributional claims (Figs 6-16) say *that* SFS moves the
P99; attribution says *why*.  Every finished request already carries
exact virtual-time accounting on its :class:`RequestRecord`, so the
end-to-end latency decomposes, microsecond for microsecond, into:

========  ==========================================================
queue     arrival -> OS dispatch: platform overheads, admission
          backoff and container provisioning (cold starts; the
          ``repro_coldstart_us`` histogram isolates that share)
run       on-CPU time (``cpu_time``)
block     I/O / off-CPU voluntary blocking (``io_demand``)
wait      runnable but not running — the scheduler's contribution,
          the quantity SFS exists to shrink for short functions
overhead  the residual: context-switch cost, slice rounding and
          retry gaps (zero on ideal hardware)
========  ==========================================================

Records split into the paper's *short*/*long* function classes at
400 ms of CPU demand (Table I's empty band between the 400 ms and
1550 ms bins).  The threshold lives in :mod:`repro.constants` — a
dependency-free module — so obs stays importable without the
experiment stack while agreeing with it on the boundary.

Per-core utilization and queue-depth timelines come from the gauge
series a :class:`repro.obs.MetricsRegistry` collected during the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constants import SHORT_CPU_BOUND_US  # noqa: F401  (re-export)

#: decomposition order used by every table/exporter
COMPONENTS = ("queue", "run", "block", "wait", "overhead")


@dataclass
class ClassBreakdown:
    """Latency decomposition for one function class."""

    label: str
    n: int = 0
    total: Dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in COMPONENTS})
    end_to_end: int = 0

    def add(self, queue: int, run: int, block: int, wait: int,
            overhead: int, e2e: int) -> None:
        t = self.total
        t["queue"] += queue
        t["run"] += run
        t["block"] += block
        t["wait"] += wait
        t["overhead"] += overhead
        self.end_to_end += e2e
        self.n += 1

    def mean(self, component: str) -> float:
        return self.total[component] / self.n if self.n else 0.0

    def share(self, component: str) -> float:
        """Fraction of total end-to-end latency spent in ``component``."""
        return (self.total[component] / self.end_to_end
                if self.end_to_end else 0.0)

    def as_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "end_to_end_us": self.end_to_end,
            "total_us": dict(self.total),
            "mean_us": {c: round(self.mean(c), 1) for c in COMPONENTS},
            "share": {c: round(self.share(c), 4) for c in COMPONENTS},
        }


def _decompose(rec) -> Tuple[int, int, int, int, int, int]:
    e2e = rec.end_to_end
    queue = rec.dispatch - rec.arrival
    run = rec.cpu_time
    block = rec.io_demand
    wait = rec.wait_time
    overhead = e2e - queue - run - block - wait
    return queue, run, block, wait, overhead, e2e


def attribute_records(
    records: Sequence[object],
    short_bound: int = SHORT_CPU_BOUND_US,
) -> Dict[str, ClassBreakdown]:
    """Decompose end-to-end latency per function class.

    Returns ``{"short": ..., "long": ..., "all": ...}``; requests that
    never produced useful work (shed/failed synthetics with zero
    turnaround) are attributed too — their latency is all "queue",
    which is exactly where it was spent.
    """
    out = {
        "short": ClassBreakdown("short"),
        "long": ClassBreakdown("long"),
        "all": ClassBreakdown("all"),
    }
    for rec in records:
        parts = _decompose(rec)
        cls = "short" if rec.cpu_demand < short_bound else "long"
        out[cls].add(*parts)
        out["all"].add(*parts)
    return out


def latency_table(
    records: Sequence[object],
    short_bound: int = SHORT_CPU_BOUND_US,
) -> str:
    """Render the "where did the latency go" table (ms, mean/request)."""
    br = attribute_records(records, short_bound)
    classes = [br["short"], br["long"], br["all"]]
    header = ["class", "n"] + [f"{c} (ms)" for c in COMPONENTS] + ["e2e (ms)"]
    rows: List[List[str]] = []
    for b in classes:
        if b.n == 0:
            continue
        row = [b.label, str(b.n)]
        for c in COMPONENTS:
            row.append(f"{b.mean(c) / 1e3:.1f} ({b.share(c):.0%})")
        row.append(f"{b.end_to_end / b.n / 1e3:.1f}")
        rows.append(row)
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = ["where did the latency go (mean per request, share of e2e)",
             fmt.format(*header),
             "  ".join("-" * w for w in widths)]
    lines += [fmt.format(*r) for r in rows]
    return "\n".join(lines)


def sfs_accounting(registry) -> Dict[str, object]:
    """SFS boost/demote counters as one flat dict (empty without SFS)."""
    names = {
        "submitted": "repro_sfs_submitted_total",
        "resubmitted": "repro_sfs_resubmitted_total",
        "promoted": "repro_sfs_promotions_total",
        "finished_in_slice": "repro_sfs_filter_finishes_total",
        "bypassed_overload": "repro_sfs_overload_bypass_total",
        "boost_us": "repro_sfs_boost_us_total",
    }
    out: Dict[str, object] = {}
    for key, name in names.items():
        inst = registry.get(name)
        if inst is not None:
            out[key] = inst.value
    for reason in ("slice", "io"):
        inst = registry.get("repro_sfs_demotions_total",
                            labels={"reason": reason})
        if inst is not None:
            out[f"demoted_{reason}"] = inst.value
    delay = registry.get("repro_sfs_queue_delay_us")
    if delay is not None and delay.count:
        out["queue_delay_p50_us"] = round(delay.sketch.quantile(0.5), 1)
        out["queue_delay_p99_us"] = round(delay.sketch.quantile(0.99), 1)
    return out


def utilization_timeline(
    registry, n_cores: int,
) -> List[Tuple[int, float]]:
    """(virtual ts, machine utilization in [0,1]) from the idle-cores
    gauge series the registry sampled during the run."""
    gauge = registry.get("repro_idle_cores")
    if gauge is None or n_cores <= 0:
        return []
    return [(ts, (n_cores - idle) / n_cores) for ts, idle in gauge.series]
