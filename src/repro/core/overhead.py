"""User-space overhead accounting (Table II).

The paper reports SFS' own CPU usage: ~74 % of it from periodic status
polling, the rest from scheduling activity, averaging 2.6 cores on a
72-core OpenLambda host with 4 ms polling.  The simulator cannot burn
real CPU, so we meter the *cost model*: every poll charges
``poll_cost`` us of CPU, every scheduling action ``sched_op_cost`` us
(both calibrated to gopsutil/schedtool costs and configurable).

Costs are bucketed into fixed windows so the table's min/avg/median/max
over time can be reproduced.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.sim.units import SEC


@dataclass
class OverheadSummary:
    """CPU usage of SFS itself, as a fraction of one core."""

    min: float
    average: float
    median: float
    max: float
    poll_fraction: float  # share of total overhead due to polling
    total_cpu_us: int

    def relative_to(self, n_cores: int) -> float:
        """Overhead as a fraction of the whole machine (paper: 2.6/72)."""
        return self.average / n_cores


class OverheadMeter:
    """Buckets SFS user-space CPU costs into fixed time windows."""

    def __init__(self, window: int = 1 * SEC):
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._poll_cost: Dict[int, int] = defaultdict(int)
        self._sched_cost: Dict[int, int] = defaultdict(int)
        self.poll_count = 0
        self.sched_op_count = 0

    def record_poll(self, now: int, cost: int) -> None:
        self._poll_cost[now // self.window] += cost
        self.poll_count += 1

    def record_polls(self, first: int, interval: int, n: int,
                     cost: int) -> None:
        """Record ``n`` polls, at ``first`` and every ``interval`` after:
        :meth:`record_poll` at each of those instants, in bulk."""
        self.poll_count += n
        window = self.window
        t = first
        while n > 0:
            b = t // window
            # the polls from t up to the end of window b
            k = min(n, ((b + 1) * window - t - 1) // interval + 1)
            self._poll_cost[b] += k * cost
            t += k * interval
            n -= k

    def record_sched_op(self, now: int, cost: int) -> None:
        self._sched_cost[now // self.window] += cost
        self.sched_op_count += 1

    @property
    def total_poll_cost(self) -> int:
        return sum(self._poll_cost.values())

    @property
    def total_sched_cost(self) -> int:
        return sum(self._sched_cost.values())

    def per_window_usage(self, end_time: int) -> List[float]:
        """CPU usage (cores) per window from t=0 to ``end_time``."""
        n = max(1, -(-end_time // self.window))  # ceil division
        usage = []
        for b in range(n):
            cost = self._poll_cost.get(b, 0) + self._sched_cost.get(b, 0)
            usage.append(cost / self.window)
        return usage

    def summary(self, end_time: int) -> OverheadSummary:
        usage = np.asarray(self.per_window_usage(end_time))
        total = self.total_poll_cost + self.total_sched_cost
        poll_frac = self.total_poll_cost / total if total else 0.0
        return OverheadSummary(
            min=float(usage.min()),
            average=float(usage.mean()),
            median=float(np.median(usage)),
            max=float(usage.max()),
            poll_fraction=poll_frac,
            total_cpu_us=int(total),
        )
