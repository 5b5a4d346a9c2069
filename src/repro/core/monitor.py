"""Adaptive time-slice monitor (§V-C).

Models the scheduler as an M/G/c queue: with per-core utilisation
``rho = lambda / (c * mu)``, bounding the FILTER-mode service time by
``S = mean(IAT) * c`` keeps the FILTER pool's effective ``rho`` near 1,
balancing queuing delay against context switches.

The monitor keeps the timestamps of the last ``N+1`` *fresh* request
arrivals (wake-up re-enqueues do not count — they are not new traffic)
and recomputes ``S`` every ``N`` arrivals from the N inter-arrival
times in the window, exactly as §V-C describes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.core.config import SFSConfig


class SliceMonitor:
    """Sliding-window IAT tracker producing the global time slice S."""

    def __init__(self, config: SFSConfig, n_cores: int):
        self.config = config
        self.n_cores = n_cores
        self._slice: int = config.initial_slice
        self._arrivals: Deque[int] = deque(maxlen=config.window + 1)
        self._since_update = 0
        self.recomputations = 0
        #: (time, S) — Fig 10's series; starts with the initial value.
        self.timeline: List[Tuple[int, int]] = [(0, self._slice)]

    @property
    def slice(self) -> int:
        """Current global time slice S (microseconds)."""
        return self._slice

    def record_arrival(self, now: int) -> Optional[int]:
        """Note a fresh request arrival; maybe recompute S.  Returns the
        new S when it was recomputed (the caller reports it), else None."""
        self._arrivals.append(now)
        self._since_update += 1
        if not self.config.adaptive:
            return None
        # a full window is N IATs, which takes N+1 arrival timestamps
        if (
            self._since_update >= self.config.window
            and len(self._arrivals) == self.config.window + 1
        ):
            self._recompute(now)
            self._since_update = 0
            return self._slice
        return None

    def _recompute(self, now: int) -> None:
        ts = self._arrivals
        # mean IAT over the window == (last - first) / (len - 1)
        span = ts[-1] - ts[0]
        n_iats = len(ts) - 1
        mean_iat = span / n_iats
        s = self.config.clamp_slice(round(mean_iat * self.n_cores))
        self._slice = s
        self.recomputations += 1
        self.timeline.append((now, s))

    def mean_iat(self) -> float:
        """Mean IAT currently in the window (us); inf with <2 samples."""
        if len(self._arrivals) < 2:
            return float("inf")
        return (self._arrivals[-1] - self._arrivals[0]) / (len(self._arrivals) - 1)
