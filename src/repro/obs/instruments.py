"""Streaming metric instruments: counter, gauge, quantile histogram.

Three instrument kinds cover everything the observability layer needs:

* :class:`Counter` — a monotone total (events, promotions, boost-us);
* :class:`Gauge`   — a sampled level (queue depth, pool occupancy),
  keeping last/min/max plus a bounded, deterministically decimated
  time series for timeline rendering;
* :class:`Histogram` — a distribution summarised by a
  :class:`QuantileSketch`, so P50/P99/P99.9 are available in O(1)
  memory without ever retaining the full sample list.

The sketch is DDSketch-style (Masson et al., VLDB'19 — the same family
as P²/t-digest): values land in logarithmically spaced buckets with
ratio ``γ̄ = (1+α)/(1-α)``, which guarantees every quantile estimate is
within *relative* error ``α`` of the exact order statistic it targets.
That guarantee is what the hypothesis property suite pins down.

Everything here is driven by virtual-time events only, so two runs with
the same seed produce byte-identical snapshots.  Wall-clock cost of the
simulator itself is measured from outside the program, by perfbench.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

#: quantiles every histogram snapshot reports (the paper's headline set).
DEFAULT_QUANTILES = (0.5, 0.9, 0.99, 0.999)

#: default relative accuracy: P99 within 1 % of the exact order statistic.
DEFAULT_GAMMA = 0.01

#: values below this are indistinguishable from zero (durations are
#: integer microseconds, so anything sub-microsecond is noise).
MIN_TRACKABLE = 1e-6


def _label_suffix(labels: Optional[Dict[str, str]]) -> str:
    """Canonical ``{k="v",...}`` suffix; empty string when unlabelled."""
    if not labels:
        return ""
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "help", "unit", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "", unit: str = "",
                 labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.help = help
        self.unit = unit
        self.labels = dict(labels) if labels else {}
        self.value: int = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> Dict[str, object]:
        return {"value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}{_label_suffix(self.labels)}={self.value}>"


class Gauge:
    """Sampled level with last/min/max and a bounded time series.

    The series is decimated deterministically: once ``max_points``
    samples accumulate, every other retained point is dropped and the
    keep-stride doubles, so memory stays O(max_points) while the series
    still spans the whole run.  Two identical runs decimate identically.
    """

    __slots__ = ("name", "help", "unit", "labels", "last", "min", "max",
                 "samples", "series", "_stride", "_countdown", "max_points")

    kind = "gauge"

    def __init__(self, name: str, help: str = "", unit: str = "",
                 labels: Optional[Dict[str, str]] = None,
                 max_points: int = 512):
        self.name = name
        self.help = help
        self.unit = unit
        self.labels = dict(labels) if labels else {}
        self.last: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples: int = 0
        self.series: List[Tuple[int, float]] = []
        self.max_points = max_points
        self._stride = 1
        self._countdown = 1

    def set(self, value: float, ts: Optional[int] = None) -> None:
        self.last = value
        self.samples += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if ts is None:
            return
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self._stride
        self.series.append((ts, value))
        if len(self.series) >= self.max_points:
            self.series = self.series[::2]
            self._stride *= 2
            self._countdown = self._stride

    def set_run(self, value: float, ts: int, step: int, n: int) -> None:
        """``n`` calls ``set(value, ts=ts + j * step)``, j = 0 .. n - 1,
        in closed form: the same snapshot, series and decimation."""
        self.last = value
        self.samples += n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        series = self.series
        j = self._countdown - 1  # the next call that keeps its point
        while j < n:
            stride = self._stride
            room = max(1, self.max_points - len(series))
            k = min(room, (n - 1 - j) // stride + 1)
            series.extend([(ts + (j + i * stride) * step, value)
                           for i in range(k)])
            j += (k - 1) * stride
            if len(series) >= self.max_points:
                self.series = series = series[::2]
                self._stride *= 2
            j += self._stride
        self._countdown = j - n + 1

    def snapshot(self) -> Dict[str, object]:
        return {
            "last": self.last,
            "min": self.min,
            "max": self.max,
            "samples": self.samples,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}{_label_suffix(self.labels)}={self.last}>"


class QuantileSketch:
    """DDSketch-style log-bucketed quantile sketch.

    ``gamma`` is the relative-accuracy bound α: for any quantile ``q``
    the estimate returned by :meth:`quantile` is within ``α`` (relative)
    of the exact sample at the targeted rank — the property suite
    asserts exactly this sandwich.  Memory is O(log(max/min) / log γ̄)
    buckets, independent of how many values are observed.

    Only non-negative values are accepted (the instruments measure
    durations, depths and counts); values below :data:`MIN_TRACKABLE`
    share an exact zero bucket.
    """

    __slots__ = ("gamma", "_gbar", "_log_gbar", "count", "zero_count",
                 "buckets")

    def __init__(self, gamma: float = DEFAULT_GAMMA):
        if not (0.0 < gamma < 1.0):
            raise ValueError("gamma must be in (0, 1)")
        self.gamma = gamma
        self._gbar = (1.0 + gamma) / (1.0 - gamma)
        self._log_gbar = math.log(self._gbar)
        self.count: int = 0
        self.zero_count: int = 0
        self.buckets: Dict[int, int] = {}

    def add(self, value: float, n: int = 1) -> None:
        if value < 0:
            raise ValueError(f"sketch values must be >= 0, got {value}")
        self.count += n
        if value < MIN_TRACKABLE:
            self.zero_count += n
            return
        idx = math.ceil(math.log(value) / self._log_gbar)
        self.buckets[idx] = self.buckets.get(idx, 0) + n

    def merge(self, other: "QuantileSketch") -> None:
        if other.gamma != self.gamma:
            raise ValueError("cannot merge sketches with different gamma")
        self.count += other.count
        self.zero_count += other.zero_count
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n

    def _representative(self, idx: int) -> float:
        # midpoint of (γ̄^(i-1), γ̄^i] in relative terms: within α of
        # every value that mapped to bucket i
        return 2.0 * self._gbar ** idx / (self._gbar + 1.0)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (q in [0, 1]).

        Targets the nearest-rank order statistic ``round(q * (n - 1))``;
        the estimate is within relative error ``gamma`` of that exact
        sample.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            raise ValueError("empty sketch")
        rank = int(q * (self.count - 1) + 0.5)
        if rank < self.zero_count:
            return 0.0
        cum = self.zero_count
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            if cum > rank:
                return self._representative(idx)
        # numerically impossible unless counts were corrupted
        raise AssertionError("rank beyond total count")  # pragma: no cover

    def __len__(self) -> int:
        return self.count


class Histogram:
    """Distribution summary: count/sum/min/max + quantile sketch."""

    __slots__ = ("name", "help", "unit", "labels", "sketch", "sum",
                 "min", "max", "quantiles")

    kind = "histogram"

    def __init__(self, name: str, help: str = "", unit: str = "",
                 labels: Optional[Dict[str, str]] = None,
                 gamma: float = DEFAULT_GAMMA,
                 quantiles: Tuple[float, ...] = DEFAULT_QUANTILES):
        self.name = name
        self.help = help
        self.unit = unit
        self.labels = dict(labels) if labels else {}
        self.sketch = QuantileSketch(gamma)
        self.sum: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.quantiles = quantiles

    def observe(self, value: float) -> None:
        self.sketch.add(value)
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def count(self) -> int:
        return self.sketch.count

    @property
    def mean(self) -> float:
        return self.sum / self.sketch.count if self.sketch.count else 0.0

    def quantile(self, q: float) -> float:
        return self.sketch.quantile(q)

    def snapshot(self) -> Dict[str, object]:
        snap: Dict[str, object] = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }
        if self.count:
            snap["quantiles"] = {
                f"{q:g}": self.sketch.quantile(q) for q in self.quantiles
            }
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Histogram {self.name}{_label_suffix(self.labels)} "
                f"n={self.count}>")
