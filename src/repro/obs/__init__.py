"""repro.obs — unified observability: metrics, attribution, profiling.

Layering (mirrors ``repro.trace`` / ``repro.invariants``):

* :mod:`repro.obs.instruments` — counter / gauge / quantile-sketch
  histogram primitives;
* :mod:`repro.obs.registry` — :class:`MetricsRegistry` and the
  zero-overhead :data:`NULL_REGISTRY` default installed on every
  simulator;
* :mod:`repro.obs.profiler` — host-side wall-clock self-profiler;
* :mod:`repro.obs.probe` — the per-simulator :class:`Probe`, the one
  instrumentation path that maps each scheduling decision onto the
  trace, this registry and the audit log (gauge path included);
* :mod:`repro.obs.attribution` — virtual-time latency breakdown
  ("where did the latency go") and per-core utilization timelines;
* :mod:`repro.obs.export` — Prometheus text / JSONL / HTML exporters;
* :mod:`repro.obs.bench` — the ``repro bench`` perf-trajectory harness.

Only the leaf modules are imported here: ``sim.engine`` imports this
package for :data:`NULL_REGISTRY`, so pulling in attribution / export /
bench (which import machines and experiments) at package init would
cycle.  Import those submodules explicitly.
"""

from repro.obs.instruments import (
    Counter,
    Gauge,
    Histogram,
    QuantileSketch,
)
from repro.obs.profiler import HostProfiler
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry, NullRegistry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HostProfiler",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "QuantileSketch",
]
