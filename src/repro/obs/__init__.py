"""repro.obs — unified observability: the probe, metrics, export.

Layering (mirrors ``repro.trace`` / ``repro.invariants``):

* :mod:`repro.obs.instruments` — counter / gauge / quantile-sketch
  histogram primitives;
* :mod:`repro.obs.registry` — :class:`MetricsRegistry` and the
  zero-overhead :data:`NULL_REGISTRY` default installed on every
  simulator;
* :mod:`repro.obs.probe` — the per-simulator :class:`Probe`, the one
  instrumentation path that maps each scheduling decision onto the
  trace, this registry and the audit log (gauge path included);
* :mod:`repro.obs.export` — Prometheus text / JSONL exporters.

Where the latency went is :mod:`repro.why`'s question (one timeline
model for every engine and scheduler), and a run's HTML view is the
explorer (:mod:`repro.explore`).

Only the leaf modules are imported here (``sim.engine`` imports this
package for :data:`NULL_REGISTRY`); import the probe and the exporters
as submodules.
"""

from repro.obs.instruments import (
    Counter,
    Gauge,
    Histogram,
    QuantileSketch,
)
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry, NullRegistry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "QuantileSketch",
]
