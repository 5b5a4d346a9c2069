"""Metric registries: the zero-overhead null default and the real one.

A registry has the sink shape every observability sink shares:

* ``enabled`` — class-level flag;
* ``counter`` / ``gauge`` / ``histogram`` — get-or-create instruments.

:class:`NullRegistry` is the default everywhere.  Instrumented layers
never touch a registry directly: the simulator's
:class:`repro.obs.probe.Probe` registers each component's instruments
and updates them at every decision site, behind the one guard each
component keeps on the probe's ``enabled`` flag.  The null registry
hands back a shared do-nothing instrument from the get-or-create
methods, so a probe running for another sink (a trace or an audit log)
updates metrics as no-ops.

:class:`MetricsRegistry` keys instruments by ``(name, labels)``; the
same call site can therefore be labelled per core, per scheduling
class, or per function class without bookkeeping at the call site.

Registries are installed on the :class:`repro.sim.engine.Simulator`
(``Simulator(metrics=...)``) **before** machines and schedulers are
constructed: components cache the simulator's probe once.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.instruments import (
    DEFAULT_GAMMA,
    DEFAULT_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    _label_suffix,
)


class _NullInstrument:
    """Accepts any instrument write and discards it."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        return None

    def set(self, value: float, ts: Optional[int] = None) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Do-nothing registry; the zero-overhead default."""

    __slots__ = ()

    enabled: bool = False
    #: host-side self-profiler; never present on the null registry.
    profiler = None

    def counter(self, name: str, help: str = "", unit: str = "",
                labels: Optional[Dict[str, str]] = None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", unit: str = "",
              labels: Optional[Dict[str, str]] = None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", unit: str = "",
                  labels: Optional[Dict[str, str]] = None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullRegistry>"


#: shared singleton — every unmetered run points here.
NULL_REGISTRY = NullRegistry()


class MetricsRegistry(NullRegistry):
    """In-memory instrument registry.

    ``gauge_interval`` (integer microseconds) sets how often the gauge
    sampler (:meth:`repro.obs.probe.Probe.attach_sampler`) snapshots
    queue depths while a run is live.

    ``profile`` attaches a :class:`repro.obs.profiler.HostProfiler` so
    the simulator also records *wall-clock* time per dispatch site.
    Profiler data is host-dependent and therefore kept out of the
    deterministic snapshot — exporters opt into it explicitly.
    """

    __slots__ = ("_instruments", "gauge_interval", "profiler", "gamma")

    enabled = True

    def __init__(self, gauge_interval: int = 10_000, profile: bool = False,
                 gamma: float = DEFAULT_GAMMA):
        if gauge_interval <= 0:
            raise ValueError("gauge_interval must be positive")
        self._instruments: Dict[Tuple[str, str], object] = {}
        self.gauge_interval = gauge_interval
        self.gamma = gamma
        if profile:
            from repro.obs.profiler import HostProfiler

            self.profiler = HostProfiler()
        else:
            self.profiler = None

    # ------------------------------------------------------------------
    # get-or-create
    # ------------------------------------------------------------------
    def _get(self, cls, name: str, help: str, unit: str,
             labels: Optional[Dict[str, str]], **kw):
        key = (name, _label_suffix(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(name, help=help, unit=unit, labels=labels, **kw)
            self._instruments[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as {inst.kind}"
            )
        return inst

    def counter(self, name: str, help: str = "", unit: str = "",
                labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get(Counter, name, help, unit, labels)

    def gauge(self, name: str, help: str = "", unit: str = "",
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._get(Gauge, name, help, unit, labels)

    def histogram(self, name: str, help: str = "", unit: str = "",
                  labels: Optional[Dict[str, str]] = None,
                  quantiles: Tuple[float, ...] = DEFAULT_QUANTILES) -> Histogram:
        return self._get(Histogram, name, help, unit, labels,
                         gamma=self.gamma, quantiles=quantiles)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[object]:
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def get(self, name: str,
            labels: Optional[Dict[str, str]] = None) -> Optional[object]:
        """Look up an instrument without creating it."""
        return self._instruments.get((name, _label_suffix(labels)))

    def find(self, name: str) -> List[object]:
        """All instruments sharing ``name`` across label sets."""
        return [inst for (n, _), inst in sorted(self._instruments.items())
                if n == name]

    def snapshot(self) -> Dict[str, object]:
        """Deterministic name→state mapping (no wall-clock data).

        Keys are ``name`` or ``name{k="v"}``; same seed → same snapshot,
        byte for byte once JSON-encoded.
        """
        out: Dict[str, object] = {}
        for (name, suffix), inst in sorted(self._instruments.items()):
            out[name + suffix] = {"kind": inst.kind, **inst.snapshot()}
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry {len(self._instruments)} instruments>"
