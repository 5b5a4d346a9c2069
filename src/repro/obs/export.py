"""Metric exporters: Prometheus text and JSONL dump.

Two formats, one registry:

* :func:`to_prometheus` — the text exposition format scrapers expect
  (``# HELP`` / ``# TYPE`` + sample lines; histograms exported as
  summaries with ``quantile`` labels);
* :func:`to_jsonl` — one JSON object per line under the
  ``repro.metrics/1`` schema.  Deterministic by construction: sorted
  instruments, virtual timestamps only, so the same seed produces a
  byte-identical dump.

Both accept any registry; the null registry just exports nothing.  The
run's HTML view is the explorer (:mod:`repro.explore`), which embeds
the counter snapshot.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.obs.instruments import _label_suffix

METRICS_SCHEMA = "repro.metrics/1"


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def to_prometheus(registry) -> str:
    """Render the registry in the Prometheus text format."""
    by_name: Dict[str, List[object]] = {}
    for inst in registry:
        by_name.setdefault(inst.name, []).append(inst)
    lines: List[str] = []
    for name in sorted(by_name):
        group = by_name[name]
        first = group[0]
        kind = "summary" if first.kind == "histogram" else first.kind
        if first.help:
            lines.append(f"# HELP {name} {first.help}")
        lines.append(f"# TYPE {name} {kind}")
        for inst in group:
            suffix = _label_suffix(inst.labels)
            if inst.kind == "counter":
                lines.append(f"{name}{suffix} {inst.value}")
            elif inst.kind == "gauge":
                lines.append(f"{name}{suffix} {_num(inst.last)}")
            else:  # histogram -> summary
                for q in inst.quantiles:
                    labels = dict(inst.labels)
                    labels["quantile"] = f"{q:g}"
                    val = inst.quantile(q) if inst.count else "NaN"
                    lines.append(
                        f"{name}{_label_suffix(labels)} {_num(val)}")
                lines.append(f"{name}_sum{suffix} {_num(inst.sum)}")
                lines.append(f"{name}_count{suffix} {inst.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def _num(v) -> str:
    if isinstance(v, str):
        return v
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


# ----------------------------------------------------------------------
# JSONL dump
# ----------------------------------------------------------------------
def metrics_lines(registry, include_series: bool = False) -> List[str]:
    """The ``repro.metrics/1`` dump as a list of JSON lines.

    Header line, then one line per instrument in sorted order.  Gauge
    time series (virtual timestamps) ride along under ``series`` when
    ``include_series`` is set.
    """
    insts = list(registry)
    header: Dict[str, object] = {
        "schema": METRICS_SCHEMA,
        "instruments": len(insts),
    }
    lines = [json.dumps(header, sort_keys=True)]
    for inst in insts:
        rec: Dict[str, object] = {
            "type": "instrument",
            "name": inst.name,
            "kind": inst.kind,
        }
        if inst.labels:
            rec["labels"] = dict(sorted(inst.labels.items()))
        if inst.unit:
            rec["unit"] = inst.unit
        if inst.help:
            rec["help"] = inst.help
        rec.update(inst.snapshot())
        if include_series and inst.kind == "gauge" and inst.series:
            rec["series"] = [[ts, v] for ts, v in inst.series]
        lines.append(json.dumps(rec, sort_keys=True))
    return lines


def to_jsonl(registry, include_series: bool = False) -> str:
    return "\n".join(metrics_lines(registry, include_series)) + "\n"


def write_metrics(path: str, registry,
                  include_series: bool = False) -> None:
    """Write the JSONL dump (or Prometheus text for ``.prom`` paths)."""
    if path.endswith(".prom") or path.endswith(".txt"):
        text = to_prometheus(registry)
    else:
        text = to_jsonl(registry, include_series)
    with open(path, "w") as fh:
        fh.write(text)


def read_metrics(path: str) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Load a JSONL dump back: (header, instrument records)."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines or lines[0].get("schema") != METRICS_SCHEMA:
        raise ValueError(f"{path} is not a {METRICS_SCHEMA} dump")
    return lines[0], lines[1:]
