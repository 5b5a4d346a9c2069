"""Metric exporters: Prometheus text, JSONL dump, HTML report.

Three formats, one registry:

* :func:`to_prometheus` — the text exposition format scrapers expect
  (``# HELP`` / ``# TYPE`` + sample lines; histograms exported as
  summaries with ``quantile`` labels);
* :func:`to_jsonl` — one JSON object per line under the
  ``repro.metrics/1`` schema.  Deterministic by construction: sorted
  instruments, virtual timestamps only, so the same seed produces a
  byte-identical dump;
* :func:`to_html` — a single self-contained page (inline CSS + SVG, no
  external assets) combining the instrument tables with the latency
  attribution and utilization timeline from
  :mod:`repro.obs.attribution`.

All three accept any registry; the null registry just exports nothing.
"""

from __future__ import annotations

import html as _html
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.attribution import (
    attribute_records,
    sfs_accounting,
    utilization_timeline,
)
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


# ----------------------------------------------------------------------
# HTML report
# ----------------------------------------------------------------------
_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 70em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.8em; }
table { border-collapse: collapse; margin: 0.6em 0; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.6em; text-align: right; }
th { background: #f0f0f0; } td:first-child, th:first-child { text-align: left; }
.muted { color: #777; font-size: 0.85em; }
svg { border: 1px solid #ddd; background: #fafafa; }
"""


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    head = "".join(f"<th>{_html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_html.escape(str(c))}</td>" for c in row)
        + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def _sparkline(series: Sequence[Tuple[int, float]], width: int = 640,
               height: int = 80, y_max: Optional[float] = None) -> str:
    series = list(series)
    if not series:
        return "<p class=muted>no samples for a timeline</p>"
    ys = [v for _, v in series]
    top = y_max if y_max is not None else max(ys)
    if top is None or top <= 0:
        top = 1.0
    if len(series) == 1:
        y = height - min(ys[0], top) / top * height
        return (
            f'<svg width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
            f'<circle cx="2.0" cy="{y:.1f}" r="2.5" fill="#3366cc"/></svg>'
        )
    xs = [ts for ts, _ in series]
    x0, x1 = xs[0], xs[-1]
    span = (x1 - x0) or 1
    pts = " ".join(
        f"{(x - x0) / span * width:.1f},"
        f"{height - min(y, top) / top * height:.1f}"
        for x, y in series
    )
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline points="{pts}" fill="none" stroke="#3366cc" '
        f'stroke-width="1.5"/></svg>'
    )


#: public name — the explorer's ``<noscript>`` fallback reuses this
sparkline = _sparkline


def _fmt_quantiles(inst) -> str:
    if not inst.count:
        return "-"
    return ", ".join(
        f"p{q * 100:g}={inst.quantile(q):,.0f}" for q in inst.quantiles)


def to_html(registry, records: Optional[Sequence[object]] = None,
            n_cores: int = 0, title: str = "repro metrics report") -> str:
    """One self-contained HTML page: instruments + attribution."""
    parts: List[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_html.escape(title)}</h1>",
    ]

    if records:
        parts.append("<h2>Where did the latency go</h2>")
        br = attribute_records(records)
        rows = []
        for cls in ("short", "long", "all"):
            b = br[cls]
            if not b.n:
                continue
            rows.append(
                [b.label, b.n]
                + [f"{b.mean(c) / 1e3:,.1f} ({b.share(c):.0%})"
                   for c in ("queue", "run", "block", "wait", "overhead")]
                + [f"{b.end_to_end / b.n / 1e3:,.1f}"]
            )
        parts.append(_table(
            ["class", "n", "queue (ms)", "run (ms)", "block (ms)",
             "wait (ms)", "overhead (ms)", "e2e (ms)"], rows))
        parts.append("<p class=muted>mean per request; share of "
                     "end-to-end latency in parentheses</p>")

    util = utilization_timeline(registry, n_cores) if n_cores else []
    if util:
        parts.append("<h2>Machine utilization</h2>")
        parts.append(_sparkline(util, y_max=1.0))
        mean_util = sum(v for _, v in util) / len(util)
        parts.append(f"<p class=muted>mean {mean_util:.1%} over "
                     f"{len(util)} samples (virtual time)</p>")

    sfs = sfs_accounting(registry) if registry.enabled else {}
    if sfs:
        parts.append("<h2>SFS boost/demote accounting</h2>")
        parts.append(_table(["counter", "value"],
                            [(k, f"{v:,}" if isinstance(v, int) else v)
                             for k, v in sfs.items()]))

    counters, gauges, histograms = [], [], []
    for inst in registry:
        label = inst.name + _label_suffix(inst.labels)
        if inst.kind == "counter":
            counters.append((label, f"{inst.value:,}"))
        elif inst.kind == "gauge":
            gauges.append((label, inst.last,
                           inst.min if inst.min is not None else "-",
                           inst.max if inst.max is not None else "-",
                           inst.samples))
        else:
            histograms.append((label, inst.count, f"{inst.mean:,.1f}",
                               _fmt_quantiles(inst)))
    if counters:
        parts.append("<h2>Counters</h2>")
        parts.append(_table(["name", "total"], counters))
    if histograms:
        parts.append("<h2>Histograms</h2>")
        parts.append(_table(["name", "count", "mean", "quantiles"],
                            histograms))
    if gauges:
        parts.append("<h2>Gauges</h2>")
        parts.append(_table(["name", "last", "min", "max", "samples"],
                            gauges))

    parts.append("</body></html>")
    return "".join(parts)


def write_html(path: str, registry,
               records: Optional[Sequence[object]] = None,
               n_cores: int = 0, title: str = "repro metrics report") -> None:
    with open(path, "w") as fh:
        fh.write(to_html(registry, records=records, n_cores=n_cores,
                         title=title))
