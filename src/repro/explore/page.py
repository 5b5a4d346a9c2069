"""Explorer page assembly: RunBundle documents -> one offline HTML.

The page is a static skeleton (header, stat tiles, fault notes, slowest
tables, provenance) rendered server-side, plus placeholder panels the
inline script hydrates into canvases: per-lane timeline swimlanes,
queue-depth and latency-percentile charts sharing one zoomable virtual
time domain.  The bundle documents ride along in a single
``<script type="application/json">`` block; everything else (CSS, JS)
comes from :mod:`repro.explore.assets`, so the output contains no
external references of any kind and is byte-identical for identical
bundles.

``render_diff`` takes two bundles (e.g. cfs vs sfs on the same seed)
and stacks their timelines over shared charts — run A solid, run B
dashed, colour following the series so the A/B comparison reads at a
glance.
"""

from __future__ import annotations

import html as _html
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.explore.assets import CSS, JS
from repro.explore.bundle import RunBundle
from repro.why.blame import flame_icicle

#: fixed palette slots per percentile curve (colour follows the entity)
_PCT_SLOTS = (("p50", 0), ("p90", 2), ("p99", 7))
_MAX_DIFF_QUEUE_LABELS = 4


def _esc(v: object) -> str:
    return _html.escape(str(v), quote=True)


def sparkline(series: Sequence[Tuple[int, float]], width: int = 640,
              height: int = 80, y_max: Optional[float] = None) -> str:
    """A static SVG polyline of ``(ts, value)`` points: the page's
    ``<noscript>`` fallback for the scripted charts."""
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


def _tile(value: str, key: str, sub: str = "") -> str:
    sub_html = f'<div class="sub">{_esc(sub)}</div>' if sub else ""
    return (f'<div class="tile"><div class="v">{_esc(value)}</div>'
            f'<div class="k">{_esc(key)}</div>{sub_html}</div>')


def _tiles(doc: Dict[str, object], prefix: str = "") -> str:
    stats = doc["stats"]
    out = [
        _tile(f"{stats['requests']:,}", prefix + "requests"),
        _tile(f"{float(stats['utilization']):.1%}", prefix + "utilization"),
        _tile(f"{stats['p50_ms']}", prefix + "p50 (ms)"),
        _tile(f"{stats['p99_ms']}", prefix + "p99 (ms)"),
    ]
    if "goodput_fraction" in stats:
        out.append(_tile(f"{float(stats['goodput_fraction']):.1%}",
                         prefix + "goodput"))
    sfs = stats.get("sfs")
    if isinstance(sfs, dict):
        out.append(_tile(f"{sfs['promoted']:,}", prefix + "SFS promoted",
                         f"{sfs['finished_in_slice']:,} done in slice"))
    return '<div class="tiles">' + "".join(out) + "</div>"


def _fault_note(doc: Dict[str, object]) -> str:
    faults = doc["faults"]
    windows = faults.get("windows") or []
    stragglers = faults.get("stragglers") or []
    marks = faults.get("marks") or []
    if not (windows or stragglers or marks):
        return ""
    bits: List[str] = []
    if windows:
        spans = ", ".join(
            f"host {h} down {d / 1e3:,.0f}-{u / 1e3:,.0f} ms"
            for h, d, u in windows[:6])
        more = f" (+{len(windows) - 6} more)" if len(windows) > 6 else ""
        bits.append(f'<span class="fault-note">{_esc(spans + more)}</span>')
    if stragglers:
        slow = ", ".join(f"host {h} at {s}x" for h, s in stragglers[:6])
        bits.append(_esc(f"stragglers: {slow}"))
    if marks:
        bits.append(_esc(f"{len(marks):,} fault/retry/shed events "
                         f"(markers above the lanes)"))
    return f'<p class="muted">{" · ".join(bits)}</p>'


def _timeline_section(doc: Dict[str, object], idx: int,
                      heading: str) -> str:
    notes: List[str] = []
    if doc.get("pool_overflow"):
        notes.append(f"{doc['pool_overflow']:,} pool slices beyond the "
                     f"packed lanes (see the pool gauge)")
    if doc.get("merge_rounds"):
        notes.append(f"dense regions coalesced "
                     f"({doc['merge_rounds']} rounds) — zoom for detail")
    note_html = (f'<p class="hint">{_esc("; ".join(notes))}</p>'
                 if notes else "")
    return (
        f"<section><h2>{_esc(heading)}</h2>"
        f'<div class="panel"><div data-timeline="{idx}"></div>'
        f"{note_html}</div>"
        f"{_fault_note(doc)}</section>"
    )


def _legend(entries: Sequence[Dict[str, object]]) -> str:
    items = []
    for e in entries:
        style = f"background:var(--s{int(e['slot']) + 1})"
        cls = "sw"
        if e.get("dash"):
            cls = "sw dash"
            style = f"border-color:var(--s{int(e['slot']) + 1})"
        items.append(f'<span><span class="{cls}" style="{style}"></span>'
                     f"{_esc(e['label'])}</span>")
    return '<div class="legend">' + "".join(items) + "</div>"


def _chart_panel(heading: str, spec: Dict[str, object],
                 legend: Sequence[Dict[str, object]]) -> str:
    attr = _esc(json.dumps(spec, sort_keys=True, separators=(",", ":")))
    return (f'<div class="panel"><h2>{_esc(heading)}</h2>'
            f'<div data-chart="{attr}"></div>'
            f"{_legend(legend)}</div>")


def _queue_chart(docs: Sequence[Dict[str, object]]) -> str:
    # colour follows the series *label*, run B only changes the dash
    labels: List[str] = []
    for doc in docs:
        for qs in doc["queue_series"]:
            if qs["label"] not in labels:
                labels.append(str(qs["label"]))
    labels = labels[:_MAX_DIFF_QUEUE_LABELS]
    series: List[Dict[str, object]] = []
    legend: List[Dict[str, object]] = []
    diff = len(docs) > 1
    for run_i, doc in enumerate(docs):
        tag = f"{'AB'[run_i]} · " if diff else ""
        for key, qs in enumerate(doc["queue_series"]):
            if qs["label"] not in labels:
                continue
            slot = labels.index(str(qs["label"]))
            entry = {"label": tag + str(qs["label"]), "slot": slot,
                     "run": run_i, "src": "queue", "key": key,
                     "dash": run_i > 0}
            series.append(entry)
            legend.append(entry)
    if not series:
        return ""
    return _chart_panel("Queue depth over virtual time",
                        {"series": series, "log": False, "unit": ""},
                        legend)


def _pct_chart(docs: Sequence[Dict[str, object]]) -> str:
    series: List[Dict[str, object]] = []
    diff = len(docs) > 1
    for run_i in range(len(docs)):
        tag = f"{'AB'[run_i]} · " if diff else ""
        for key, slot in _PCT_SLOTS:
            entry = {"label": tag + key, "slot": slot, "run": run_i,
                     "src": "pcts", "key": key, "dash": run_i > 0}
            series.append(entry)
    return _chart_panel(
        "Turnaround percentiles by finish time (ms, log scale)",
        {"series": series, "log": True, "unit": "ms"}, series)


def _slowest_table(doc: Dict[str, object], heading: str) -> str:
    rows = doc.get("slowest") or []
    if not rows:
        return ""
    body = "".join(
        "<tr>"
        f"<td>{req_id}</td><td class=l>{_esc(name)}</td>"
        f"<td class=l>{_esc(app)}</td>"
        f"<td>{arrival / 1e3:,.1f}</td><td>{dispatch / 1e3:,.1f}</td>"
        f"<td>{finish / 1e3:,.1f}</td>"
        f"<td>{(finish - dispatch) / 1e3:,.1f}</td>"
        f"<td class=l>{_esc(status)}</td><td>{attempts}</td></tr>"
        for req_id, name, app, arrival, dispatch, finish, status, attempts
        in rows)
    return (
        f"<details><summary>{_esc(heading)} ({len(rows)} requests)"
        f"</summary><table><tr><th>req</th><th class=l>function</th>"
        f"<th class=l>app</th><th>arrival (ms)</th><th>dispatch (ms)</th>"
        f"<th>finish (ms)</th><th>turnaround (ms)</th>"
        f"<th class=l>status</th><th>tries</th></tr>"
        f"{body}</table></details>")


def _counters_panel(doc: Dict[str, object], heading: str) -> str:
    counters = doc.get("counters") or {}
    if not counters:
        return ""
    body = "".join(
        f"<tr><td class=l>{_esc(k)}</td><td>{counters[k]:,}</td></tr>"
        for k in sorted(counters))
    return (f"<details><summary>{_esc(heading)}</summary>"
            f"<table><tr><th class=l>counter</th><th>total</th></tr>"
            f"{body}</table></details>")


def _fmt_ms(us: int) -> str:
    return f"{us / 1e3:,.3f}"


def _why_request_details(why: Dict[str, object]) -> str:
    reqs = why.get("requests") or {}
    parts: List[str] = []
    for rid in why.get("top_blamed", []):
        r = reqs.get(str(rid))
        if r is None:
            continue
        body = "".join(
            "<tr>"
            f"<td>{seg['t0'] / 1e3:,.3f}</td><td>{seg['dur'] / 1e3:,.3f}</td>"
            f"<td class=l>{_esc(seg['kind'])}</td>"
            f"<td class=l>{_esc(seg.get('reason', ''))}</td>"
            f"<td>{seg.get('core', '')}</td>"
            f"<td class=l>{_esc(seg.get('actor', ''))}</td></tr>"
            for seg in r.get("segments", ()))
        share = r["blamed_us"] / max(1, r["end_to_end_us"])
        parts.append(
            f"<details><summary>req {rid} · {_esc(r['name'])} "
            f"({_esc(r['status'])}) — blamed {_fmt_ms(r['blamed_us'])} of "
            f"{_fmt_ms(r['end_to_end_us'])} ms ({share:.0%})</summary>"
            f"<table><tr><th>t0 (ms)</th><th>dur (ms)</th>"
            f"<th class=l>kind</th><th class=l>reason</th><th>core</th>"
            f"<th class=l>decision-maker</th></tr>{body}</table>"
            f"</details>")
    return "".join(parts)


def _why_section(doc: Dict[str, object], heading: str) -> str:
    """Blame attribution panel: flamegraph + per-request drill-down."""
    why = doc.get("why")
    if not why:
        return ""
    totals = why["totals"]
    e2e = max(1, int(totals["end_to_end_us"]))
    blamed = int(totals["blamed_us"])
    kinds = " · ".join(f"{k} {_fmt_ms(v)} ms"
                       for k, v in sorted(totals["by_kind"].items(),
                                          key=lambda kv: -kv[1]))
    actor_rows = sorted(totals.get("by_actor", {}).items(),
                        key=lambda kv: (-kv[1], kv[0]))
    actors = ""
    if actor_rows:
        body = "".join(
            f"<tr><td class=l>{_esc(a)}</td><td>{_fmt_ms(v)}</td></tr>"
            for a, v in actor_rows)
        actors = (f"<details><summary>blame by audited decision-maker"
                  f"</summary><table><tr><th class=l>decision-maker</th>"
                  f"<th>blamed (ms)</th></tr>{body}</table></details>")
    return (
        f"<section><h2>{_esc(heading)}</h2>"
        f'<div class="panel">'
        f'<p class="muted">blamed {blamed / 1e6:,.3f}s of '
        f"{e2e / 1e6:,.3f}s total end-to-end ({blamed / e2e:.1%}) — "
        f"root &rarr; kind &rarr; reason &rarr; app</p>"
        f"{flame_icicle(why['flame'])}"
        f'<p class="hint">{_esc(kinds) if kinds else "no blamed time"}</p>'
        f"{actors}{_why_request_details(why)}"
        f"</div></section>")


def _why_diff_table(docs: Sequence[Dict[str, object]]) -> str:
    """Aligned per-request blame comparison (same request, both runs)."""
    if len(docs) != 2:
        return ""
    why_a, why_b = docs[0].get("why"), docs[1].get("why")
    if not why_a or not why_b:
        return ""
    from repro.why.blame import blame_diff

    rows = blame_diff(why_a, why_b)
    if not rows:
        return ""
    body_parts = []
    for r in rows[:40]:
        a = "—" if r["a_blamed_us"] is None else _fmt_ms(r["a_blamed_us"])
        b = "—" if r["b_blamed_us"] is None else _fmt_ms(r["b_blamed_us"])
        if r["delta_us"] is None:
            delta = "—"
        else:
            cls = ("why-delta-up" if r["delta_us"] > 0 else
                   "why-delta-down" if r["delta_us"] < 0 else "")
            sign = "+" if r["delta_us"] > 0 else ""
            delta = (f'<span class="{cls}">{sign}'
                     f"{_fmt_ms(r['delta_us'])}</span>")
        body_parts.append(
            f"<tr><td>{r['req_id']}</td><td class=l>{_esc(r['name'])}</td>"
            f"<td>{a}</td><td>{b}</td><td>{delta}</td></tr>")
    return (
        f"<details open><summary>same request, both runs — blame diff "
        f"(A = {_esc(docs[0]['label'])}, B = {_esc(docs[1]['label'])})"
        f"</summary><table><tr><th>req</th><th class=l>function</th>"
        f"<th>A blamed (ms)</th><th>B blamed (ms)</th>"
        f"<th>&Delta; (ms)</th></tr>{''.join(body_parts)}</table>"
        f"</details>")


def _provenance_panel(doc: Dict[str, object], heading: str) -> str:
    pretty = json.dumps(doc["provenance"], sort_keys=True, indent=1)
    return (f"<details><summary>{_esc(heading)}</summary>"
            f"<pre>{_esc(pretty)}</pre></details>")


def _noscript(docs: Sequence[Dict[str, object]]) -> str:
    parts = ["<noscript>"]
    for doc in docs:
        for qs in doc["queue_series"][:1]:
            parts.append(
                f'<div class="panel"><p class="muted">'
                f"{_esc(doc['label'])} · {_esc(qs['label'])} "
                f"(static fallback — the timeline needs scripting)</p>"
                f"{sparkline([(p[0], p[1]) for p in qs['pts']])}</div>")
    parts.append("</noscript>")
    return "".join(parts)


def _embed_json(docs: Sequence[Dict[str, object]]) -> str:
    payload = json.dumps({"runs": list(docs)}, sort_keys=True,
                         separators=(",", ":"))
    # a task name containing "</script>" must not terminate the block
    return ('<script type="application/json" id="explore-data">'
            + payload.replace("</", "<\\/") + "</script>")


def _render(docs: Sequence[Dict[str, object]], title: str) -> str:
    diff = len(docs) > 1
    meta_bits = []
    for i, doc in enumerate(docs):
        tag = f"{'AB'[i]} = " if diff else ""
        meta_bits.append(f"{tag}{doc['label']} · {doc['n_cores']} cores · "
                         f"{float(doc['stats']['sim_time_ms']):,.0f} ms "
                         f"virtual")
    parts = [
        "<!doctype html><html lang=\"en\"><head><meta charset=\"utf-8\">",
        '<meta name="viewport" content="width=device-width, initial-scale=1">',
        f"<title>{_esc(title)}</title>",
        f"<style>{CSS}</style></head><body><main>",
        f"<h1>{_esc(title)}</h1>",
        f'<p class="meta">{_esc(" · ".join(meta_bits))}</p>',
        '<p class="hint">drag to pan · wheel to zoom · double-click to '
        "reset · hover for details</p>",
    ]
    for i, doc in enumerate(docs):
        prefix = f"{'AB'[i]} · " if diff else ""
        parts.append(_tiles(doc, prefix))
    for i, doc in enumerate(docs):
        heading = (f"Timeline {'AB'[i]} — {doc['label']}" if diff
                   else f"Timeline — {doc['label']}")
        parts.append(_timeline_section(doc, i, heading))
    charts = _queue_chart(docs) + _pct_chart(docs)
    parts.append(f'<div class="charts">{charts}</div>')
    for i, doc in enumerate(docs):
        heading = (f"Why {'AB'[i]} — blame attribution ({doc['label']})"
                   if diff else "Why — blame attribution")
        parts.append(_why_section(doc, heading))
    parts.append(_why_diff_table(docs))
    for i, doc in enumerate(docs):
        prefix = f"{'AB'[i]} {doc['label']}: " if diff else ""
        parts.append(_slowest_table(doc, f"{prefix}slowest requests"))
        parts.append(_counters_panel(doc, f"{prefix}metric counters"))
        parts.append(_provenance_panel(doc, f"{prefix}provenance"))
    parts.append(_noscript(docs))
    parts.append(_embed_json(docs))
    parts.append(f"<script>{JS}</script>")
    parts.append("</main></body></html>")
    return "".join(parts)


def render_explorer(bundle: RunBundle, title: Optional[str] = None) -> str:
    """One run -> one self-contained interactive HTML page."""
    return _render([bundle.data],
                   title or f"run explorer — {bundle.data.get('title')}")


def render_diff(bundle_a: RunBundle, bundle_b: RunBundle,
                title: Optional[str] = None) -> str:
    """Two runs -> one page with aligned timelines and overlaid curves."""
    return _render(
        [bundle_a.data, bundle_b.data],
        title or f"run diff — {bundle_a.label} vs {bundle_b.label}")


def write_explorer(path: Union[str, Path],
                   bundles: Sequence[RunBundle],
                   title: Optional[str] = None,
                   metrics=None) -> int:
    """Render one or two bundles to ``path``; returns bytes written.

    When a live metrics registry is passed, the build is counted in the
    ``repro_explorer_builds_total`` / ``repro_explorer_bytes``
    instruments.
    """
    if not 1 <= len(bundles) <= 2:
        raise ValueError(f"explorer takes 1 or 2 bundles, got {len(bundles)}")
    if len(bundles) == 1:
        text = render_explorer(bundles[0], title=title)
    else:
        text = render_diff(bundles[0], bundles[1], title=title)
    data = text.encode("utf-8")
    Path(path).write_bytes(data)
    if metrics is not None and getattr(metrics, "enabled", False):
        metrics.counter("repro_explorer_builds_total",
                        help="explorer pages generated").inc()
        metrics.gauge("repro_explorer_bytes", unit="bytes",
                      help="size of the last explorer page").set(len(data))
    return len(data)
