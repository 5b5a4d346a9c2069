"""Blame aggregation, the ``repro.why/1`` document, and flamegraphs.

Builds on :mod:`repro.why.timeline`: every microsecond of a request's
end-to-end latency is in exactly one segment, so *blame* — time spent
queued, cold-starting, retrying or descheduled rather than running or
doing I/O — is a simple sum, and aggregating it across requests is
exact integer arithmetic (no sampling, no double counting).

Output rules:

* the ``repro.why/1`` JSON is **byte-deterministic**: keyed by
  ``req_id`` only (raw tids are process-global counters and differ
  between runs), serialised with sorted keys and compact separators;
* the flamegraph is a self-contained HTML page — pure-CSS nested divs,
  no script, no external URLs — so it renders offline and diffs
  cleanly.
"""

from __future__ import annotations

import html as _html
import json
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.constants import SHORT_CPU_BOUND_US
from repro.why.timeline import BLAME_KINDS, SEGMENT_KINDS, RequestTimeline

#: schema tag stamped on every why document.
WHY_SCHEMA = "repro.why/1"


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def blame_totals(timelines: Mapping[int, RequestTimeline]) -> dict:
    """Aggregate blamed time by kind, by ``kind/reason`` and by actor."""
    by_kind: Dict[str, int] = {}
    by_reason: Dict[str, int] = {}
    by_actor: Dict[str, int] = {}
    hedged: Dict[str, int] = {}
    total = 0
    e2e = 0
    for tl in timelines.values():
        e2e += tl.end_to_end
        if tl.hedge:
            hedged[tl.hedge] = hedged.get(tl.hedge, 0) + 1
        for seg in tl.segments:
            if seg.kind not in BLAME_KINDS:
                continue
            total += seg.dur
            by_kind[seg.kind] = by_kind.get(seg.kind, 0) + seg.dur
            key = f"{seg.kind}/{seg.reason or '-'}"
            by_reason[key] = by_reason.get(key, 0) + seg.dur
            if seg.actor:
                by_actor[seg.actor] = by_actor.get(seg.actor, 0) + seg.dur
    doc = {
        "blamed_us": total,
        "end_to_end_us": e2e,
        "requests": len(timelines),
        "by_kind": dict(sorted(by_kind.items())),
        "by_reason": dict(sorted(by_reason.items())),
        "by_actor": dict(sorted(by_actor.items())),
    }
    if hedged:  # key only appears in hedged runs (byte-compat)
        doc["hedged"] = dict(sorted(hedged.items()))
    return doc


def latency_by_class(
    timelines: Mapping[int, RequestTimeline],
    records: Iterable,
    short_bound: int = SHORT_CPU_BOUND_US,
) -> Dict[str, dict]:
    """Where the latency went, per function class.

    Splits ``records`` into the paper's *short* / *long* classes at
    ``short_bound`` us of CPU demand (Table I's empty band between the
    400 ms and 1550 ms bins) plus *all*, and sums each class's
    timelines per segment kind: ``{class: {"n", "end_to_end_us",
    "by_kind": {kind: us}}}``.  A class without requests is left out.
    Since every timeline partitions its window, ``by_kind`` sums to
    ``end_to_end_us`` exactly.
    """
    out: Dict[str, dict] = {}
    for rec in records:
        tl = timelines[rec.req_id]
        cls = "short" if rec.cpu_demand < short_bound else "long"
        for key in (cls, "all"):
            row = out.setdefault(key, {
                "n": 0, "end_to_end_us": 0,
                "by_kind": dict.fromkeys(SEGMENT_KINDS, 0)})
            row["n"] += 1
            row["end_to_end_us"] += tl.end_to_end
            for kind, us in tl.by_kind().items():
                row["by_kind"][kind] += us
    return {k: out[k] for k in ("short", "long", "all") if k in out}


def blame_flame(timelines: Mapping[int, RequestTimeline]) -> dict:
    """Deschedule-reason flame tree: root -> kind -> reason -> app.

    Node values are exact integer microseconds; every parent's value is
    the sum of its children (the root is total blamed time), so the
    rendering can size frames proportionally without normalisation.
    """
    tree: Dict[str, Dict[str, Dict[str, int]]] = {}
    for tl in timelines.values():
        for seg in tl.segments:
            if seg.kind not in BLAME_KINDS:
                continue
            reasons = tree.setdefault(seg.kind, {})
            apps = reasons.setdefault(seg.reason or "-", {})
            apps[tl.app] = apps.get(tl.app, 0) + seg.dur

    def _node(name: str, children: List[dict], value: int) -> dict:
        d = {"name": name, "value": value}
        if children:
            d["children"] = children
        return d

    kids = []
    for kind in sorted(tree):
        rkids = []
        for reason in sorted(tree[kind]):
            akids = [
                _node(app, [], us)
                for app, us in sorted(tree[kind][reason].items())
            ]
            rkids.append(_node(reason, akids,
                               sum(c["value"] for c in akids)))
        kids.append(_node(kind, rkids, sum(c["value"] for c in rkids)))
    return _node("blame", kids, sum(c["value"] for c in kids))


# ----------------------------------------------------------------------
# the repro.why/1 document
# ----------------------------------------------------------------------
def build_why_doc(
    timelines: Mapping[int, RequestTimeline],
    top_blamed: int = 10,
) -> dict:
    """Assemble the full ``repro.why/1`` document.

    ``top_blamed`` caps how many per-request drill-downs (full segment
    lists) are embedded; aggregates always cover every request.  Pass
    ``top_blamed <= 0`` to embed all of them.
    """
    order = sorted(
        timelines.values(),
        key=lambda tl: (-tl.blamed_us, tl.req_id),
    )
    keep = order if top_blamed <= 0 else order[:top_blamed]
    requests = {}
    for tl in keep:
        entry = {
            "name": tl.name,
            "app": tl.app,
            "status": tl.status,
            "attempts": tl.attempts,
            "arrival": tl.arrival,
            "finish": tl.finish,
            "end_to_end_us": tl.end_to_end,
            "blamed_us": tl.blamed_us,
            "exact": tl.exact,
            "segments": [s.to_dict() for s in tl.segments],
        }
        if tl.hedge:  # key only appears for hedged requests
            entry["hedge"] = tl.hedge
        requests[str(tl.req_id)] = entry
    return {
        "schema": WHY_SCHEMA,
        "totals": blame_totals(timelines),
        "flame": blame_flame(timelines),
        "top_blamed": [tl.req_id for tl in order[:max(top_blamed, 0) or
                                                 len(order)]],
        "requests": requests,
    }


def why_json(doc: dict) -> str:
    """Canonical byte-deterministic serialisation (sorted, compact)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# ----------------------------------------------------------------------
# flamegraph rendering (pure CSS, self-contained)
# ----------------------------------------------------------------------
#: frame fill per top-level blame kind (anything else gets the default)
FLAME_COLORS = {
    "queue": "#d08770", "coldstart": "#b48ead",
    "retry": "#bf616a", "wait": "#ebcb8b",
}
FLAME_DEFAULT_COLOR = "#81a1c1"

#: frame rules of the icicle markup (the explorer page inlines them
#: too); a page sets the ``--border`` and ``--plane`` colours
ICICLE_CSS = """\
.fg { border: 1px solid var(--border); border-radius: 6px;
      overflow: hidden; margin: 0.4em 0; }
.fg-row { overflow: hidden; clear: both; }
.fg-frame { box-sizing: border-box; float: left; overflow: hidden;
            white-space: nowrap; text-overflow: ellipsis;
            padding: 2px 5px; font-size: 0.78em; font-weight: 600;
            color: #14161b; border-right: 1px solid var(--plane);
            border-top: 1px solid var(--plane); }
.fg-frame span { font-weight: 400; opacity: 0.75; }
.fg-pad { background: transparent !important; border: none !important; }
"""

#: the standalone page around the icicle
_PAGE_CSS = """\
:root{--border:#2a2e38;--plane:#14161b}
body{background:#14161b;color:#d6d9e0;font:13px/1.45 system-ui,sans-serif;
margin:0;padding:24px}
h1{font-size:16px;margin:0 0 4px}
.sub{color:#8a8f9c;margin:0 0 16px}
"""


def _fmt_ms(us: int) -> str:
    return f"{us / 1e3:,.3f} ms"


def flame_icicle(flame: dict) -> str:
    """A flame tree as a pure-CSS icicle (styled by :data:`ICICLE_CSS`).

    Each depth is a row, each node a div whose width is its exact share
    of the root — plain floats and percentage widths, no script, so the
    markup is byte-deterministic.  Both ``repro why --flame`` and the
    explorer's blame panel render it.
    """
    root_val = max(flame.get("value", 0), 1)
    rows: List[List[Tuple[float, float, str, int, str]]] = []

    def _place(node: dict, depth: int, left: float, palette_key: str) -> None:
        # (left%, width%, name, value_us, top-level kind for the colour)
        while len(rows) <= depth:
            rows.append([])
        width = 100.0 * node.get("value", 0) / root_val
        key = palette_key if depth else ""
        rows[depth].append((left, width, node["name"],
                            node.get("value", 0), key))
        cursor = left
        for child in node.get("children", ()):
            ck = child["name"] if depth == 0 else palette_key
            _place(child, depth + 1, cursor, ck)
            cursor += 100.0 * child.get("value", 0) / root_val

    _place(flame, 0, 0.0, "")
    parts = ['<div class="fg">']
    for row in rows:
        parts.append('<div class="fg-row">')
        cursor = 0.0
        for left, width, name, value, key in sorted(row):
            pad = left - cursor
            if pad > 1e-9:
                parts.append(f'<div class="fg-frame fg-pad" '
                             f'style="width:{pad:.4f}%">&nbsp;</div>')
            color = FLAME_COLORS.get(key, FLAME_DEFAULT_COLOR)
            parts.append(
                f'<div class="fg-frame" style="width:{width:.4f}%;'
                f'background:{color}" title="{_html.escape(name)}: '
                f'{value}us">{_html.escape(name)} '
                f"<span>{_fmt_ms(value)}</span></div>")
            cursor = left + width
        parts.append("</div>")
    parts.append("</div>")
    return "".join(parts)


def render_flamegraph(flame: dict, title: str = "blame flamegraph") -> str:
    """Render a flame tree as one self-contained HTML page: the
    :func:`flame_icicle` with every style inline (offline-safe by
    construction)."""
    return "".join((
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">",
        f"<title>{_html.escape(title)}</title>",
        f"<style>{_PAGE_CSS}{ICICLE_CSS}</style></head><body>",
        f"<h1>{_html.escape(title)}</h1>",
        f"<p class=\"sub\">total blamed: {_fmt_ms(flame.get('value', 0))}"
        " &mdash; width is exact share of blame; "
        "root &rarr; kind &rarr; reason &rarr; app</p>",
        flame_icicle(flame),
        "</body></html>\n",
    ))


def blame_diff(doc_a: dict, doc_b: dict) -> List[dict]:
    """Align two why documents request-by-request for a policy diff.

    Returns rows for every ``req_id`` embedded in *either* document
    (``blamed_us`` of ``None`` marks a side that didn't embed it),
    sorted by the larger absolute blame first — the "same request,
    both policies" comparison surface.
    """
    ra: Dict[str, dict] = doc_a.get("requests", {})
    rb: Dict[str, dict] = doc_b.get("requests", {})
    rows = []
    for rid in sorted(set(ra) | set(rb), key=lambda s: int(s)):
        a, b = ra.get(rid), rb.get(rid)
        rows.append({
            "req_id": int(rid),
            "name": (a or b).get("name", ""),
            "a_blamed_us": None if a is None else a["blamed_us"],
            "b_blamed_us": None if b is None else b["blamed_us"],
            "delta_us": (b["blamed_us"] - a["blamed_us"])
            if a is not None and b is not None else None,
        })
    rows.sort(key=lambda r: (-max(r["a_blamed_us"] or 0,
                                  r["b_blamed_us"] or 0), r["req_id"]))
    return rows
