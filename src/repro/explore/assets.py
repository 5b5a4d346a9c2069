"""Static CSS/JS for the run explorer page.

Everything here is a constant string inlined into the generated HTML —
no CDN, no external fonts, no network references — so the artifact is
fully offline and byte-identical across builds.  The palette is the
validated categorical/status set from the dataviz reference (light and
dark steps selected per surface, CVD-checked in adjacent order); lane
and series colours are assigned by *slot*, never cycled.
"""

from __future__ import annotations

from repro.why.blame import ICICLE_CSS

#: categorical palette slots (fixed order — the CVD-safety mechanism)
CATEGORICAL_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                     "#e87ba4", "#008300", "#4a3aa7")
CATEGORICAL_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500",
                    "#d55181", "#008300", "#9085e9")

CSS = """
:root {
  color-scheme: light dark;
  --surface: #fcfcfb; --plane: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --critical: #d03b3b; --serious: #ec835a;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --plane: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  }
}
* { box-sizing: border-box; }
body { font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
       margin: 0; background: var(--plane); color: var(--ink); }
main { max-width: 76em; margin: 0 auto; padding: 1.2em 1.4em 3em; }
h1 { font-size: 1.3em; margin: 0.4em 0 0.1em; }
h2 { font-size: 1.05em; margin: 1.6em 0 0.5em; }
.meta { color: var(--ink-2); font-size: 0.9em; }
.muted { color: var(--muted); font-size: 0.85em; }
.tiles { display: flex; flex-wrap: wrap; gap: 0.7em; margin: 1em 0; }
.tile { background: var(--surface); border: 1px solid var(--border);
        border-radius: 8px; padding: 0.55em 0.95em; min-width: 7.5em; }
.tile .v { font-size: 1.35em; }
.tile .k { color: var(--ink-2); font-size: 0.78em; }
.tile .sub { color: var(--muted); font-size: 0.75em; }
.panel { background: var(--surface); border: 1px solid var(--border);
         border-radius: 8px; padding: 0.7em 0.9em; margin: 0.6em 0; }
canvas { display: block; width: 100%; }
.legend { display: flex; flex-wrap: wrap; gap: 1em; margin-top: 0.35em;
          font-size: 0.82em; color: var(--ink-2); }
.legend .sw { display: inline-block; width: 10px; height: 10px;
              border-radius: 2px; margin-right: 0.35em;
              vertical-align: -1px; }
.legend .dash { height: 0; width: 14px; border-top: 2px dashed;
                border-radius: 0; vertical-align: 2px; }
.charts { display: grid; grid-template-columns: 1fr 1fr; gap: 0.8em; }
@media (max-width: 900px) { .charts { grid-template-columns: 1fr; } }
#tip { position: fixed; pointer-events: none; display: none; z-index: 9;
       background: var(--surface); border: 1px solid var(--border);
       border-radius: 6px; box-shadow: 0 2px 10px rgba(0,0,0,0.18);
       padding: 0.45em 0.6em; font-size: 0.82em; max-width: 24em; }
#tip .t { color: var(--muted); }
table { border-collapse: collapse; font-size: 0.86em; margin: 0.4em 0;
        font-variant-numeric: tabular-nums; }
th, td { border-bottom: 1px solid var(--grid); padding: 0.25em 0.7em;
         text-align: right; }
th { color: var(--ink-2); font-weight: 600; }
td:first-child, th:first-child, td.l, th.l { text-align: left; }
details { margin: 0.7em 0; }
summary { cursor: pointer; color: var(--ink-2); }
pre { background: var(--surface); border: 1px solid var(--border);
      border-radius: 6px; padding: 0.7em; overflow-x: auto;
      font-size: 0.8em; }
.hint { color: var(--muted); font-size: 0.78em; margin: 0.25em 0 0; }
.fault-note { color: var(--critical); font-size: 0.85em; }
noscript .panel svg { border: none; background: transparent; }
""" + ICICLE_CSS + """\
.why-delta-up { color: var(--critical, #e66767); }
.why-delta-down { color: var(--s3, #199e70); }
"""

JS = r"""
'use strict';
(function () {
  var DOC = JSON.parse(document.getElementById('explore-data').textContent);
  var RUNS = DOC.runs;
  var T_MAX = 1;
  RUNS.forEach(function (r) { T_MAX = Math.max(T_MAX, r.sim_time_us); });

  // ---- theme -------------------------------------------------------
  function cssVar(name) {
    return getComputedStyle(document.documentElement)
      .getPropertyValue(name).trim();
  }
  var THEME = {};
  function loadTheme() {
    THEME.surface = cssVar('--surface');
    THEME.grid = cssVar('--grid');
    THEME.axis = cssVar('--axis');
    THEME.ink = cssVar('--ink');
    THEME.ink2 = cssVar('--ink-2');
    THEME.muted = cssVar('--muted');
    THEME.critical = cssVar('--critical');
    THEME.serious = cssVar('--serious');
    THEME.slots = [1, 2, 3, 4, 5, 6, 7, 8].map(function (i) {
      return cssVar('--s' + i);
    });
  }
  loadTheme();

  // ---- shared view state (zoom domain + cursor) --------------------
  var view = { t0: 0, t1: T_MAX };
  var cursorT = null;
  var components = [];
  function renderAll() {
    components.forEach(function (c) { c.render(); });
  }
  function setDomain(t0, t1) {
    var span = Math.max(1000, t1 - t0);
    t0 = Math.max(0, Math.min(t0, T_MAX - span));
    view.t0 = t0; view.t1 = Math.min(T_MAX, t0 + span);
    renderAll();
  }
  function setCursor(t) { cursorT = t; renderAll(); }

  var tip = document.createElement('div');
  tip.id = 'tip';
  document.body.appendChild(tip);
  function showTip(evt, html) {
    tip.style.display = 'block';
    tip.innerHTML = html;
    var x = Math.min(evt.clientX + 14, window.innerWidth - tip.offsetWidth - 8);
    var y = Math.min(evt.clientY + 14, window.innerHeight - tip.offsetHeight - 8);
    tip.style.left = x + 'px'; tip.style.top = y + 'px';
  }
  function hideTip() { tip.style.display = 'none'; }

  function fmtT(us) {
    if (us >= 1e6) { return (us / 1e6).toFixed(2) + ' s'; }
    if (us >= 1e3) { return (us / 1e3).toFixed(1) + ' ms'; }
    return us.toFixed(0) + ' µs';
  }
  function fmtV(v) {
    if (v >= 1000) { return v.toFixed(0); }
    if (v >= 10) { return v.toFixed(1); }
    return v.toFixed(2);
  }
  function esc(s) {
    return String(s).replace(/&/g, '&amp;').replace(/</g, '&lt;');
  }

  function setupCanvas(cv, height) {
    var dpr = window.devicePixelRatio || 1;
    var w = cv.clientWidth || cv.parentNode.clientWidth || 800;
    cv.width = Math.round(w * dpr);
    cv.height = Math.round(height * dpr);
    cv.style.height = height + 'px';
    var ctx = cv.getContext('2d');
    ctx.setTransform(dpr, 0, 0, dpr, 0, 0);
    return { ctx: ctx, w: w, h: height };
  }

  function timeTicks(t0, t1, n) {
    var span = t1 - t0, raw = span / n;
    var mag = Math.pow(10, Math.floor(Math.log10(raw)));
    var step = mag;
    [1, 2, 5, 10].some(function (m) {
      if (m * mag >= raw) { step = m * mag; return true; }
      return false;
    });
    var out = [], t = Math.ceil(t0 / step) * step;
    for (; t <= t1; t += step) { out.push(t); }
    return out;
  }

  // ---- pan/zoom + cursor wiring ------------------------------------
  function wireTimeAxis(cv, gutter, onHover) {
    function toT(evt) {
      var r = cv.getBoundingClientRect();
      var x = evt.clientX - r.left - gutter;
      var w = r.width - gutter;
      return view.t0 + Math.max(0, Math.min(1, x / w)) * (view.t1 - view.t0);
    }
    cv.addEventListener('wheel', function (evt) {
      evt.preventDefault();
      var t = toT(evt);
      var f = evt.deltaY > 0 ? 1.25 : 0.8;
      var span = (view.t1 - view.t0) * f;
      setDomain(t - (t - view.t0) * f, t - (t - view.t0) * f + span);
    }, { passive: false });
    var drag = null;
    cv.addEventListener('mousedown', function (evt) {
      drag = { x: evt.clientX, t0: view.t0, t1: view.t1, moved: false };
    });
    window.addEventListener('mousemove', function (evt) {
      if (!drag) { return; }
      var r = cv.getBoundingClientRect();
      var dt = (drag.x - evt.clientX) / (r.width - gutter) * (drag.t1 - drag.t0);
      if (Math.abs(drag.x - evt.clientX) > 2) { drag.moved = true; }
      setDomain(drag.t0 + dt, drag.t1 + dt);
    });
    window.addEventListener('mouseup', function () { drag = null; });
    cv.addEventListener('dblclick', function () { setDomain(0, T_MAX); });
    cv.addEventListener('mousemove', function (evt) {
      if (drag) { hideTip(); return; }
      setCursor(toT(evt));
      onHover(evt, toT(evt));
    });
    cv.addEventListener('mouseleave', function () {
      setCursor(null); hideTip();
    });
  }

  // ---- timeline swimlanes ------------------------------------------
  var GUTTER = 74, LANE_H = 16, LANE_GAP = 3, AXIS_H = 22, MARK_H = 12;

  function appColor(run, appIdx) {
    if (appIdx < 0) { return THEME.muted; }
    if (appIdx >= run.apps.length - (run.apps.length > 7 ? 1 : 0) &&
        run.apps[appIdx] === 'other') { return THEME.muted; }
    return THEME.slots[appIdx % 7];
  }

  function makeTimeline(el, run) {
    var lanes = run.lanes;
    var marks = run.faults.marks || [];
    var markRow = marks.length ? MARK_H + 2 : 0;
    var height = markRow + lanes.length * (LANE_H + LANE_GAP) + AXIS_H + 4;
    var cv = document.createElement('canvas');
    el.appendChild(cv);
    var comp = {};

    function laneY(i) { return markRow + 2 + i * (LANE_H + LANE_GAP); }

    comp.render = function () {
      var s = setupCanvas(cv, height);
      var ctx = s.ctx, w = s.w;
      var plotW = w - GUTTER;
      var t0 = view.t0, span = view.t1 - view.t0;
      function X(t) { return GUTTER + (t - t0) / span * plotW; }
      ctx.clearRect(0, 0, w, height);

      // fault windows behind everything
      (run.faults.windows || []).forEach(function (win) {
        var x0 = Math.max(GUTTER, X(win[1])), x1 = Math.min(w, X(win[2]));
        if (x1 <= GUTTER || x0 >= w) { return; }
        ctx.globalAlpha = 0.13;
        ctx.fillStyle = THEME.critical;
        ctx.fillRect(x0, 0, x1 - x0, height - AXIS_H);
        ctx.globalAlpha = 1;
      });

      lanes.forEach(function (lane, i) {
        var y = laneY(i);
        ctx.fillStyle = THEME.surface;
        ctx.fillRect(GUTTER, y, plotW, LANE_H);
        ctx.strokeStyle = THEME.grid;
        ctx.lineWidth = 1;
        ctx.strokeRect(GUTTER + 0.5, y + 0.5, plotW - 1, LANE_H - 1);
        var segs = lane.segs;
        for (var j = 0; j < segs.length; j++) {
          var g = segs[j];
          var sx = X(g[0]), ex = X(g[0] + g[1]);
          if (ex < GUTTER || sx > w) { continue; }
          sx = Math.max(sx, GUTTER); ex = Math.min(ex, w);
          ctx.fillStyle = g.length === 6 ? THEME.axis
            : appColor(run, g[3]);
          ctx.fillRect(sx, y + 2, Math.max(ex - sx, 0.75), LANE_H - 4);
        }
        ctx.fillStyle = THEME.ink2;
        ctx.font = '10px system-ui, sans-serif';
        ctx.textAlign = 'left'; ctx.textBaseline = 'middle';
        ctx.fillText(lane.id, 4, y + LANE_H / 2);
      });

      // fault instant markers
      if (marks.length) {
        ctx.fillStyle = THEME.serious;
        marks.forEach(function (m) {
          var x = X(m[0]);
          if (x < GUTTER || x > w) { return; }
          ctx.beginPath();
          ctx.moveTo(x, MARK_H);
          ctx.lineTo(x - 3.2, 1); ctx.lineTo(x + 3.2, 1);
          ctx.closePath(); ctx.fill();
        });
      }

      // axis
      var ay = height - AXIS_H;
      ctx.strokeStyle = THEME.axis;
      ctx.beginPath();
      ctx.moveTo(GUTTER, ay + 0.5); ctx.lineTo(w, ay + 0.5); ctx.stroke();
      ctx.fillStyle = THEME.muted;
      ctx.font = '10px system-ui, sans-serif';
      ctx.textAlign = 'center'; ctx.textBaseline = 'top';
      timeTicks(t0, view.t1, 8).forEach(function (t) {
        var x = X(t);
        if (x < GUTTER) { return; }
        ctx.strokeStyle = THEME.grid;
        ctx.beginPath(); ctx.moveTo(x, ay); ctx.lineTo(x, ay + 4);
        ctx.stroke();
        ctx.fillText(fmtT(t), x, ay + 6);
      });

      // shared cursor
      if (cursorT !== null && cursorT >= t0 && cursorT <= view.t1) {
        ctx.strokeStyle = THEME.muted;
        ctx.globalAlpha = 0.55;
        ctx.beginPath();
        ctx.moveTo(X(cursorT) + 0.5, 0);
        ctx.lineTo(X(cursorT) + 0.5, ay);
        ctx.stroke();
        ctx.globalAlpha = 1;
      }
    };

    function hitSeg(lane, t) {
      var segs = lane.segs, lo = 0, hi = segs.length - 1, best = null;
      while (lo <= hi) {
        var mid = (lo + hi) >> 1;
        if (segs[mid][0] <= t) { best = segs[mid]; lo = mid + 1; }
        else { hi = mid - 1; }
      }
      return (best && t <= best[0] + best[1]) ? best : null;
    }

    wireTimeAxis(cv, GUTTER, function (evt, t) {
      var r = cv.getBoundingClientRect();
      var y = evt.clientY - r.top;
      if (marks.length && y < MARK_H + 2) {
        var span = view.t1 - view.t0;
        var near = marks.filter(function (m) {
          return Math.abs(m[0] - t) < span * 0.004;
        }).slice(0, 6);
        if (near.length) {
          showTip(evt, near.map(function (m) {
            return esc(run.faults.kinds[m[1]]) +
              (m[2] >= 0 ? ' tid ' + m[2] : '') +
              ' <span class=t>@ ' + fmtT(m[0]) + '</span>';
          }).join('<br>'));
          return;
        }
      }
      var i = Math.floor((y - markRow - 2) / (LANE_H + LANE_GAP));
      var lane = lanes[i];
      if (!lane) { hideTip(); return; }
      var g = hitSeg(lane, t);
      if (!g) { hideTip(); return; }
      if (g.length === 6) {
        showTip(evt, '<b>' + g[5] + ' short slices</b> (coalesced)' +
          '<br><span class=t>' + esc(lane.id) + ' · ' +
          fmtT(g[0]) + ' + ' + fmtT(g[1]) + '</span>');
      } else {
        var name = run.tasks[String(g[2])] || ('task ' + g[2]);
        showTip(evt, '<b>' + esc(name) + '</b> · tid ' + g[2] +
          '<br>' + esc(run.apps[g[3]] || '?') + ' · ' +
          esc(run.reasons[g[4]] || '') +
          '<br><span class=t>' + esc(lane.id) + ' · ' +
          fmtT(g[0]) + ' + ' + fmtT(g[1]) + '</span>');
      }
    });
    components.push(comp);
  }

  // ---- generic line chart ------------------------------------------
  var CHART_H = 170, CH_GUTTER = 46;

  function makeChart(el, spec) {
    var cv = document.createElement('canvas');
    el.insertBefore(cv, el.firstChild);
    var comp = {};

    comp.render = function () {
      var s = setupCanvas(cv, CHART_H);
      var ctx = s.ctx, w = s.w;
      var plotW = w - CH_GUTTER, plotH = CHART_H - AXIS_H;
      var t0 = view.t0, span = view.t1 - view.t0;
      function X(t) { return CH_GUTTER + (t - t0) / span * plotW; }
      ctx.clearRect(0, 0, w, CHART_H);

      var vmax = 0, vmin = Infinity;
      spec.series.forEach(function (se) {
        se.pts.forEach(function (p) {
          if (p[1] === null || p[0] < t0 || p[0] > view.t1) { return; }
          if (p[1] > vmax) { vmax = p[1]; }
          if (p[1] < vmin && p[1] > 0) { vmin = p[1]; }
        });
      });
      if (vmax <= 0) { vmax = 1; }
      if (!isFinite(vmin)) { vmin = spec.log ? 0.1 : 0; }
      var y0 = spec.log ? Math.log(Math.max(vmin * 0.8, 1e-3)) : 0;
      var y1 = spec.log ? Math.log(vmax * 1.12) : vmax * 1.08;
      function Y(v) {
        var u = spec.log ? Math.log(Math.max(v, 1e-3)) : v;
        return plotH - (u - y0) / (y1 - y0) * (plotH - 6);
      }

      // grid + y labels
      ctx.font = '10px system-ui, sans-serif';
      ctx.textAlign = 'right'; ctx.textBaseline = 'middle';
      var steps = 4;
      for (var i = 0; i <= steps; i++) {
        var v = spec.log
          ? Math.exp(y0 + (y1 - y0) * i / steps)
          : (y1 * i / steps);
        var y = Y(v);
        ctx.strokeStyle = THEME.grid;
        ctx.beginPath();
        ctx.moveTo(CH_GUTTER, y + 0.5); ctx.lineTo(w, y + 0.5); ctx.stroke();
        ctx.fillStyle = THEME.muted;
        ctx.fillText(fmtV(v), CH_GUTTER - 5, y);
      }

      spec.series.forEach(function (se) {
        ctx.strokeStyle = se.color;
        ctx.lineWidth = 2;
        ctx.setLineDash(se.dash ? [6, 4] : []);
        ctx.beginPath();
        var pen = false;
        se.pts.forEach(function (p) {
          if (p[1] === null) { pen = false; return; }
          var x = X(p[0]), y = Y(p[1]);
          if (x < CH_GUTTER - 2 || x > w + 2) { pen = false; return; }
          if (pen) { ctx.lineTo(x, y); } else { ctx.moveTo(x, y); }
          pen = true;
        });
        ctx.stroke();
        ctx.setLineDash([]);
      });

      // x axis
      var ay = CHART_H - AXIS_H;
      ctx.strokeStyle = THEME.axis;
      ctx.beginPath();
      ctx.moveTo(CH_GUTTER, ay + 0.5); ctx.lineTo(w, ay + 0.5); ctx.stroke();
      ctx.fillStyle = THEME.muted;
      ctx.textAlign = 'center'; ctx.textBaseline = 'top';
      timeTicks(t0, view.t1, 6).forEach(function (t) {
        var x = X(t);
        if (x < CH_GUTTER) { return; }
        ctx.fillText(fmtT(t), x, ay + 6);
      });

      if (cursorT !== null && cursorT >= t0 && cursorT <= view.t1) {
        ctx.strokeStyle = THEME.muted;
        ctx.globalAlpha = 0.55;
        ctx.beginPath();
        ctx.moveTo(X(cursorT) + 0.5, 0); ctx.lineTo(X(cursorT) + 0.5, ay);
        ctx.stroke();
        ctx.globalAlpha = 1;
      }
    };

    wireTimeAxis(cv, CH_GUTTER, function (evt, t) {
      var rows = [];
      spec.series.forEach(function (se) {
        var best = null, bd = Infinity;
        se.pts.forEach(function (p) {
          if (p[1] === null) { return; }
          var d = Math.abs(p[0] - t);
          if (d < bd) { bd = d; best = p; }
        });
        if (best && bd < (view.t1 - view.t0) * 0.06) {
          rows.push('<span class=sw style="background:' + se.color +
            '"></span>' + esc(se.label) + ': <b>' + fmtV(best[1]) +
            '</b>' + (spec.unit ? ' ' + spec.unit : ''));
        }
      });
      if (rows.length) {
        showTip(evt, rows.join('<br>') +
          '<br><span class=t>@ ' + fmtT(t) + '</span>');
      } else { hideTip(); }
    });
    components.push(comp);
  }

  // ---- build components from the DOM skeleton ----------------------
  document.querySelectorAll('[data-timeline]').forEach(function (el) {
    makeTimeline(el, RUNS[Number(el.getAttribute('data-timeline'))]);
  });
  document.querySelectorAll('[data-chart]').forEach(function (el) {
    var spec = JSON.parse(el.getAttribute('data-chart'));
    spec.series.forEach(function (se) {
      se.color = THEME.slots[se.slot % 8];
      var run = RUNS[se.run || 0];
      se.pts = se.src === 'pcts'
        ? run.pcts.t.map(function (t, i) { return [t, run.pcts[se.key][i]]; })
        : run.queue_series[se.key].pts;
    });
    makeChart(el, spec);
  });

  if (window.matchMedia) {
    window.matchMedia('(prefers-color-scheme: dark)')
      .addEventListener('change', function () { loadTheme(); renderAll(); });
  }
  window.addEventListener('resize', renderAll);
  renderAll();
})();
"""
