"""Command-line interface.

The subcommands cover the common flows without writing Python::

    python -m repro run --scheduler sfs --load 1.0 --requests 5000
    python -m repro compare --schedulers cfs sfs srtf --load 0.9
    python -m repro replay --requests 1000000 --checkpoint-dir ckpt/
    python -m repro replay --requests 1000000 --checkpoint-dir ckpt/ --resume
    python -m repro trace out.json --scheduler sfs --requests 500
    python -m repro experiment fig6 headline ext-eevdf
    python -m repro experiment chaos headline --out results/ --resume
    python -m repro experiment chaos --out results/ --workers 4
    python -m repro check --quick
    python -m repro fuzz --budget 200 --seed 0 --out findings/ --workers 4
    python -m repro fuzz replay tests/corpus/case.json
    python -m repro pool replay results/quarantine.json
    python -m repro report out.html --bundle runA/
    python -m repro explore runA/ runB/ -o diff.html
    python -m repro list

``run`` and ``compare`` generate a FaaSBench workload and print the
duration/RTE summary; both accept ``--trace PATH`` to also capture the
structured event stream (Chrome trace-event JSON for ``.json`` paths —
open in ui.perfetto.dev — or JSONL for ``.jsonl``).  ``trace`` is the
capture-first spelling of ``run``; ``experiment`` executes registry
entries at their scaled configurations and prints the rendered paper
artifact.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

import numpy as np

from repro.analysis.report import format_cdf_probes, format_table
from repro.analysis.validate import (
    ALL_CHECKS,
    CHECK_SEED,
    render,
    run_battery,
    run_check,
)
from repro.experiments.registry import REGISTRY
from repro.experiments.runner import RunConfig, run_workload
from repro.faas.driver import ENGINE_SCHEDULERS, SCHEDULERS
from repro.machine.base import MachineParams
from repro.metrics.stats import improvement_summary, percentile
from repro.workload.faasbench import OPENLAMBDA_MIX, FaaSBench, FaaSBenchConfig


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--requests", type=int, default=5000)
    p.add_argument("--cores", type=int, default=12)
    p.add_argument("--load", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iat", choices=("poisson", "uniform", "bursty"),
                   default="poisson")
    p.add_argument("--io-fraction", type=float, default=0.0)
    p.add_argument("--mix", choices=("fib", "openlambda"), default="fib")
    p.add_argument("--engine", choices=("fluid", "discrete"), default="fluid")
    p.add_argument("--ctx-cost", type=int, default=500,
                   help="context-switch cost in us (0 = ideal hardware)")
    p.add_argument("--workload", metavar="PATH",
                   help="replay a saved workload instead of generating one")
    p.add_argument("--save-workload", metavar="PATH",
                   help="save the generated workload for later replay")
    p.add_argument("--trace", metavar="PATH", dest="trace",
                   help="record a structured trace (.json = Chrome "
                        "trace-event for Perfetto, .jsonl = JSON lines)")
    p.add_argument("--metrics", metavar="PATH", dest="metrics",
                   help="dump aggregated metrics (.jsonl = repro.metrics/1, "
                        ".prom/.txt = Prometheus text)")
    p.add_argument("--gauge-interval", type=int, default=10_000,
                   help="trace gauge sampling period in us")
    p.add_argument("--faults", metavar="PLAN.json",
                   help="inject faults from a FaultPlan JSON file")
    p.add_argument("--timeout", type=int, metavar="US",
                   help="per-request deadline in us (expired = killed)")
    p.add_argument("--retries", type=int, metavar="N",
                   help="retry failed attempts up to N total attempts")
    p.add_argument("--shed", type=int, metavar="N",
                   help="shed arrivals beyond N outstanding requests")
    p.add_argument("--invariants", action="store_const", const=True,
                   default=None,
                   help="force runtime invariant checking on for this run "
                        "(default: follow REPRO_INVARIANTS)")


def _workload(args):
    from repro.workload.io import load_workload, save_workload

    if getattr(args, "workload", None):
        return load_workload(args.workload)
    mix = OPENLAMBDA_MIX if args.mix == "openlambda" else (("fib", 1.0),)
    cfg = FaaSBenchConfig(
        n_requests=args.requests,
        n_cores=args.cores,
        target_load=args.load,
        iat_kind=args.iat,
        io_fraction=args.io_fraction,
        app_mix=mix,
    )
    wl = FaaSBench(cfg, seed=args.seed).generate()
    if getattr(args, "save_workload", None):
        save_workload(wl, args.save_workload)
        print(f"saved workload to {args.save_workload}")
    return wl


def _trace_path_for(base: str, scheduler: str, multi: bool) -> str:
    """Per-scheduler artifact path: ``out.json`` -> ``out-sfs.json``."""
    if not multi:
        return base
    root, dot, ext = base.rpartition(".")
    if not dot:
        return f"{base}-{scheduler}"
    return f"{root}-{scheduler}.{ext}"


def _fault_config(args) -> dict:
    """RunConfig kwargs for the ``--faults/--timeout/--retries/--shed``
    flags (empty dict = nominal run, exact pre-fault code path)."""
    from repro.faults import AdmissionControl, FaultPlan, RetryPolicy

    kwargs = {}
    if getattr(args, "faults", None):
        kwargs["faults"] = FaultPlan.load(args.faults)
    if getattr(args, "timeout", None) is not None:
        kwargs["timeout"] = args.timeout
    if getattr(args, "retries", None) is not None:
        kwargs["retry"] = RetryPolicy(max_attempts=args.retries, seed=args.seed)
    if getattr(args, "shed", None) is not None:
        kwargs["admission"] = AdmissionControl(max_outstanding=args.shed)
    return kwargs


def _check_parent(path: str, what: str) -> None:
    parent = os.path.dirname(path)
    if parent and not os.path.isdir(parent):
        # fail before the (possibly long) run, not at write time
        print(f"error: {what} directory does not exist: {parent}",
              file=sys.stderr)
        raise SystemExit(2)


def _run(args, scheduler: str, trace_path: Optional[str] = None,
         registry=None, recorder=None, audit=None):
    from repro.trace import TraceRecorder, write_trace

    machine = MachineParams(n_cores=args.cores, ctx_switch_cost=args.ctx_cost)
    cfg = RunConfig(scheduler=scheduler, engine=args.engine, machine=machine,
                    invariants=getattr(args, "invariants", None),
                    **_fault_config(args))
    if trace_path:
        _check_parent(trace_path, "trace")
        if recorder is None:
            recorder = TraceRecorder(gauge_interval=args.gauge_interval)
    metrics_path = getattr(args, "metrics", None)
    if metrics_path and metrics_path.endswith(".html"):
        print("error: --metrics writes .jsonl or .prom/.txt; for an HTML "
              "view of a run use `repro report PATH.html`", file=sys.stderr)
        raise SystemExit(2)
    if registry is None and metrics_path:
        from repro.obs import MetricsRegistry

        _check_parent(metrics_path, "metrics")
        registry = MetricsRegistry(gauge_interval=args.gauge_interval)
    res = run_workload(_workload(args), cfg, trace=recorder, metrics=registry,
                       audit=audit)
    if trace_path:
        write_trace(trace_path, recorder, res.manifest)
        print(f"wrote {len(recorder)} trace events to {trace_path}")
    if metrics_path and registry is not None:
        from repro.obs.export import write_metrics

        write_metrics(metrics_path, registry)
        print(f"wrote {len(registry)} instruments to {metrics_path}")
    return res


def cmd_run(args) -> int:
    t0 = time.time()
    res = _run(args, args.scheduler, trace_path=args.trace)
    t = res.turnarounds
    rows = [
        ("requests", len(res.records)),
        ("utilization", f"{res.utilization:.2f}"),
        ("p50 (ms)", f"{percentile(t, 50) / 1e3:.1f}"),
        ("p99 (ms)", f"{percentile(t, 99) / 1e3:.1f}"),
        ("mean (ms)", f"{t.mean() / 1e3:.1f}"),
        ("median RTE", f"{np.median(res.rtes):.3f}"),
        ("wall time (s)", f"{time.time() - t0:.1f}"),
    ]
    if res.sfs_stats is not None:
        s = res.sfs_stats
        rows += [
            ("SFS promoted", s.promoted),
            ("SFS finished in slice", s.completed_in_filter),
            ("SFS demoted (slice)", s.demoted_slice),
            ("SFS bypassed (overload)", s.bypassed_overload),
        ]
    if "fault_stats" in res.meta:
        from repro.metrics.faults import fault_summary

        fs = fault_summary(res)
        rows += [
            ("goodput (r/s)", f"{fs.goodput_rps:.1f}"),
            ("goodput fraction", f"{fs.goodput_fraction:.1%}"),
            ("retries/request", f"{fs.retries_per_request:.3f}"),
            ("shed", fs.shed),
            ("abandoned (failed+timeout)", fs.failed + fs.timeout),
        ]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.scheduler} on {args.cores} cores, "
                             f"load {args.load:.0%}"))
    return 0


def cmd_compare(args) -> int:
    multi = len(args.schedulers) > 1
    runs = {
        s: _run(args, s,
                trace_path=_trace_path_for(args.trace, s, multi)
                if args.trace else None)
        for s in args.schedulers
    }
    print(format_cdf_probes(
        {name: r.turnarounds for name, r in runs.items()},
        title=f"execution duration (ms), load {args.load:.0%}, "
              f"{args.cores} cores",
    ))
    if "cfs" in runs and "sfs" in runs:
        s = improvement_summary(runs["cfs"].turnarounds, runs["sfs"].turnarounds)
        print(
            f"\nSFS vs CFS: {s['fraction_improved']:.1%} improved "
            f"(x{s['mean_speedup_improved']:.1f} mean), rest "
            f"x{s['mean_slowdown_rest']:.2f} slower"
        )
    return 0


def cmd_trace(args) -> int:
    """Run one scheduler with tracing on and write the artifact."""
    args.trace = args.output
    rc = cmd_run(args)
    if rc == 0 and args.summary:
        import json

        with open(args.output) as fh:
            if args.output.endswith(".jsonl"):
                kinds = {}
                for line in fh:
                    rec = json.loads(line)
                    if rec.get("type") == "event":
                        k = rec["kind"]
                        kinds[k] = kinds.get(k, 0) + 1
            else:
                doc = json.load(fh)
                kinds = {}
                phase_names = {"C": "counter", "M": "metadata"}
                for ev in doc["traceEvents"]:
                    cat = ev.get("cat") or phase_names.get(
                        ev.get("ph"), ev.get("ph", "?")
                    )
                    kinds[cat] = kinds.get(cat, 0) + 1
        rows = sorted(kinds.items())
        print(format_table(["kind", "events"], rows, title="trace summary"))
    return rc


def cmd_replay(args) -> int:
    """Streaming long-horizon replay (repro.stream)."""
    import json

    from repro.sim.units import SEC
    from repro.stream import (
        CheckpointError,
        CheckpointStore,
        MemoryBudgetExceeded,
        MemoryWatchdog,
        ReplayConfig,
        StreamReplayDriver,
        StreamSummary,
        rss_kb,
    )
    from repro.workload.stream import RequestStream, StreamConfig

    # fail on unwritable destinations before the (long) run, exit 2
    for path, what in ((args.output, "replay output"),
                       (args.spill, "spill"),
                       (args.stats, "stats")):
        if path:
            _check_parent(path, what)
    if args.checkpoint_dir:
        _check_parent(os.path.normpath(args.checkpoint_dir), "checkpoint")
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2

    checkpointer = (CheckpointStore(args.checkpoint_dir)
                    if args.checkpoint_dir else None)
    watchdog = (MemoryWatchdog(args.mem_budget * 1024)
                if args.mem_budget else None)
    # checkpoint ticks exist to serve the checkpointer and the
    # watchdog; with neither, drop them from the event stream entirely
    every = None
    if checkpointer is not None or watchdog is not None:
        every = int(args.checkpoint_every * SEC)

    scfg = StreamConfig(
        n_requests=args.requests,
        n_cores=args.cores,
        target_load=args.load,
        source=args.source,
        iat_kind=args.iat,
        io_fraction=args.io_fraction,
    )
    rcfg = ReplayConfig(
        scheduler=args.scheduler,
        engine=args.engine,
        machine=MachineParams(n_cores=args.cores),
        horizon=int(args.horizon * SEC) if args.horizon else None,
        checkpoint_every=every,
    )
    driver = StreamReplayDriver(
        RequestStream(scfg, seed=args.seed),
        rcfg,
        aggregator=StreamSummary(spill_path=args.spill),
        checkpointer=checkpointer,
        watchdog=watchdog,
    )
    if args.resume:
        try:
            driver = checkpointer.load(expect_config=driver.config_dict())
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if watchdog is not None:
            # RSS is process state: budget the new process, keep nothing
            driver.watchdog = watchdog
        print(f"resumed from t={driver.resumed_from}us "
              f"({driver.done} requests done)", file=sys.stderr)

    wall0 = time.perf_counter()
    try:
        doc = driver.run()
    except MemoryBudgetExceeded as exc:
        report = dict(exc.report)
        report["wall_s"] = round(time.perf_counter() - wall0, 3)
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.stats:
            with open(args.stats, "w") as fh:
                fh.write(text)
        print(f"error: {exc}", file=sys.stderr)
        if report.get("checkpoint"):
            print(f"checkpoint saved: {report['checkpoint']}",
                  file=sys.stderr)
        return 1
    wall = time.perf_counter() - wall0

    text = StreamSummary.to_json(doc)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    # run stats are wall-clock/host facts, deliberately OUTSIDE the
    # deterministic summary document
    stats = {
        "wall_s": round(wall, 3),
        "rss_kb": rss_kb(),
        "peak_rss_kb": (driver.watchdog.peak_kb
                        if driver.watchdog is not None else rss_kb()),
        "requests": doc["requests"],
        "events_executed": doc["events_executed"],
        "checkpoints_written": driver.checkpoints_written,
        "resumed_from_us": driver.resumed_from,
    }
    if args.stats:
        with open(args.stats, "w") as fh:
            fh.write(json.dumps(stats, sort_keys=True, indent=2) + "\n")
    print(f"{doc['requests']} requests in {wall:.1f}s wall "
          f"({stats['rss_kb']} KiB RSS, "
          f"{driver.checkpoints_written} checkpoints)", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    """Run once with every sink on; print where the latency went and
    write the explorer (``.html``) or the metrics dump (any other
    suffix)."""
    from repro.obs import MetricsRegistry
    from repro.obs.export import write_metrics
    from repro.trace import TraceRecorder
    from repro.why import AuditLog, build_timelines, latency_by_class

    _check_parent(args.output, "report")
    if args.bundle:
        # the bundle path may itself name a directory to create
        _check_parent(os.path.normpath(args.bundle), "bundle")
    registry = MetricsRegistry(gauge_interval=args.gauge_interval)
    recorder = TraceRecorder(gauge_interval=args.gauge_interval)
    audit = AuditLog()
    t0 = time.time()
    res = _run(args, args.scheduler, trace_path=args.trace,
               registry=registry, recorder=recorder, audit=audit)
    classes = latency_by_class(
        build_timelines(res.records, recorder, audit=audit), res.records)
    kinds = [k for k in classes["all"]["by_kind"]
             if classes["all"]["by_kind"][k]]
    rows = []
    for cls, row in classes.items():
        e2e = max(1, row["end_to_end_us"])
        rows.append([cls, row["n"]] + [
            f"{row['by_kind'][k] / row['n'] / 1e3:.1f} "
            f"({row['by_kind'][k] / e2e:.0%})" for k in kinds
        ] + [f"{row['end_to_end_us'] / row['n'] / 1e3:.1f}"])
    print(format_table(
        ["class", "n"] + [f"{k} (ms)" for k in kinds] + ["e2e (ms)"], rows,
        title="latency by segment kind (mean per request, share of e2e)"))
    html = args.output.endswith(".html")
    if args.bundle or html:
        from repro.explore import RunBundle, write_explorer

        bundle = RunBundle.capture(res, recorder, metrics=registry,
                                   audit=audit)
        if args.bundle:
            print(f"\nwrote run bundle to {bundle.save(args.bundle)}")
    if html:
        n = write_explorer(args.output, [bundle], metrics=registry)
        print(f"\nwrote explorer to {args.output} ({n / 1e6:.2f} MB, "
              f"{time.time() - t0:.1f}s)")
    else:
        write_metrics(args.output, registry)
        print(f"\nwrote {args.output} ({len(registry)} instruments, "
              f"{time.time() - t0:.1f}s)")
    return 0


def cmd_explore(args) -> int:
    """Render saved run bundles into one interactive offline page."""
    from repro.explore import RunBundle, write_explorer

    if len(args.bundles) > 2:
        print("error: explore takes one bundle (single view) or two "
              "(A/B diff)", file=sys.stderr)
        return 2
    _check_parent(args.output, "explorer")
    bundles = []
    for path in args.bundles:
        try:
            bundles.append(RunBundle.load(path))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    n = write_explorer(args.output, bundles, title=args.title)
    labels = " vs ".join(b.label for b in bundles)
    print(f"wrote explorer ({labels}) to {args.output} ({n / 1e6:.2f} MB)")
    return 0


def _why_rows(req: dict) -> List[tuple]:
    """Segment table rows from one stored why-document request entry."""
    rows = []
    for seg in req.get("segments", ()):
        rows.append((
            seg["t0"], seg["dur"], seg["kind"], seg.get("reason", ""),
            seg.get("core", ""), seg.get("actor", ""),
        ))
    return rows


def cmd_why(args) -> int:
    """Per-request critical-path attribution (repro.why)."""
    from repro.why import (AuditLog, build_timelines, build_why_doc,
                           render_flamegraph, why_json)

    if args.output:
        _check_parent(args.output, "why report")
    if args.flame:
        _check_parent(args.flame, "flamegraph")

    if args.bundle:
        from repro.explore import RunBundle

        try:
            bundle = RunBundle.load(args.bundle)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        doc = bundle.why
        if doc is None:
            print("error: bundle has no why section: it predates "
                  "repro.why; re-capture the run or use the fresh-run "
                  "form (repro why --scheduler ...)", file=sys.stderr)
            return 2
        label = bundle.label
    else:
        from repro.trace import TraceRecorder

        machine = MachineParams(n_cores=args.cores,
                                ctx_switch_cost=args.ctx_cost)
        cfg = RunConfig(scheduler=args.scheduler, engine=args.engine,
                        machine=machine,
                        invariants=getattr(args, "invariants", None),
                        **_fault_config(args))
        recorder = TraceRecorder(gauge_interval=args.gauge_interval)
        audit = AuditLog()
        res = run_workload(_workload(args), cfg, trace=recorder,
                           audit=audit)
        timelines = build_timelines(res.records, recorder, audit=audit)
        # embed every request when a specific one is asked for, so the
        # drill-down never misses; aggregates are identical either way
        top = 0 if args.request is not None else args.top_blamed
        doc = build_why_doc(timelines, top_blamed=top)
        label = f"{args.scheduler}/{args.engine}"

    totals = doc["totals"]
    inexact = [rid for rid, r in doc["requests"].items()
               if not r.get("exact", True)]
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(why_json(doc))
        print(f"wrote {args.output} ({doc['schema']})")
    if args.flame:
        with open(args.flame, "w") as fh:
            fh.write(render_flamegraph(doc["flame"],
                                       title=f"blame — {label}"))
        print(f"wrote {args.flame}")

    if args.request is not None:
        req = doc["requests"].get(str(args.request))
        if req is None:
            print(f"error: request {args.request} is not in this "
                  f"document (only the top {len(doc['requests'])} blamed "
                  "requests are embedded); raise --top-blamed when "
                  "capturing, or use the fresh-run form",
                  file=sys.stderr)
            return 2
        print(f"request {args.request} ({req['name']}, app={req['app']}) "
              f"— {req['status']}, {req['attempts']} attempt(s)")
        print(f"end-to-end {req['end_to_end_us'] / 1e3:.3f} ms, blamed "
              f"{req['blamed_us'] / 1e3:.3f} ms "
              f"({req['blamed_us'] / max(1, req['end_to_end_us']):.1%})")
        print(format_table(
            ["t0 (us)", "dur (us)", "kind", "reason", "core", "actor"],
            _why_rows(req), title="causal timeline"))
        return 0

    e2e = max(1, totals["end_to_end_us"])
    print(f"why: {label} — {totals['requests']} requests")
    print(f"blamed {totals['blamed_us'] / 1e6:.3f}s of "
          f"{e2e / 1e6:.3f}s end-to-end "
          f"({totals['blamed_us'] / e2e:.1%})")
    kinds = " | ".join(f"{k} {v / 1e6:.3f}s"
                       for k, v in totals["by_kind"].items())
    print(f"by kind: {kinds or '-'}")
    reason_rows = sorted(totals["by_reason"].items(),
                         key=lambda kv: (-kv[1], kv[0]))
    if reason_rows:
        print(format_table(
            ["kind/reason", "blamed (ms)"],
            [(k, f"{v / 1e3:.3f}") for k, v in reason_rows],
            title="blame by deschedule reason"))
    actor_rows = sorted(totals["by_actor"].items(),
                        key=lambda kv: (-kv[1], kv[0]))
    if actor_rows:
        print(format_table(
            ["decision-maker", "blamed (ms)"],
            [(k, f"{v / 1e3:.3f}") for k, v in actor_rows],
            title="blame by audited decision-maker"))
    top_rows = []
    for rid in doc["top_blamed"][:args.top_blamed]:
        r = doc["requests"].get(str(rid))
        if r is None:
            continue
        top_rows.append((
            rid, r["name"], r["app"], r["status"],
            f"{r['blamed_us'] / 1e3:.3f}",
            f"{r['end_to_end_us'] / 1e3:.3f}",
            f"{r['blamed_us'] / max(1, r['end_to_end_us']):.0%}",
        ))
    if top_rows:
        print(format_table(
            ["req", "name", "app", "status", "blamed (ms)", "e2e (ms)",
             "share"],
            top_rows, title=f"top {len(top_rows)} blamed requests "
                            "(drill down with --request ID)"))
    if inexact:
        print(f"warning: {len(inexact)} request(s) failed the exact-sum "
              f"invariant: {inexact[:5]}", file=sys.stderr)
        return 1
    return 0


def cmd_experiment(args) -> int:
    unknown = [e for e in args.ids if e not in REGISTRY]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(REGISTRY))}", file=sys.stderr)
        return 2
    if args.resume and not args.out:
        print("error: --resume requires --out DIR", file=sys.stderr)
        return 2
    if args.chaos_kill and args.workers == 0:
        print("error: --chaos-kill needs a worker process to kill "
              "(--workers N, N >= 1)", file=sys.stderr)
        return 2
    if args.chaos_kill and not args.out:
        print("error: --chaos-kill needs a pool sweep (--out DIR) whose "
              "item it kills", file=sys.stderr)
        return 2
    if args.out:
        rc = _experiment_pool_sweep(args)
        if rc == 2:
            return rc
    else:
        rc = 0
        for exp_id in args.ids:
            entry = REGISTRY[exp_id]
            t0 = time.time()
            result = entry.run_scaled(seed=args.seed, workers=args.workers)
            print(f"\n=== {exp_id}: {entry.title} "
                  f"({time.time() - t0:.1f}s) ===")
            print(entry.render(result))
    if args.explore_points:
        _emit_point_explorers(args)
    return rc


def _emit_point_explorers(args) -> None:
    """``--explore-points DIR``: per-point interactive explorers for
    every requested experiment that exposes ``emit_explorers``."""
    os.makedirs(args.explore_points, exist_ok=True)
    for exp_id in args.ids:
        module = REGISTRY[exp_id].module
        if not hasattr(module, "emit_explorers"):
            continue
        paths = module.emit_explorers(
            args.explore_points, module.Config.scaled(), seed=args.seed)
        print(f"{exp_id}: wrote {len(paths)} explorer page(s) to "
              f"{args.explore_points}")


def _experiment_pool_sweep(args) -> int:
    """``--out DIR`` sweep: cell-granular pool items for shardable
    experiments (e.g. every chaos grid cell), whole-experiment items
    otherwise, all under one :func:`repro.pool.run_pool` call with
    ``--workers`` processes (0 = inline).  Each merged artifact's
    manifest config is ``{"exp_id", "seed"}``, and the tree is the same
    bytes at every worker count.
    """
    from repro.experiments.artifacts import ArtifactStore
    from repro.pool import PoolConfig, run_pool
    from repro.pool.tasks import experiment_item, shardable_items

    store = ArtifactStore(args.out)
    registry = None
    if args.metrics:
        from repro.obs import MetricsRegistry

        _check_parent(args.metrics, "metrics")
        registry = MetricsRegistry()

    items = []
    configs = {}
    sharded = {}  # exp_id -> (module, scaled config, ordered item ids)
    known = set()  # every item id of the sweep, resumed ones included
    n_resumed = 0
    for exp_id in args.ids:
        entry = REGISTRY[exp_id]
        exp_cfg = {"exp_id": exp_id, "seed": args.seed}
        if entry.shardable:
            scaled = entry.module.Config.scaled()
            shards = shardable_items(exp_id, scaled, args.seed)
            known.update(item_id for item_id, _ in shards)
            # the merged artifact is written here, not by the pool, so
            # only here can its manifest let the whole grid be skipped
            if args.resume and store.verify(exp_id, exp_cfg):
                n_resumed += 1
                print(f"  [skip] {exp_id} (artifact verifies)")
                continue
            ids = []
            for item_id, payload in shards:
                items.append((item_id, payload))
                configs[item_id] = {"exp_id": exp_id, "shard": item_id,
                                    "seed": args.seed}
                ids.append(item_id)
            sharded[exp_id] = (entry.module, scaled, ids)
        else:
            known.add(exp_id)
            items.append((exp_id, {"exp_id": exp_id, "seed": args.seed}))
            configs[exp_id] = exp_cfg
    if args.chaos_kill and args.chaos_kill not in known:
        print(f"error: --chaos-kill {args.chaos_kill}: no such item in "
              f"this sweep (items: {', '.join(sorted(known))})",
              file=sys.stderr)
        return 2

    report = run_pool(
        items,
        experiment_item,
        PoolConfig(workers=args.workers, max_retries=args.max_retries,
                   item_seconds=args.watchdog, chaos_kill=args.chaos_kill),
        store=store,
        config_for=configs.__getitem__,
        resume=args.resume,
        quarantine_path=args.quarantine,
        metrics=registry,
        progress=print,
    )
    result_of = dict(zip((item_id for item_id, _ in items), report.results))
    for exp_id, (module, scaled, ids) in sharded.items():
        texts = [result_of[i] for i in ids]
        if all(t is not None for t in texts):
            store.write(exp_id, module.render_shards(texts, scaled),
                        {"exp_id": exp_id, "seed": args.seed})

    if registry is not None:
        from repro.obs.export import write_metrics

        write_metrics(args.metrics, registry)
        print(f"wrote {len(registry)} instruments to {args.metrics}")
    print(f"\nsweep: {report.n_ok} ok, "
          f"{report.n_skipped + n_resumed} resumed, "
          f"{report.n_retried} retried, "
          f"{len(report.quarantined)} quarantined")
    if report.quarantined:
        for o in report.quarantined:
            print(f"  {o.item_id}: {o.errors[-1] if o.errors else '?'}",
                  file=sys.stderr)
        print(f"  quarantine report: {report.quarantine_path} "
              f"(replay with `repro pool replay`)", file=sys.stderr)
    return 1 if report.quarantined else 0


def cmd_pool(args) -> int:
    """``repro pool replay REPORT.json [--only ITEM]``: re-run
    quarantined items single-process, where a debugger can reach."""
    from repro.pool import replay_quarantine

    try:
        results = replay_quarantine(
            args.report, only=args.only,
            progress=lambda line: print(line, file=sys.stderr))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not results:
        print("no matching quarantined items", file=sys.stderr)
        return 2
    dirty = False
    for item_id, ok, detail in results:
        print(f"{item_id}: {'clean' if ok else detail}")
        dirty = dirty or not ok
    return 1 if dirty else 0


def cmd_check(args) -> int:
    """Differential validation: fluid vs discrete, scheduler vs oracle."""
    reports = run_check(quick=args.quick, seed=args.seed)
    for report in reports:
        print(report.render())
    failed = [r for r in reports if not r.ok]
    print(f"\n{len(reports) - len(failed)}/{len(reports)} comparisons clean")
    return 1 if failed else 0


def cmd_fuzz(args) -> int:
    """Seeded chaos fuzzing: campaign mode, or ``fuzz replay CASE``."""
    if getattr(args, "fuzz_command", None) == "replay":
        return _fuzz_replay(args)
    from repro.fuzz import run_campaign

    if args.out:
        # same parent check the file-writing subcommands get: the out
        # dir itself is created, but a missing grandparent fails fast
        _check_parent(os.path.normpath(args.out), "fuzz output")
    registry = None
    if args.metrics:
        from repro.obs import MetricsRegistry

        _check_parent(args.metrics, "metrics")
        registry = MetricsRegistry()
    summary = run_campaign(
        budget=args.budget,
        seed=args.seed,
        out_dir=args.out,
        metrics=registry,
        case_seconds=args.watchdog,
        progress=lambda line: print(line, file=sys.stderr),
        workers=args.workers,
    )
    # stdout carries only the deterministic summary: two campaigns with
    # the same (budget, seed) on the same tree print identical bytes
    print(summary.render())
    if registry is not None:
        from repro.obs.export import write_metrics

        write_metrics(args.metrics, registry)
        print(f"wrote {len(registry)} instruments to {args.metrics}",
              file=sys.stderr)
    # a case that kept crashing is a failure too, not a clean campaign
    return 1 if summary.findings or summary.quarantined else 0


def _fuzz_replay(args) -> int:
    """Replay saved reproducers; exit 1 if any violation reproduces."""
    from repro.fuzz import ReproCase

    reproduced = False
    for path in args.cases:
        try:
            case = ReproCase.load(path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        violation = case.replay()
        expect = "expected" if case.expect_violation else "NOT expected"
        if violation is None:
            print(f"{path}: clean (violation was {expect})")
        else:
            reproduced = True
            print(f"{path}: {violation.render()} (violation was {expect})")
    return 1 if reproduced else 0


def cmd_validate(args) -> int:
    """Every row of the case table, or the named ones."""
    results = run_battery(args.checks or None)
    print(render(results))
    return 0 if all(r.passed for r in results) else 1


def _worker_count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _row_name(name: str) -> str:
    if name not in ALL_CHECKS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from "
            + ", ".join(map(repr, ALL_CHECKS)) + ")")
    return name


def cmd_list(_args) -> int:
    rows = [(eid, e.title, e.module.__name__) for eid, e in REGISTRY.items()]
    print(format_table(["id", "title", "module"], rows,
                       title="available experiments"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scheduler on a workload")
    p_run.add_argument("--scheduler", choices=SCHEDULERS, default="sfs")
    _add_workload_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="replay one workload under many")
    p_cmp.add_argument("--schedulers", nargs="+", choices=SCHEDULERS,
                       default=["cfs", "sfs", "srtf"])
    _add_workload_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_tr = sub.add_parser("trace", help="run once with tracing and export")
    p_tr.add_argument("output", metavar="PATH",
                      help="trace artifact (.json = Chrome, .jsonl = lines)")
    p_tr.add_argument("--scheduler", choices=SCHEDULERS, default="sfs")
    p_tr.add_argument("--summary", action="store_true",
                      help="print per-kind event counts after writing")
    _add_workload_args(p_tr)
    p_tr.set_defaults(func=cmd_trace)

    p_rp = sub.add_parser(
        "replay",
        help="streaming long-horizon replay with checkpoint/resume")
    p_rp.add_argument("--requests", type=int, default=1_000_000,
                      help="stream length (requests)")
    p_rp.add_argument("--horizon", type=float, metavar="SEC",
                      help="stop admitting arrivals after this much "
                           "virtual time (in-flight work still drains)")
    p_rp.add_argument("--source", choices=("faasbench", "azure"),
                      default="faasbench")
    p_rp.add_argument("--scheduler", choices=ENGINE_SCHEDULERS, default="sfs")
    p_rp.add_argument("--engine", choices=("fluid", "discrete"),
                      default="fluid")
    p_rp.add_argument("--cores", type=int, default=12)
    p_rp.add_argument("--load", type=float, default=0.8)
    p_rp.add_argument("--iat", choices=("poisson", "uniform"),
                      default="poisson")
    p_rp.add_argument("--io-fraction", type=float, default=0.0)
    p_rp.add_argument("--seed", type=int, default=0)
    p_rp.add_argument("--checkpoint-every", type=float, default=60.0,
                      metavar="SEC", help="virtual-time checkpoint "
                      "interval (needs --checkpoint-dir or --mem-budget)")
    p_rp.add_argument("--checkpoint-dir", metavar="DIR",
                      help="directory for the in-run checkpoint")
    p_rp.add_argument("--resume", action="store_true",
                      help="restore from --checkpoint-dir and continue")
    p_rp.add_argument("--mem-budget", type=int, metavar="MIB",
                      help="abort (replayably) past this RSS budget")
    p_rp.add_argument("--output", metavar="PATH",
                      help="summary JSON destination (default: stdout)")
    p_rp.add_argument("--spill", metavar="PATH",
                      help="spill per-request records to this JSONL file")
    p_rp.add_argument("--stats", metavar="PATH",
                      help="write wall-clock/RSS run stats JSON here")
    p_rp.set_defaults(func=cmd_replay)

    p_rep = sub.add_parser("report", help="run with every sink on, print "
                                          "where the latency went")
    p_rep.add_argument("output", metavar="PATH",
                       help="report artifact (.html = the interactive run "
                            "explorer, .jsonl = repro.metrics/1, "
                            ".prom/.txt = Prometheus)")
    p_rep.add_argument("--scheduler", choices=SCHEDULERS, default="sfs")
    p_rep.add_argument("--bundle", metavar="PATH",
                       help="also save the repro.explore/1 run bundle "
                            "(diff it later with `repro explore A B`)")
    _add_workload_args(p_rep)
    p_rep.set_defaults(func=cmd_report, metrics=None)

    p_ex = sub.add_parser(
        "explore",
        help="render saved run bundles as an interactive HTML explorer")
    p_ex.add_argument("bundles", nargs="+", metavar="BUNDLE",
                      help="bundle.json file or run directory; give two "
                           "for an aligned A/B diff (e.g. cfs vs sfs)")
    p_ex.add_argument("-o", "--output", metavar="PATH",
                      default="explore.html",
                      help="output HTML path (default: %(default)s)")
    p_ex.add_argument("--title", help="page title override")
    p_ex.set_defaults(func=cmd_explore)

    p_why = sub.add_parser(
        "why",
        help="per-request critical-path attribution and deschedule-"
             "reason flamegraphs")
    p_why.add_argument("bundle", nargs="?", metavar="RUN",
                       help="saved bundle.json / run directory with an "
                            "embedded why section; omit to run a fresh "
                            "workload (workload flags below)")
    p_why.add_argument("--request", type=int, metavar="ID",
                       help="drill into one request's causal timeline")
    p_why.add_argument("--top-blamed", type=int, default=10, metavar="N",
                       help="how many worst-blamed requests to show / "
                            "embed (default: %(default)s)")
    p_why.add_argument("-o", "--output", metavar="PATH",
                       help="write the repro.why/1 JSON document")
    p_why.add_argument("--flame", metavar="PATH",
                       help="write the blame flamegraph as self-"
                            "contained HTML")
    p_why.add_argument("--scheduler", choices=SCHEDULERS, default="sfs")
    _add_workload_args(p_why)
    p_why.set_defaults(func=cmd_why)

    p_exp = sub.add_parser("experiment", help="run paper artifacts")
    p_exp.add_argument("ids", nargs="+")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", metavar="DIR",
                       help="write one atomic artifact + manifest per "
                            "experiment into DIR instead of printing")
    p_exp.add_argument("--resume", action="store_true",
                       help="skip experiments whose artifacts in --out DIR "
                            "verify against their manifests")
    p_exp.add_argument("--watchdog", type=float, metavar="SECONDS",
                       help="--out: wall-clock budget per item (one "
                            "experiment, or one cell of a shardable one)")
    p_exp.add_argument("--workers", type=_worker_count, default=0,
                       metavar="N",
                       help="worker processes: --out runs its items on N "
                            "supervised pool workers (0 = inline, same "
                            "tree); without --out, the fan-out of "
                            "experiments that support it")
    p_exp.add_argument("--max-retries", type=int, default=2, metavar="N",
                       help="--out: retries per failed item before "
                            "quarantine (default: %(default)s)")
    p_exp.add_argument("--quarantine", metavar="PATH",
                       help="--out: quarantine report path "
                            "(default: OUT/quarantine.json)")
    p_exp.add_argument("--metrics", metavar="PATH",
                       help="--out: dump the pool's item counters "
                            "(.jsonl/.prom)")
    p_exp.add_argument("--explore-points", metavar="DIR",
                       help="also write per-point interactive explorers "
                            "for experiments that support them (chaos)")
    p_exp.add_argument("--chaos-kill", metavar="ITEM", default=None,
                       help="test hook: SIGKILL the worker holding ITEM "
                            "on first dispatch (needs --out and "
                            "--workers >= 1; ITEM must be a sweep item)")
    p_exp.set_defaults(func=cmd_experiment)

    p_chk = sub.add_parser(
        "check",
        help="differential validation (fluid vs discrete, vs IDEAL "
             "oracle): the validate table's differential rows",
    )
    p_chk.add_argument("--quick", action="store_true",
                       help="small workloads (CI smoke)")
    p_chk.add_argument("--seed", type=int, default=CHECK_SEED)
    p_chk.set_defaults(func=cmd_check)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="seeded chaos fuzzing with metamorphic oracles",
    )
    p_fuzz.add_argument("--budget", type=int, default=50,
                        help="cases to generate (ids are (seed, 0..N-1))")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed; any case replays from "
                             "(seed, index) alone")
    p_fuzz.add_argument("--out", metavar="DIR",
                        help="write shrunk reproducers (ReproCase JSON) here")
    p_fuzz.add_argument("--watchdog", type=float, default=60.0,
                        metavar="SECONDS",
                        help="wall-clock budget per case (0 disables)")
    p_fuzz.add_argument("--metrics", metavar="PATH",
                        help="dump campaign counters (.jsonl/.prom)")
    p_fuzz.add_argument("--workers", type=_worker_count, default=0,
                        metavar="N",
                        help="run cases on N supervised pool workers "
                             "(0 = inline; summary byte-identical at "
                             "any N)")
    p_fuzz.set_defaults(func=cmd_fuzz)
    fuzz_sub = p_fuzz.add_subparsers(dest="fuzz_command")
    p_replay = fuzz_sub.add_parser(
        "replay", help="replay saved reproducers (exit 1 if one fires)")
    p_replay.add_argument("cases", nargs="+", metavar="CASE.json")
    p_replay.set_defaults(func=cmd_fuzz)

    p_pool = sub.add_parser(
        "pool", help="inspect/replay repro.pool quarantine reports")
    pool_sub = p_pool.add_subparsers(dest="pool_command", required=True)
    p_preplay = pool_sub.add_parser(
        "replay",
        help="re-run quarantined items single-process (exit 1 if one "
             "still fails)")
    p_preplay.add_argument("report", metavar="REPORT.json")
    p_preplay.add_argument("--only", metavar="ITEM",
                           help="restrict the replay to one item id")
    p_preplay.set_defaults(func=cmd_pool)

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.set_defaults(func=cmd_list)

    p_val = sub.add_parser("validate", help="run the self-validation table")
    # validated by ``type`` rather than ``choices``: before Python 3.12
    # argparse checks an empty ``nargs="*"`` list against the choices
    p_val.add_argument("checks", nargs="*", type=_row_name, metavar="ROW",
                       help="rows to run (default: all): "
                            + ", ".join(ALL_CHECKS))
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
