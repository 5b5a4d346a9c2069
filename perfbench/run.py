#!/usr/bin/env python3
"""Benchmark of the SFS simulator: end-to-end and per-layer numbers.

Run from the repository root::

    python3 perfbench/run.py --workload headline --seed 0 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs the same cases once untraced and once under the span tracer and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full report (every figure in metrics.json, the output
digest and the check results), also written to ``perfbench/out/``.
The exit code is 0 only when every output check passed.

Each workload runs in a fresh single-threaded worker process (this
script, ``--role measure`` or ``--role trace``).  Set-up time is measured
in that process and in extra ``--role setup`` processes, which stop at
the first simulated event; the reported ``setup_s`` is their median.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = HERE / "metrics.json"

#: set-up samples per measured run: the worker plus this many minus one
#: set-up-only processes
SETUP_SAMPLES = 5
#: nominal untraced seconds of cases the traced run covers (span memory
#: grows with every case)
TRACE_SECONDS = 3.0
#: every process this script starts must end before this many seconds
DEADLINE_S = 170.0


class SetupDone(Exception):
    """Raised at the first simulated event of a set-up-only process."""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=16.0,
                   help="nominal host seconds of simulated work per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--requests", type=int, default=None,
                   help="simulated requests per case (default: the "
                        "workload's own size; tests use tiny runs)")
    p.add_argument("--role", choices=("launch", "measure", "trace", "setup"),
                   default="launch", help=argparse.SUPPRESS)
    p.add_argument("--launched", type=float, default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"repro imported from {where}, not {SRC}")


def _on_first_event(callback) -> None:
    """Call ``callback`` once, when the first simulation starts running."""
    from repro.sim.engine import Simulator

    original = Simulator.__dict__["run"]

    def run(sim, *args, **kwargs):
        Simulator.run = original
        callback()
        return original(sim, *args, **kwargs)

    Simulator.run = run


def work(args: argparse.Namespace) -> dict:
    _import_repro()
    import workloads

    w = workloads.WORKLOADS[args.workload]
    if args.requests is not None:
        w = dataclasses.replace(w, requests=args.requests)
    n_cases = w.cases(args.seconds)
    if args.role == "trace":
        return trace(w, args.seed, min(n_cases, w.cases(TRACE_SECONDS)))
    setup = []

    def first_event() -> None:
        setup.append(time.monotonic() - args.launched)
        if args.role == "setup":
            raise SetupDone

    _on_first_event(first_event)
    if args.role == "setup":
        try:
            w.run_case(w, workloads.case_seed(args.seed, 0))
        except SetupDone:
            return {"setup_s": setup[0]}
        raise RuntimeError("the workload ran no simulation")
    return measure(w, args.seed, n_cases, setup)


def _run_cases(w, seeds):
    t0 = time.perf_counter()
    outputs = [w.run_case(w, s) for s in seeds]
    return outputs, time.perf_counter() - t0


def measure(w, seed: int, n_cases: int, setup: list) -> dict:
    import reference
    import workloads

    ref_jobs = reference.jobs_for(w.case_seconds)
    outputs, wall, ref_s = [], 0.0, 0.0
    for i in range(n_cases):
        ref_s += reference.run(ref_jobs)
        t0 = time.perf_counter()
        outputs.append(w.run_case(w, workloads.case_seed(seed, i)))
        wall += time.perf_counter() - t0
    report = workloads.end_to_end(w, outputs, wall)
    host_speed = n_cases * ref_jobs * reference.JOB_SECONDS / ref_s
    report["host_speed"] = host_speed
    report["requests_per_ref_s"] = report["requests_per_s"] / host_speed
    report["setup_s"] = setup[0]
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    report["wall_s"] = wall
    return {"report": report,
            "attempted": sum(o.requests for o in outputs),
            "violations": [v for o in outputs for v in o.violations]}


def trace(w, seed: int, n_cases: int) -> dict:
    import layers
    import workloads
    from tracer import BENCH, Profile, SpanLog, Tracer, leaked_wrappers

    seeds = [workloads.case_seed(seed, i) for i in range(n_cases)]
    plain, untraced_s = _run_cases(w, seeds)
    log = SpanLog()
    with Tracer(log) as tracer:
        root = log.open(log.name_id("traced run", BENCH))
        t0 = time.perf_counter()
        traced = [w.run_case(w, s) for s in seeds]
        log.close(root)
        traced_s = time.perf_counter() - t0
    violations = [v for o in traced for v in o.violations]
    leaked = leaked_wrappers()
    if leaked:
        violations.append(f"tracer wrappers left installed: {leaked[:5]}")
    digests = ([o.digest for o in plain], [o.digest for o in traced])
    if digests[0] != digests[1]:
        violations.append("traced and untraced runs simulated different "
                          "results")
    metrics = layers.layer_metrics(Profile(log), tracer.instances, traced,
                                   untraced_s, traced_s, len(log))
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{w.name}-seed{seed}.npz"
    log.save(spans)
    report = {
        "output_sha256": workloads.end_to_end(
            w, traced, traced_s)["output_sha256"],
        "cases": n_cases,
        "span_dump": str(spans.relative_to(ROOT)),
        "layer_separation": layers.check_layer_separation(w.name, metrics),
        **metrics,
    }
    return {"report": report,
            "attempted": sum(o.requests for o in traced),
            "violations": violations}


# ----------------------------------------------------------------------
# launcher side
# ----------------------------------------------------------------------
def _child(args, role: str, deadline: float) -> dict:
    """Run this script as a worker; its last stdout line is its result."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--launched", repr(time.monotonic())]
    if args.requests is not None:
        cmd += ["--requests", str(args.requests)]
    env = dict(os.environ)
    env.pop("REPRO_INVARIANTS", None)  # measure the nominal path
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()),
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def launch(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    known = {m["name"] for m in spec["workloads"]}
    if args.workload not in known:
        print(f"error: unknown workload {args.workload!r} "
              f"(expected one of {sorted(known)})", file=sys.stderr)
        return 2
    role = "trace" if args.trace else "measure"
    result = _child(args, role, deadline)
    report = result["report"]
    if role == "measure":
        samples = [report["setup_s"]] + [
            _child(args, "setup", deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        report["setup_s"] = statistics.median(samples)
        report["setup_samples_s"] = samples
        listed = spec["end_to_end"]
        shown = listed + spec["reported"]
    else:
        listed = shown = spec["per_layer"]
    violations = result["violations"]
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "violations": violations, **report}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1) + "\n")
    for m in shown:
        if m["name"] in report:
            print(f"{args.workload:<19} {m['name']:<27} "
                  f"{report[m['name']]} {m['unit']}")
    for v in violations:
        print(f"CHECK FAILED: {v}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not violations,
        "attempted": result["attempted"],
        "failed": len(violations),
        "metrics": {m["name"]: {"value": report[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0 if not violations else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "launch":
        try:
            return launch(args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError,
                KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    result = work(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
