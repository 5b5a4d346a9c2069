"""Shared pieces for the experiment modules.

Every experiment has a *paper-scale* configuration (the sizes the paper
ran: 12-72 cores, 10k-50k requests) and a *scaled* one that finishes in
seconds, which ``repro experiment`` runs.  Shape conclusions (who wins,
rough factors) hold at both scales; EXPERIMENTS.md records the scaled
numbers actually measured.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.constants import CTX_SWITCH_COST_US as _CTX_SWITCH_COST_US
from repro.constants import SHORT_CPU_BOUND_US  # noqa: F401  (re-export)
from repro.machine.base import MachineParams
from repro.metrics.stats import percentile, percentiles
from repro.workload.faasbench import FaaSBench, FaaSBenchConfig
from repro.workload.spec import Workload

#: CPU time lost per context switch in the experiment machines (us):
#: direct kernel cost (~3-5 us) plus cache/TLB refill for Docker-hosted
#: Python function processes with large working sets (0.1-1.5 ms; cf. Li et al.,
#: "Quantifying the cost of context switch", ExpCS'07).  This loss is
#: what makes heavily-slicing CFS shed capacity at saturation relative
#: to run-to-completion FILTER — the mechanism behind the paper's tail
#: crossover (Fig 15).  Ablated in ``repro.experiments.ablations``.
CTX_SWITCH_COST = _CTX_SWITCH_COST_US


def azure_sampled_workload(
    n_requests: int,
    n_cores: int,
    load: float,
    seed: int,
    iat_kind: str = "poisson",
    io_fraction: float = 0.0,
    app_mix: Tuple[Tuple[str, float], ...] = (("fib", 1.0),),
    n_spikes: int = 5,
    spike_factor: float = 20.0,
    spike_len: int = 120,
) -> Workload:
    """The Azure-sampled FaaSBench workload used throughout §VIII/§IX."""
    cfg = FaaSBenchConfig(
        n_requests=n_requests,
        n_cores=n_cores,
        target_load=load,
        iat_kind=iat_kind,
        io_fraction=io_fraction,
        app_mix=app_mix,
        n_spikes=n_spikes,
        spike_factor=spike_factor,
        spike_len=spike_len,
    )
    return FaaSBench(cfg, seed=seed).generate()


def machine(n_cores: int, ctx_switch_cost: int = CTX_SWITCH_COST) -> MachineParams:
    return MachineParams(n_cores=n_cores, ctx_switch_cost=ctx_switch_cost)


# ----------------------------------------------------------------------
# shared sweep summarisation (Figs 8/15, ext-slo, ...)
# ----------------------------------------------------------------------
def summarise_sweep(runs, summarise, label=None, key_fmt=None):
    """Flatten a ``{key: {scheduler: RunResult}}`` sweep into table rows.

    Every percentile-breakdown experiment iterates the same nested
    sweep; this keeps the iteration (and the key/scheduler labelling)
    in one place.  ``summarise`` maps one :class:`RunResult` to a tuple
    of cells; ``label`` optionally rewrites the scheduler name (e.g.
    ``"OL+cfs"``); ``key_fmt`` formats the outer key — the default
    renders a float load as a percentage, chaos passes ``str`` for its
    scenario names.
    """
    if key_fmt is None:
        key_fmt = lambda load: f"{load:.0%}"  # noqa: E731
    rows = []
    for key, by_sched in runs.items():
        for name, r in by_sched.items():
            shown = label(name) if label is not None else name
            rows.append((key_fmt(key), shown) + tuple(summarise(r)))
    return rows


def duration_percentiles(result, qs, scale=1e6):
    """Execution-duration percentiles of one run, scaled (default: s).

    Uses :func:`repro.metrics.stats.percentiles` — the single linear-
    interpolation definition every figure shares.
    """
    ps = percentiles(result.turnarounds, qs)
    return tuple(ps[q] / scale for q in qs)


def emit_point_explorers(
    out_dir,
    workload: Workload,
    base,
    schedulers: Tuple[str, ...] = ("cfs", "sfs"),
    label: str = "point",
    metrics=None,
):
    """Render explorer pages for one sweep/chaos point.

    Replays ``workload`` under each scheduler with tracing on and
    writes the pages through :func:`write_point_pages`, each titled
    ``{label} — {bundle label}``.  Returns the written paths.
    """
    from repro.experiments.runner import run_many_bundled

    bundled = run_many_bundled(workload, base, tuple(schedulers))
    return write_point_pages(
        out_dir, label,
        [(sched, f"{label} — {bundle.label}", bundle)
         for sched, (_res, bundle) in bundled.items()],
        metrics=metrics)


def write_point_pages(out_dir, label: str, pages, metrics=None):
    """Write one sweep point's explorer pages into ``out_dir``.

    ``pages`` is a sequence of ``(scheduler, title, bundle)``: each
    becomes a self-contained explorer named ``{label}-{scheduler}.html``
    and, when there are exactly two, the aligned A/B diff
    ``{label}-diff.html`` follows.  File names are deterministic so
    resumable sweeps overwrite in place.  Returns the written paths.
    """
    from pathlib import Path

    from repro.explore import write_explorer

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for sched, title, bundle in pages:
        path = out / f"{label}-{sched}.html"
        write_explorer(path, [bundle], title=title, metrics=metrics)
        paths.append(path)
    if len(pages) == 2:
        a, b = (bundle for _sched, _title, bundle in pages)
        path = out / f"{label}-diff.html"
        write_explorer(path, [a, b],
                       title=f"{label} — {a.label} vs {b.label}",
                       metrics=metrics)
        paths.append(path)
    return paths


def percentile_ratio(runs, load, q, num="sfs", den="cfs"):
    """``num``'s q-th duration percentile over ``den``'s at one load.

    Fig 8's tail *price* (SFS p99.9 over CFS) and Fig 15's p99
    *speedup* (CFS over SFS) are the same computation with the roles
    swapped.
    """
    by_sched = runs[load]
    return float(percentile(by_sched[num].turnarounds, q)
                 / percentile(by_sched[den].turnarounds, q))
