"""Regenerate EXPERIMENTS.md: run every experiment, record paper-vs-measured.

Usage::

    python -m repro.analysis.run_all [output_path] [--seed N] [--only ID ...]

Runs the entries of :data:`ORDER` at their *scaled* configurations
through :func:`repro.experiments.registry.sweep`, inline (the same
sweep ``repro experiment`` runs; a few minutes in all), and writes a
Markdown report with the rendered table/series for every figure and
table in the paper.  The report is the same bytes on every run.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.registry import REGISTRY, sweep

#: one-line paper anchors shown next to each artifact
PAPER_ANCHORS = {
    "fig1": "37.2% < 300 ms, 57.2% < 1 s, 99.9% < 224 s; ~7 orders of magnitude",
    "table1": "bin masses 40.6 / 9.8 / 6.8 / 22.7 / 15.7 %, fib N 20-35",
    "fig2": "SRTF ~ IDEAL; CFS best Linux policy but 89.9% of requests RTE<0.2 "
            "at 100% load; CFS p40/p70 slowdown vs SRTF = 16x/24x; FIFO worst",
    "fig6": "SFS ~ CFS at 50% load; far ahead for the short majority at 100%",
    "fig7": "P(RTE>=0.95): SFS 93%/88% at 65/80% load, CFS 55%/35%",
    "fig8": "SFS median ~0.1 s at every load; p99.9 at 80% load ~1.47x CFS's",
    "fig9": "adaptive beats static S in {50,100,200} ms overall",
    "fig10": "S tracks the arrival rate (S = mean IAT x cores, window 100)",
    "fig11": "I/O-oblivious SFS worst; insensitive to 1-8 ms polling",
    "fig12": "hybrid flattens five queuing-delay spikes; ~50% of requests faster",
    "fig13": "CFS 14.1% slower on average at 80% load; SFS flat across loads",
    "fig14": "RTE distributions for OL+CFS vs OL+SFS",
    "fig15": "OL+SFS p99 4.75 s; p99 speedups 1.65x/4.04x/7.93x at 80/90/100%",
    "fig16": ">99% of requests switch more under CFS; ~85% at least 10x more",
    "table2": "avg overhead 3.6% of 72 cores at 4 ms polling; 74.4% of it polling",
    "headline": "83% improved by 49.6x on average; the rest 1.29x longer",
    "ext-slo": "(SI) 'X% of invocations within a bounded ratio of isolation'",
    "ext-coldstart": "(SX) cold starts offset SFS; keep-alive restores it",
    "ext-eevdf": "(SX) user-space SFS survives the kernel's CFS->EEVDF swap",
    "ext-predictive": "(SXI) size hints close part of the SFS->SRTF gap",
    "ext-cluster": "(SVIII-A) offloading longs to lighter-loaded hosts helps",
    "ext-billing": "(SI/SIII) overcharges priced at the paper's AWS rates",
    "sensitivity": "(ours) N and O sit on flat parts of the curve",
    "ablations": "(ours) global queue >= multi-queue; engines agree; "
                 "CFS penalty grows with context-switch cost",
}

ORDER = [
    "fig1", "table1", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "table2",
    "headline", "sensitivity", "ablations",
    "ext-slo", "ext-coldstart", "ext-eevdf", "ext-predictive",
    "ext-cluster", "ext-billing",
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", nargs="*", help="run a subset of exp ids")
    args = parser.parse_args(argv)

    done = sweep(args.only or ORDER, args.seed,
                 progress=lambda line: print(line, flush=True))
    if done.report.quarantined:
        for o in done.report.quarantined:
            print(f"{o.item_id}: {o.errors[-1]}", file=sys.stderr)
        return 1
    sections = [
        f"## {exp_id}: {REGISTRY[exp_id].title}\n\n"
        f"*Paper:* {PAPER_ANCHORS.get(exp_id, '-')}\n\n"
        "```\n" + text + "\n```\n"
        for exp_id, text in done.texts.items()
    ]

    header = (
        "# EXPERIMENTS — paper vs measured\n\n"
        "Every table and figure of *SFS: Smart OS Scheduling for Serverless\n"
        "Functions* (SC 2022), regenerated by this reproduction at\n"
        "laptop-scale configurations.  Absolute numbers are not expected to\n"
        "match the authors' EC2 testbed; orderings, ratios and crossovers\n"
        "are (see DESIGN.md §5 for the fidelity notes and known deltas).\n\n"
        "Each section is one experiment at its scaled configuration\n"
        f"(`Config.scaled()` of its module), seed {args.seed}.  Regenerate "
        "with\n"
        "`python -m repro.analysis.run_all`, which runs the same sweep as\n"
        "`repro experiment`; CI fails if this file differs from what the\n"
        "code prints.\n\n"
    )
    with open(args.output, "w") as fh:
        fh.write(header + "\n".join(sections))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
