"""Streaming replay grid: long-horizon behavior per scheduler/source.

Runs the constant-memory streaming pipeline (:mod:`repro.stream`) over
a seeded lazy workload (:mod:`repro.workload.stream`) for each
(scheduler, trace source) cell and reports the headline latency
sketches.  Unlike the figure experiments — which materialize a modest
workload and keep every record — this grid exercises exactly the path
``repro replay`` uses for multi-day horizons, so regressions in the
streaming aggregation or the prefetch-one arrival chain surface here
and in CI, not three hours into a real replay.

A *shard* experiment: ``shards`` / ``run_shard`` / ``render_shards``
are its whole protocol, one shard per grid cell, each cell a pure
function of ``(config, seed)``, so ``repro experiment replay --workers
N`` runs the cells as :mod:`repro.pool` items.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.machine.base import MachineParams
from repro.stream import ReplayConfig, StreamReplayDriver
from repro.workload.stream import SOURCES, StreamConfig

#: grid axes: replay-capable schedulers x trace sources
GRID_SCHEDULERS = ("cfs", "sfs")


@dataclass(frozen=True)
class Config:
    n_requests: int = 200_000
    n_cores: int = 8
    load: float = 0.9
    sources: Tuple[str, ...] = SOURCES
    schedulers: Tuple[str, ...] = GRID_SCHEDULERS

    @classmethod
    def scaled(cls) -> "Config":
        return cls(n_requests=20_000)


def run_cell(config: Config, seed: int, scheduler: str,
             source: str) -> Dict[str, Any]:
    """One streaming replay; the summary doc is the cell artifact.

    The driver is fed a fresh cursor built from ``(seed, config)``, so
    a cell computed in a pool worker is byte-identical to one computed
    inline.
    """
    from repro.workload.stream import RequestStream

    scfg = StreamConfig(
        n_requests=config.n_requests,
        n_cores=config.n_cores,
        target_load=config.load,
        source=source,
    )
    rcfg = ReplayConfig(
        scheduler=scheduler,
        machine=MachineParams(n_cores=config.n_cores),
        checkpoint_every=None,
    )
    driver = StreamReplayDriver(RequestStream(scfg, seed=seed), rcfg)
    return driver.run()


def render_shards(texts: Sequence[str], config: Config) -> str:
    """The grid table and p99 ratios from grid-ordered cell artifacts."""
    cells = [json.loads(t) for t in texts]
    lines = [
        "streaming replay grid "
        f"({config.n_requests} requests, {config.n_cores} cores, "
        f"load {config.load})",
        "",
        f"{'sched':>6} {'source':>10} {'util':>7} {'e2e p50 (ms)':>13} "
        f"{'e2e p99 (ms)':>13} {'wait p99 (ms)':>14} {'max infl':>9}",
    ]
    for cell in cells:
        meta = cell.get("meta", {})
        e2e = cell["end_to_end_us"]
        wait = cell["wait_us"]
        lines.append(
            f"{cell['scheduler']:>6} {meta.get('source', '?'):>10} "
            f"{cell['utilization']:>7.3f} "
            f"{e2e.get('p50', 0.0) / 1000:>13.2f} "
            f"{e2e.get('p99', 0.0) / 1000:>13.2f} "
            f"{wait.get('p99', 0.0) / 1000:>14.2f} "
            f"{cell['max_inflight']:>9d}"
        )
    sfs_cells = [c for c in cells if c["scheduler"] == "sfs"]
    cfs_cells = [c for c in cells if c["scheduler"] == "cfs"]
    for sfs_cell in sfs_cells:
        src = sfs_cell.get("meta", {}).get("source")
        for cfs_cell in cfs_cells:
            if cfs_cell.get("meta", {}).get("source") != src:
                continue
            sfs_p99 = sfs_cell["end_to_end_us"].get("p99", 0.0)
            cfs_p99 = cfs_cell["end_to_end_us"].get("p99", 0.0)
            if sfs_p99 > 0:
                lines.append(
                    f"\n{src}: CFS p99 / SFS p99 = {cfs_p99 / sfs_p99:.2f}x"
                )
    lines.append("")
    return "\n".join(lines)


def shards(config: Config, seed: int) -> List[Tuple[str, Dict[str, Any]]]:
    """``(shard_id, payload)`` for every grid cell, in grid order."""
    return [
        (f"{scheduler}.{source}",
         {"scheduler": scheduler, "source": source, "seed": seed,
          "config": asdict(config)})
        for scheduler in config.schedulers
        for source in config.sources
    ]


def run_shard(payload: Dict[str, Any]) -> str:
    """Execute one cell in (possibly) a pool worker; returns the cell
    artifact: one line of canonical JSON."""
    raw = dict(payload["config"])
    raw["sources"] = tuple(raw["sources"])
    raw["schedulers"] = tuple(raw["schedulers"])
    config = Config(**raw)
    cell = run_cell(config, payload["seed"], payload["scheduler"],
                    payload["source"])
    return json.dumps(cell, sort_keys=True, separators=(",", ":")) + "\n"
