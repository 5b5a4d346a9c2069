"""Experiment harness: one module per table/figure of the paper.

Each experiment module exposes a frozen ``Config`` dataclass with
paper-scale defaults and a ``scaled()`` constructor producing the
laptop-scale variant ``repro experiment`` and EXPERIMENTS.md run, plus
one of two protocols:

* a whole experiment: ``run(config, seed) -> result`` performing it and
  ``render(result) -> str`` producing the ASCII table/series that
  corresponds to the published figure;
* a grid (``chaos``, ``ext_resilience``, ``replay_stream``):
  ``shards(config, seed)``, ``run_shard(payload) -> str`` for one
  independent cell and ``render_shards(texts, config) -> str``.

:mod:`repro.experiments.registry` maps artifact ids to modules and runs
them as one sweep; the shared driver lives in
:mod:`repro.experiments.runner`.
"""

from repro.experiments.runner import RunConfig, run_workload

__all__ = ["RunConfig", "run_workload"]
