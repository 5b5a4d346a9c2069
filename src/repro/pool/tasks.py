"""Module-level work functions for :func:`repro.pool.run_pool`.

Pool work functions must be importable by reference — the ``spawn``
start method pickles them by qualified name, and quarantine replay
resolves them back from the ``module:qualname`` recorded in the
report.  This module collects the functions the CLI dispatches, plus a
deterministic demo task the tests and the SIGKILL-resume driver use.

All payloads here are JSON-safe dicts so every quarantined item is
replayable as saved.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple


def render_experiment(payload: Dict[str, Any]) -> str:
    """Run one registered experiment at scaled size and render it.

    Payload: ``{"exp_id": str, "seed": int}``, which is also the
    manifest config of the artifact ``repro experiment --out`` writes
    for it (and of a shardable experiment's merged artifact), so a
    ``--resume`` at any ``--workers`` skips it once it verifies.
    """
    from repro.experiments.registry import REGISTRY

    entry = REGISTRY[payload["exp_id"]]
    return entry.render(entry.run_scaled(seed=payload["seed"]))


def experiment_shard(payload: Dict[str, Any]) -> str:
    """Run one shard of a shardable experiment (e.g. a chaos cell).

    Payload: ``{"exp_id": str, "shard": <module-specific dict>}``; the
    experiment module's ``run_shard`` owns the shard payload schema.
    """
    from repro.experiments.registry import REGISTRY

    return REGISTRY[payload["exp_id"]].module.run_shard(payload["shard"])


def experiment_item(payload: Dict[str, Any]) -> str:
    """Dispatcher for mixed experiment pools: a payload with a
    ``shard`` key is one shard of a shardable experiment, anything
    else is a whole experiment rendered at scaled size."""
    if "shard" in payload:
        return experiment_shard(payload)
    return render_experiment(payload)


def demo_item(payload: Dict[str, Any]) -> str:
    """Deterministic toy task for tests, docs, and smoke drivers.

    Payload keys (all optional but ``name``):

    * ``name`` — identifies the item; the output derives from it alone;
    * ``sleep_s`` — busy-wait this long first (SIGKILL windows);
    * ``fail`` — raise ``RuntimeError`` unconditionally (poison);
    * ``die`` — SIGKILL the executing process (parallel pools only:
      models an OOM-killed worker on *every* attempt);
    * ``hang_s`` — busy-wait without producing (deadline exercise).
    """
    import time

    name = payload["name"]
    if payload.get("fail"):
        raise RuntimeError(f"poisoned item {name}")
    if payload.get("die"):
        import os
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
    end = time.monotonic() + float(payload.get("sleep_s", 0.0)
                                   or payload.get("hang_s", 0.0))
    while time.monotonic() < end:  # busy loop: interruptible by deadline
        pass
    digest = hashlib.sha256(name.encode()).hexdigest()[:16]
    return f"{name}: {digest}\n"


def shardable_items(exp_id: str, config, seed: int,
                    ) -> List[Tuple[str, Dict[str, Any]]]:
    """Pool items for one shardable experiment module.

    Item ids are ``<exp_id>.<shard_id>`` (dots, not slashes — they name
    flat files in the artifact store).
    """
    from repro.experiments.registry import REGISTRY

    module = REGISTRY[exp_id].module
    return [
        (f"{exp_id}.{shard_id}", {"exp_id": exp_id, "shard": shard})
        for shard_id, shard in module.shards(config, seed)
    ]
