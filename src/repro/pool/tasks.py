"""A deterministic demo work function for :func:`repro.pool.run_pool`.

Pool work functions must be importable by reference — the ``spawn``
start method pickles them by qualified name, and quarantine replay
resolves them back from the ``module:qualname`` recorded in the
report.  The real ones live beside what they run
(:func:`repro.experiments.registry.run_item`,
:func:`repro.fuzz.campaign.run_case_shard`); this one serves the tests,
docs and the SIGKILL-resume driver.  Its payloads are JSON-safe dicts,
so every quarantined item is replayable as saved.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict


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
