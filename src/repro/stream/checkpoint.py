"""In-run checkpoints: the whole simulation, atomically, mid-flight.

A checkpoint serializes the **complete** live object graph of a
streaming replay — the event heap (with lazy-cancelled entries and
their seq counters), per-core runqueues, SFS monitor/FILTER/watch-list
state, the workload cursor, the aggregator, the watchdog, and the
module-global task-id counter — as one pickle, written through the
PR-3 atomic write-rename discipline with a sha256-manifested sidecar
(schema :data:`CHECKPOINT_SCHEMA`).

Why a single pickle instead of a bespoke schema: the simulator's
determinism lives in object aliasing (the *same* ``EventHandle`` is
referenced by the heap and by the SFS worker that may cancel it) and
pickle's memo preserves aliasing exactly.  Every callback in the
streaming driver, and every idle test of a ``Simulator.every`` timer,
is a bound method or ``functools.partial`` of picklable objects —
closures are banned from the replay path for precisely this reason.
Parked SFS poll timers are off the heap; the simulator's parked set,
rank log and per-phase timer lists carry them (schema ``/4``).  Tasks
are slotted (schema ``/5``): a ``/4`` task's undeclared engine state
cannot be loaded into them.  The fluid machine carries its cached pool
rates and SFS its idle-worker count (schema ``/10``).

Resume contract: ``load`` verifies the manifest hash and the config
digest (a checkpoint from a different replay configuration is an
error, not a silent wrong-answer), restores the task-id counter, and
returns a driver whose continued run produces a final summary
byte-identical to an uninterrupted one (pinned by tests and the
``replay-smoke`` CI job).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from typing import Any, Dict, Optional

import repro.sim.task as task_module
from repro.experiments.artifacts import (
    atomic_write_bytes,
    atomic_write_text,
    config_digest,
)

#: bumped whenever the pickled driver graph changes shape: a checkpoint
#: of another schema cannot be resumed by this code
CHECKPOINT_SCHEMA = "repro.stream/10"

#: pinned pickle protocol: checkpoints written by one interpreter
#: version stay readable by the next (protocol 4 is universal on 3.4+)
_PICKLE_PROTOCOL = 4


class CheckpointError(RuntimeError):
    """A checkpoint is missing, corrupt, or from another configuration."""


class CheckpointStore:
    """One directory holding the latest checkpoint + manifest.

    Each checkpoint replaces the previous one: for crash recovery only
    the newest consistent state matters, and a multi-day replay must not
    grow a checkpoint graveyard.  The manifest carries enough provenance
    (virtual time, request counts, config digest) to report progress
    without unpickling anything.

    A payload file is named by its hash and written before the manifest
    that names it, and the previous payload is deleted only after that
    manifest is in place: a process killed between the two writes
    leaves the previous, consistent pair.
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------------
    @property
    def checkpoint_path(self) -> str:
        """The payload file the stored manifest names."""
        doc = self._read_manifest() or {}
        return self._payload_path(str(doc.get("sha256")))

    def _payload_path(self, sha256: str) -> str:
        return os.path.join(self.root, f"checkpoint-{sha256[:16]}.ckpt")

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, "checkpoint.manifest.json")

    # ------------------------------------------------------------------
    def save(self, driver) -> Dict[str, Any]:
        """Atomically persist ``driver`` and return the manifest.

        The payload includes the module-global task-id counter
        (:data:`repro.sim.task._task_ids`): task ids are assigned from
        it at spawn, SFS keys its FILTER bookkeeping by tid, and a
        resume that restarted the counter would collide new tasks with
        checkpointed ones.  ``itertools.count`` pickles by value
        without being consumed, which is exactly what is needed.
        """
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "driver": driver,
            "task_ids": task_module._task_ids,
        }
        blob = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
        sha256 = hashlib.sha256(blob).hexdigest()
        path = self._payload_path(sha256)
        atomic_write_bytes(path, blob)
        config = driver.config_dict()
        manifest = {
            "schema": CHECKPOINT_SCHEMA,
            "sha256": sha256,
            "bytes": len(blob),
            "config": config,
            "config_digest": config_digest(config),
            "virtual_time_us": driver.sim.now,
            "requests_done": driver.done,
            "requests_admitted": driver.admitted,
            "checkpoints_written": driver.checkpoints_written + 1,
        }
        atomic_write_text(
            self.manifest_path,
            json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n",
        )
        # the previous payload, and any a killed save left half-written
        for name in os.listdir(self.root):
            if (name.startswith(("checkpoint-", ".checkpoint-"))
                    and name != os.path.basename(path)):
                os.remove(os.path.join(self.root, name))
        driver.checkpoints_written += 1
        return manifest

    # ------------------------------------------------------------------
    def _read_manifest(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.manifest_path) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def manifest(self) -> Optional[Dict[str, Any]]:
        """The manifest of the stored checkpoint, or None."""
        doc = self._read_manifest()
        return doc if doc and doc.get("schema") == CHECKPOINT_SCHEMA else None

    def has_checkpoint(self) -> bool:
        return self.manifest() is not None

    # ------------------------------------------------------------------
    def load(self, expect_config: Optional[Dict[str, Any]] = None):
        """Restore the driver from the stored checkpoint.

        ``expect_config`` (the config dict of the *resuming* command)
        guards against resuming a checkpoint into a different replay:
        scheduler, engine, seed or horizon mismatches fail loudly.
        """
        manifest = self._read_manifest()
        if manifest is None:
            raise CheckpointError(
                f"no checkpoint found in {self.root} "
                f"(expected {self.manifest_path})")
        if manifest.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint in {self.root} has schema "
                f"{manifest.get('schema')!r}; this version resumes only "
                f"{CHECKPOINT_SCHEMA!r} (delete {self.root} to restart "
                f"from scratch)")
        path = self._payload_path(str(manifest.get("sha256")))
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint payload unreadable: {exc}") from None
        if hashlib.sha256(blob).hexdigest() != manifest.get("sha256"):
            raise CheckpointError(
                f"checkpoint {path} does not match its "
                f"manifest hash (torn or corrupt; delete {self.root} "
                f"to restart from scratch)")
        if expect_config is not None:
            expected = config_digest(expect_config)
            if manifest.get("config_digest") != expected:
                raise CheckpointError(
                    "checkpoint was written by a different replay "
                    f"configuration (stored {manifest.get('config')}, "
                    f"requested {expect_config})")
        payload = pickle.loads(blob)
        if payload.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"unknown checkpoint schema {payload.get('schema')!r}")
        # restore the global task-id stream before anything can spawn
        task_module._task_ids = payload["task_ids"]
        driver = payload["driver"]
        # the checkpoint was written from inside Simulator.run; the
        # restored loop must be allowed to enter run() again
        driver.sim._running = False
        driver.checkpointer = self
        driver.resumed_from = manifest["virtual_time_us"]
        return driver
