"""Crash-safe, resumable experiment artifacts.

Long sweeps (20+ registered experiments, chaos runs, parameter grids)
die for boring reasons: OOM kills, CI timeouts, laptop lids.  This
module makes the sweep restartable without trusting half-written state:

* **atomic write-rename** — artifacts and manifests are written to a
  temp file in the destination directory and ``os.replace``d into
  place, so a crash leaves either the old file or the new file, never
  a torn one;
* **manifest-keyed content hashes** — each artifact carries a sidecar
  manifest with the sha256 of its bytes and a digest of the producing
  configuration; ``verify`` recomputes both, so a corrupt, truncated or
  stale-config artifact is re-run, not resumed past;
* **deterministic bytes** — manifests contain no timestamps or host
  state, so a resumed sweep's artifacts are byte-identical to an
  uninterrupted run (pinned by the test suite);
* **wall-clock watchdog** — :func:`watchdog` bounds each item with
  ``SIGALRM`` in the single-process main-thread case and falls back to
  the portable :func:`deadline` thread-timer everywhere else (worker
  threads, spawned pool children), so one hung shard cannot stall the
  sweep forever.

``repro experiment --out DIR [--resume]`` runs its items through
:func:`repro.pool.run_pool` against an :class:`ArtifactStore`, at any
``--workers`` (0 runs them inline, in the calling process); the pool
owns the skip-on-resume, retry and quarantine logic.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

#: manifest schema identifier (bump on incompatible change).
SCHEMA = "repro.artifact/1"


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` so a crash never leaves a torn file.

    The temp file lives in the destination directory because
    ``os.replace`` is only atomic within one filesystem.
    """
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Binary twin of :func:`atomic_write_text` (checkpoint payloads)."""
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_digest(config: Dict[str, Any]) -> str:
    """Stable digest of a producing configuration (JSON-safe dict)."""
    return hashlib.sha256(_canonical_json(config).encode()).hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class ExperimentTimeout(RuntimeError):
    """An experiment exceeded its wall-clock budget."""


def _async_raise(thread_ident: int, exc_type: type) -> bool:
    """Deliver ``exc_type`` asynchronously to a running CPython thread.

    ``PyThreadState_SetAsyncExc`` schedules the exception at the
    target's next bytecode boundary, which is exactly what a pure-
    Python simulator loop needs; a thread blocked inside a C call only
    sees it when control returns to the interpreter (the pool's
    supervisor-side kill covers that case).  Returns False where the
    mechanism is unavailable (non-CPython) so callers degrade to
    unbounded rather than crashing.
    """
    try:
        import ctypes

        set_async_exc = ctypes.pythonapi.PyThreadState_SetAsyncExc
    except (ImportError, AttributeError):  # pragma: no cover - PyPy etc.
        return False
    n = set_async_exc(ctypes.c_ulong(thread_ident),
                      ctypes.py_object(exc_type))
    if n > 1:  # pragma: no cover - stale ident; undo the stray delivery
        set_async_exc(ctypes.c_ulong(thread_ident), None)
        return False
    return n == 1


@contextmanager
def deadline(seconds: Optional[float]) -> Iterator[None]:
    """Portable wall-clock bound: works off the main thread and in
    spawned children, where ``SIGALRM`` cannot be armed.

    A daemon :class:`threading.Timer` delivers
    :class:`ExperimentTimeout` to the *calling* thread via
    ``PyThreadState_SetAsyncExc`` once ``seconds`` elapse.  ``None`` or
    0 disables the bound, as does a runtime without the CPython C API.
    """
    if not seconds:
        yield
        return
    ident = threading.get_ident()
    state = {"armed": True}

    def _fire() -> None:
        if state["armed"]:
            _async_raise(ident, ExperimentTimeout)

    timer = threading.Timer(seconds, _fire)
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        state["armed"] = False
        timer.cancel()


@contextmanager
def watchdog(seconds: Optional[float]) -> Iterator[None]:
    """Bound the enclosed block to ``seconds`` of wall time.

    In the single-process case — main thread, platform with
    ``SIGALRM`` — it uses ``setitimer``.  CPython still runs the
    Python handler only between bytecodes, just as :func:`deadline`'s
    exception lands; the gain is that the signal interrupts a blocking
    system call (a sleep, a read), which the thread timer waits out.
    Everywhere else (worker threads, :mod:`repro.pool` children) it
    delegates to the portable :func:`deadline` thread-timer.  ``None``
    or 0 disables the watchdog.
    """
    if not seconds:
        yield
        return
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        with deadline(seconds):
            yield
        return

    def _alarm(_signum, _frame):
        raise ExperimentTimeout(f"experiment exceeded {seconds}s wall clock")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class ArtifactStore:
    """One directory of ``<exp_id>.txt`` + ``<exp_id>.manifest.json``."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def artifact_path(self, exp_id: str) -> str:
        return os.path.join(self.root, f"{exp_id}.txt")

    def manifest_path(self, exp_id: str) -> str:
        return os.path.join(self.root, f"{exp_id}.manifest.json")

    def write(self, exp_id: str, text: str, config: Dict[str, Any]) -> None:
        """Persist an artifact and its manifest, each atomically.

        The artifact lands first: if the crash window falls between the
        two renames, ``verify`` sees a manifest/content pair from
        different generations only when the bytes differ — and then the
        hash check fails and the shard is re-run.
        """
        atomic_write_text(self.artifact_path(exp_id), text)
        manifest = {
            "schema": SCHEMA,
            "exp_id": exp_id,
            "config": config,
            "config_digest": config_digest(config),
            "sha256": _sha256_text(text),
            "bytes": len(text.encode()),
        }
        atomic_write_text(
            self.manifest_path(exp_id),
            _canonical_json(manifest) + "\n",
        )

    def verify(self, exp_id: str, config: Dict[str, Any]) -> bool:
        """Does a trustworthy artifact for this exact config exist?"""
        try:
            with open(self.manifest_path(exp_id)) as fh:
                manifest = json.load(fh)
        except (OSError, ValueError):
            return False
        if manifest.get("schema") != SCHEMA:
            return False
        if manifest.get("config_digest") != config_digest(config):
            return False  # produced by a different sweep configuration
        try:
            with open(self.artifact_path(exp_id)) as fh:
                text = fh.read()
        except OSError:
            return False
        return (
            _sha256_text(text) == manifest.get("sha256")
            and len(text.encode()) == manifest.get("bytes")
        )

    def read(self, exp_id: str) -> str:
        with open(self.artifact_path(exp_id)) as fh:
            return fh.read()
