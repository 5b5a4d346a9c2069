"""The child-process side of :mod:`repro.pool`.

One worker process runs a tiny loop: receive an item from its private
task queue, execute the (picklable, module-level) work function under
the portable :func:`repro.experiments.artifacts.deadline` — **never**
``SIGALRM``, which children cannot rely on — and report the outcome on
its private result pipe.  A background heartbeat thread pings the
supervisor every ``heartbeat_interval`` seconds whether or not an item
is running, so a wedged item (stuck in C code, swapping, livelocked)
is distinguishable from a merely slow one: the slow item keeps
heartbeating, the wedged worker goes silent and gets killed.

The same thread watches the parent pid: if the supervisor is SIGKILLed
mid-campaign the orphaned workers exit instead of spinning on a queue
nobody drains — ``--resume`` picks the campaign back up from the
artifact store, not from orphan output.

The pipe is private to the worker slot, and its two writers (the loop
and the heartbeat thread) share a thread lock that dies with the
process, so a worker SIGKILLed mid-write (OOM, the chaos hook below)
tears only its own pipe, which the supervisor replaces at respawn.  A
queue shared by all workers would keep its inter-process write lock
held and wedge every other worker's results and heartbeats.

Message protocol (all tuples, first element is the kind):

* task queue (supervisor -> worker):
  ``("run", index, item_id, payload, kill_self)`` or ``None`` (drain
  and exit).  ``kill_self`` is the chaos-monkey test hook: the worker
  SIGKILLs itself *before* touching the item, exercising the real
  worker-death path deterministically.
* result pipe (worker -> supervisor):
  ``("hb", worker_id, index_or_None, monotonic_ts)``,
  ``("ok", worker_id, index, result)``,
  ``("err", worker_id, index, kind, message)`` with ``kind`` in
  ``("timeout", "exception")``.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Any, Callable, Optional

from repro.experiments.artifacts import ExperimentTimeout, deadline


def worker_main(
    worker_id: int,
    fn: Callable[[Any], Any],
    task_q,
    result_conn,
    heartbeat_interval: float,
    item_seconds: Optional[float],
    parent_pid: int,
) -> None:
    """Process entry point (module-level so ``spawn`` can pickle it).
    ``result_conn`` is the write end of the slot's result pipe."""
    current = {"index": None}
    stop = threading.Event()
    send_lock = threading.Lock()

    def report(msg: tuple) -> None:
        with send_lock:
            result_conn.send(msg)

    def _beat() -> None:
        while not stop.wait(heartbeat_interval):
            if os.getppid() != parent_pid:  # supervisor died; don't orphan
                os._exit(1)
            try:
                report(("hb", worker_id, current["index"], time.monotonic()))
            except Exception:  # pipe torn down under us
                os._exit(1)

    threading.Thread(target=_beat, daemon=True).start()

    while True:
        msg = task_q.get()
        if msg is None:
            break
        _kind, index, _item_id, payload, kill_self = msg
        if kill_self:
            # chaos-monkey hook: die exactly like an OOM-killed worker,
            # mid-item, without having produced anything
            os.kill(os.getpid(), signal.SIGKILL)
        current["index"] = index
        # the outcome is sent outside the deadline, whose timeout could
        # otherwise interrupt a half-written message
        try:
            with deadline(item_seconds):
                result = fn(payload)
            outcome = ("ok", worker_id, index, result)
        except ExperimentTimeout as exc:
            outcome = ("err", worker_id, index, "timeout",
                       str(exc) or f"exceeded {item_seconds}s")
        except BaseException as exc:  # noqa: BLE001 - worker must survive
            outcome = ("err", worker_id, index, "exception",
                       f"{type(exc).__name__}: {exc}")
        current["index"] = None
        report(outcome)
    stop.set()
