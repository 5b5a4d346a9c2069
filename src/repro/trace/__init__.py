"""Structured event tracing and run provenance (``repro.trace``).

Record what the simulator, the machine engines and the SFS layer *did*
— typed, timestamped, replayable — and render it for humans (Perfetto /
``chrome://tracing``) or tools (JSONL)::

    from repro import RunConfig, TraceRecorder, run_workload
    from repro.trace import write_trace

    rec = TraceRecorder()
    res = run_workload(workload, RunConfig(scheduler="sfs"), trace=rec)
    write_trace("out.json", rec, res.manifest)   # open in ui.perfetto.dev

Tracing is off by default and free when off: the recorder is one of
the sinks behind the simulator's probe (:mod:`repro.obs.probe`), and
every instrumented call site guards on the probe's ``enabled`` flag, so
with the shared :data:`~repro.trace.recorder.NULL_RECORDER` (and no
other sink) no event objects are built.  See ``docs/observability.md``
for the event taxonomy.
"""

from repro.trace.events import EVENT_FIELDS, TraceEvent
from repro.trace.export import to_chrome, to_jsonl_lines, write_trace
from repro.trace.manifest import RunManifest
from repro.trace.recorder import NULL_RECORDER, NullRecorder, TraceRecorder

__all__ = [
    "TraceEvent",
    "EVENT_FIELDS",
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "RunManifest",
    "to_chrome",
    "to_jsonl_lines",
    "write_trace",
]
