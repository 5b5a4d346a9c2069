"""Streaming long-horizon replay (`repro.stream`).

Constant-memory replay of multi-day serverless traces: lazy seeded
request streams (:mod:`repro.workload.stream`), online aggregation
(:mod:`repro.stream.aggregate`), in-run checkpoint/resume
(:mod:`repro.stream.checkpoint`) and a memory-budget watchdog
(:mod:`repro.stream.watchdog`), all driven by
:class:`repro.stream.driver.StreamReplayDriver`.
"""

from repro.stream.aggregate import SUMMARY_SCHEMA, StreamSummary
from repro.stream.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    CheckpointStore,
)
from repro.stream.driver import ReplayConfig, StreamReplayDriver
from repro.stream.watchdog import (
    MemoryBudgetExceeded,
    MemoryWatchdog,
    rss_kb,
)

__all__ = [
    "SUMMARY_SCHEMA",
    "StreamSummary",
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "CheckpointStore",
    "ReplayConfig",
    "StreamReplayDriver",
    "MemoryBudgetExceeded",
    "MemoryWatchdog",
    "rss_kb",
]
