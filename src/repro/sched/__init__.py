"""Kernel scheduling-class models.

This package implements the OS-level substrates the paper builds on:

* :mod:`repro.sched.rbtree` — a full red-black tree, the data structure
  Linux CFS uses for its per-core runqueues.
* :mod:`repro.sched.cfs` — the Completely Fair Scheduler model
  (vruntime, slices, wakeup placement, wakeup preemption, idle balance).
* :mod:`repro.sched.rt` — the POSIX real-time classes ``SCHED_FIFO``
  and ``SCHED_RR`` which preempt CFS unconditionally.
* :mod:`repro.sched.srtf` — the offline Shortest-Remaining-Time-First
  oracle the paper compares against; on unbounded cores it is the
  zero-contention IDEAL baseline.
"""

from repro.sched.cfs import CfsParams, CfsRunqueue
from repro.sched.rbtree import RBTree

__all__ = ["RBTree", "CfsRunqueue", "CfsParams"]
