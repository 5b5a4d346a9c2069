"""Span tracing for the benchmark's traced run.

The simulator has no per-layer timers of its own, so the traced run
instruments it from outside: :class:`Tracer` replaces the public calls
into each layer with wrappers that record a span, and wraps every
callback handed to ``Simulator.schedule_at`` or ``MachineBase.on_finish``
so the event loop's dispatches become spans too.

A layer is a package of ``repro`` (``repro.<layer>.*``); a wrapped
function or callback belongs to the layer of the module that defines
it.  Public means every function and method whose name does not start
with ``_``, defined in a layer module.  Spans are kept in memory in
parallel arrays and written out once at the end (:meth:`SpanLog.save`).

Every wrapper is read-only: it calls the original with the original
arguments and returns its result, so a traced run's simulated results
are byte-identical to an untraced run's.  :meth:`Tracer.restore` puts
every original back; :func:`leaked_wrappers` proves nothing stayed.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
import types
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: ``repro`` packages that are layers, in report order
LAYERS = ("sim", "machine", "sched", "core", "faas", "faults", "stream",
          "metrics", "workload", "trace", "obs", "why", "explore",
          "experiments", "invariants")
#: code outside every layer (``repro.constants``, builtins)
OTHER = "other"
#: the benchmark's own root span
BENCH = "bench"
ALL_LAYERS = LAYERS + (OTHER, BENCH)

#: attribute marking a tracer wrapper (found by :func:`leaked_wrappers`)
MARK = "__perfbench_wrapper__"

_perf = time.perf_counter


def layer_of(module: Optional[str]) -> str:
    """Layer owning ``module``: ``repro.<layer>.*`` -> ``<layer>``."""
    parts = (module or "").split(".")
    if parts[0] == "repro" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return OTHER


# ----------------------------------------------------------------------
# span storage and self-time arithmetic
# ----------------------------------------------------------------------
class SpanLog:
    """Spans as parallel columns; a span's index is its id.

    A span is appended when it opens (its end is filled in when it
    closes), so a parent always precedes its children and ``parent``
    holds the enclosing span's index, or -1 for a root.  ``req_id`` and
    ``tid`` hold the simulated request / task of the call's first
    argument, or -1.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[Tuple[str, str], int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.req_id = array("i")
        self.tid = array("i")
        self.stack = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def open(self, nid: int, arg: object = None) -> int:
        i = len(self.name)
        req = getattr(arg, "req_id", -1)
        tid = getattr(arg, "tid", -1)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.req_id.append(req if req.__class__ is int else -1)
        self.tid.append(tid if tid.__class__ is int else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(_perf())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _perf()
        self.stack.pop()

    def columns(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "req_id": np.frombuffer(self.req_id, dtype=np.int32),
            "tid": np.frombuffer(self.tid, dtype=np.int32),
        }

    def save(self, path) -> None:
        """Write the span dump (see README, "Reading the span dump")."""
        cols = self.columns()
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            layers=np.array(self.layers, dtype=str), **cols)


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (the traced program is single
    threaded), so the covered time is the sum of their durations.
    """
    dur = end - start
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


class Profile:
    """Aggregates over a :class:`SpanLog`: per-layer self time, and
    per-name call counts and inclusive time."""

    def __init__(self, log: SpanLog) -> None:
        cols = log.columns()
        name = cols["name"]
        n_names = len(log.names)
        selfs = self_times(cols["start"], cols["end"], cols["parent"])
        dur = cols["end"] - cols["start"]
        layer_index = {layer: k for k, layer in enumerate(ALL_LAYERS)}
        name_layer = np.array([layer_index[l] for l in log.layers],
                              dtype=np.int64)
        self.layer_self = dict(zip(ALL_LAYERS, np.bincount(
            name_layer[name], weights=selfs,
            minlength=len(ALL_LAYERS)).tolist() if len(name) else
            [0.0] * len(ALL_LAYERS)))
        # inclusive time counts only outermost spans of a name, so a
        # recursive call is not counted twice
        parent = cols["parent"]
        nested = np.zeros(len(name), dtype=bool)
        has_parent = parent >= 0
        nested[has_parent] = name[parent[has_parent]] == name[has_parent]
        counts = np.bincount(name, minlength=n_names)
        incl = np.bincount(name[~nested], weights=dur[~nested],
                           minlength=n_names)
        own = np.bincount(name, weights=selfs, minlength=n_names)
        self.calls: Dict[Tuple[str, str], int] = {}
        self.inclusive: Dict[Tuple[str, str], float] = {}
        self.self_time: Dict[Tuple[str, str], float] = {}
        for k, key in enumerate(zip(log.layers, log.names)):
            self.calls[key] = int(counts[k])
            self.inclusive[key] = float(incl[k])
            self.self_time[key] = float(own[k])

    @staticmethod
    def _sum(table: Dict[Tuple[str, str], float], layer: str,
             suffixes: Iterable[str]) -> float:
        suffixes = tuple(suffixes)
        return sum(v for (l, nm), v in table.items()
                   if l == layer and nm.endswith(suffixes))

    def count(self, layer: str, *suffixes: str) -> int:
        """Calls of ``layer`` spans whose name ends in one of
        ``suffixes`` (e.g. ``".spawn"`` or ``"SFS._on_worker_poll"``)."""
        return int(self._sum(self.calls, layer, suffixes))

    def seconds(self, layer: str, *suffixes: str) -> float:
        """Inclusive time of those spans."""
        return self._sum(self.inclusive, layer, suffixes)

    def self_seconds(self, layer: str, *suffixes: str) -> float:
        """Self time of those spans."""
        return self._sum(self.self_time, layer, suffixes)


# ----------------------------------------------------------------------
# wrapping
# ----------------------------------------------------------------------
def layer_modules() -> List[types.ModuleType]:
    """Import and return every module of every layer package.

    Everything is imported before any wrapper is installed: a module
    imported later would copy wrapped functions into its namespace
    (``from x import f``) where :meth:`Tracer.restore` cannot see them.
    """
    mods = []
    for layer in LAYERS:
        pkg = importlib.import_module(f"repro.{layer}")
        mods.append(pkg)
        for info in pkgutil.walk_packages(pkg.__path__, f"repro.{layer}."):
            mods.append(importlib.import_module(info.name))
    return mods


def _repro_modules() -> List[types.ModuleType]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Installs span wrappers on the ``repro`` layers; use as a context
    manager, which restores every original on exit."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._saved: List[Tuple[object, str, object]] = []
        #: instances created while tracing, by class name
        self.instances: Dict[str, list] = {}

    # -- installation --------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def install(self) -> None:
        from repro.machine.base import MachineBase
        from repro.sim.engine import Simulator

        modules = layer_modules()
        repro_modules = _repro_modules()
        special = {(Simulator, "schedule_at"), (MachineBase, "on_finish")}
        for mod in modules:
            layer = layer_of(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported from elsewhere; wrapped there
                if isinstance(obj, types.FunctionType) and (
                        not attr.startswith("_")
                        or attr == "_generate_chunk"):
                    self._wrap_function(obj, layer, repro_modules)
                elif isinstance(obj, type):
                    for name, member in list(vars(obj).items()):
                        if name.startswith("_") or (obj, name) in special:
                            continue
                        wrapped = self._wrap_member(obj, name, member, layer)
                        if wrapped is not None:
                            self._set(obj, name, wrapped)
        self._install_event_hooks(Simulator, MachineBase)
        from repro.core.sfs import SFS
        from repro.faas.coldstart import KeepAliveCache
        from repro.faults.runtime import FaultRuntime

        for cls in (Simulator, SFS, FaultRuntime, KeepAliveCache):
            self._capture_instances(cls)

    def _wrapper(self, fn: Callable, name: str, layer: str,
                 arg_index: int) -> Callable:
        """A span-recording stand-in for ``fn``; the span is tagged with
        the ids of positional argument ``arg_index``."""
        log = self.log
        nid = log.name_id(name, layer)
        open_, close = log.open, log.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(nid, args[arg_index] if len(args) > arg_index else None)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        setattr(wrapper, MARK, True)
        return wrapper

    def _wrap_function(self, fn: types.FunctionType, layer: str,
                       repro_modules: List[types.ModuleType]) -> None:
        wrapper = self._wrapper(fn, fn.__qualname__, layer, 0)
        for mod in repro_modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def _wrap_member(self, cls: type, name: str, member: object,
                     layer: str) -> Optional[object]:
        qual = f"{cls.__name__}.{name}"
        if isinstance(member, staticmethod):
            return staticmethod(self._wrapper(member.__func__, qual, layer, 0))
        if isinstance(member, classmethod):
            return classmethod(self._wrapper(member.__func__, qual, layer, 1))
        if isinstance(member, property) and name == "pending_work":
            return property(self._wrapper(member.fget, qual, layer, 1))
        if isinstance(member, types.FunctionType):
            return self._wrapper(member, qual, layer, 1)
        return None

    def _callback_id(self, callback: Callable) -> Tuple[int, Callable]:
        """(span name id, callable to run) for an event callback; a
        callback that is itself a tracer wrapper runs unwrapped, so its
        call is recorded once."""
        fn = getattr(callback, "__func__", callback)
        if getattr(fn, MARK, False):
            fn = fn.__wrapped__
            callback = (types.MethodType(fn, callback.__self__)
                        if hasattr(callback, "__self__") else fn)
        name = getattr(fn, "__qualname__", type(fn).__name__)
        layer = layer_of(getattr(fn, "__module__", None))
        return self.log.name_id(name, layer), callback

    def _install_event_hooks(self, Simulator, MachineBase) -> None:
        log = self.log
        open_, close = log.open, log.close

        def run_callback(nid, callback, *args):
            i = open_(nid, args[0] if args else None)
            try:
                callback(*args)
            finally:
                close(i)

        sched_at = Simulator.__dict__["schedule_at"]
        sched_nid = log.name_id("Simulator.schedule_at", "sim")
        callback_id = self._callback_id

        @functools.wraps(sched_at)
        def schedule_at(sim, time_, callback, *args, daemon=False):
            i = open_(sched_nid, args[0] if args else None)
            try:
                nid, callback = callback_id(callback)
                return sched_at(sim, time_, run_callback, nid, callback,
                                *args, daemon=daemon)
            finally:
                close(i)

        on_finish = MachineBase.__dict__["on_finish"]
        finish_nid = log.name_id("MachineBase.on_finish", "machine")

        @functools.wraps(on_finish)
        def on_finish_traced(machine, callback):
            i = open_(finish_nid)
            try:
                nid, callback = callback_id(callback)
                return on_finish(machine,
                                 functools.partial(run_callback, nid, callback))
            finally:
                close(i)

        for fn in (schedule_at, on_finish_traced):
            setattr(fn, MARK, True)
        self._set(Simulator, "schedule_at", schedule_at)
        self._set(MachineBase, "on_finish", on_finish_traced)

    def _capture_instances(self, cls: type) -> None:
        bucket = self.instances.setdefault(cls.__name__, [])
        init = cls.__dict__["__init__"]

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            bucket.append(obj)

        setattr(__init__, MARK, True)
        self._set(cls, "__init__", __init__)


def leaked_wrappers() -> List[str]:
    """Names of tracer wrappers still installed anywhere in ``repro``
    (module globals and class attributes); empty after a restore."""
    found = []
    for mod in _repro_modules():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(obj, type):
                for name, member in vars(obj).items():
                    inner = getattr(member, "__func__",
                                    getattr(member, "fget", member))
                    if getattr(inner, MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{name}")
    return found
