"""Lazy seeded request streams (ROADMAP item 1, `repro.stream`).

The materialized generators (:mod:`repro.workload.faasbench`,
:mod:`repro.workload.azure`) draw all randomness up front and return a
:class:`repro.workload.spec.Workload` list — perfect for the paper's
paired comparisons, hopeless for a 10M-request 14-day replay where the
trace alone would dwarf the machine state.

This module generates the same *kind* of traffic lazily: every request
is a pure function of ``(seed, index)``, produced in virtual-time order
without ever materializing the trace.  Internally requests are drawn in
fixed-size chunks, each chunk from its own :class:`numpy.random.
SeedSequence` child keyed by the chunk index — random access by chunk,
vectorized draws inside a chunk, and a stream that does **not** depend
on how the consumer batches its reads.  The chunk size is a module
constant, not a knob, precisely so the sample path is a function of
``(seed, index)`` alone.

The cursor over a stream is an explicit, **picklable** iterator: its
state is ``(config, seed, next_index, chunk base arrival)``.  A cursor
restored from a checkpoint regenerates only its current chunk and
continues bit-for-bit — the foundation of the crash-proof long-horizon
replay in :mod:`repro.stream`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.sim.task import Burst, BurstKind
from repro.sim.units import MS
from repro.workload.azure import (
    DURATION_MIXTURE,
    MAX_DURATION_US,
    MIN_DURATION_US,
)
from repro.workload.distributions import (
    PoissonIAT,
    TableIDurations,
    UniformIAT,
    mean_iat_for_load,
)
from repro.workload.functions import fib_duration, make_fib, make_md, make_sa
from repro.workload.spec import RequestSpec, Workload

#: Internal generation granularity.  Deliberately **not** configurable:
#: the stream must be a pure function of ``(seed, index)``, so the
#: batching of the underlying draws can never be a knob that changes
#: the sample path.
CHUNK = 4096

#: sources a stream can draw durations from
SOURCES = ("faasbench", "azure")

#: IAT processes that can be sampled chunk-locally (a bursty MMPP needs
#: whole-trace spike placement, which contradicts lazy generation; use
#: the materialized FaaSBench for Fig-12-style spikes).
IAT_KINDS = ("poisson", "uniform")

# expected CPU fraction per app, mirroring FaaSBench._arrivals
_CPU_FRACTION = {"fib": 1.0, "md": 0.25, "sa": 0.70}


@dataclass(frozen=True)
class StreamConfig:
    """Parameters of a lazy request stream.

    Mirrors :class:`repro.workload.faasbench.FaaSBenchConfig` where the
    knobs overlap; ``source="azure"`` swaps Table I durations for the
    Azure log-normal duration mixture (single CPU burst per request),
    covering the full seven-orders-of-magnitude duration range of the
    2019 dataset.
    """

    n_requests: int = 1_000_000
    n_cores: int = 12
    target_load: float = 0.8
    source: str = "faasbench"
    iat_kind: str = "poisson"
    io_fraction: float = 0.0
    io_range: Tuple[int, int] = (10 * MS, 100 * MS)
    app_mix: Tuple[Tuple[str, float], ...] = (("fib", 1.0),)
    jitter_sigma: float = 0.05

    def __post_init__(self) -> None:
        if self.n_requests <= 0:
            raise ValueError("n_requests must be positive")
        if self.n_cores <= 0:
            raise ValueError("n_cores must be positive")
        if self.target_load <= 0:
            raise ValueError("target_load must be positive")
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r} "
                             f"(expected one of {SOURCES})")
        if self.iat_kind not in IAT_KINDS:
            raise ValueError(f"unknown iat_kind {self.iat_kind!r} "
                             f"(streaming supports {IAT_KINDS})")
        if not (0 <= self.io_fraction <= 1):
            raise ValueError("io_fraction must be in [0, 1]")
        total = sum(p for _n, p in self.app_mix)
        if total <= 0:
            raise ValueError("app_mix probabilities must sum > 0")
        for name, _p in self.app_mix:
            if name not in ("fib", "md", "sa"):
                raise ValueError(f"unknown app {name!r}")

    # ------------------------------------------------------------------
    def mean_cpu_demand(self) -> float:
        """Expected CPU demand per request (us), for load scaling."""
        if self.source == "azure":
            # mean of the (unclamped) log-normal mixture; clamping at
            # [0.1 ms, 1000 s] shifts this by well under the calibration
            # tolerance, and load scaling only needs the expectation
            return float(sum(
                w * median * np.exp(sigma * sigma / 2.0)
                for w, median, sigma in DURATION_MIXTURE
            ))
        mean_cpu = TableIDurations().mean_duration()
        if self.app_mix != (("fib", 1.0),):
            total_p = sum(p for _n, p in self.app_mix)
            mean_cpu *= sum(
                (p / total_p) * _CPU_FRACTION[name]
                for name, p in self.app_mix
            )
        return mean_cpu

    def mean_iat(self) -> float:
        """Mean inter-arrival time (us) offering ``target_load``."""
        return mean_iat_for_load(
            self.mean_cpu_demand(), self.n_cores, self.target_load)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Independent generator for one chunk: random access by index."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))


def _sample_iats(cfg: StreamConfig, rng: np.random.Generator,
                 count: int) -> np.ndarray:
    mean_iat = cfg.mean_iat()
    if cfg.iat_kind == "poisson":
        return PoissonIAT(mean_iat).sample(rng, count)
    return UniformIAT(mean_iat * 0.5, mean_iat * 1.5).sample(rng, count)


def _generate_chunk(cfg: StreamConfig, seed: int, chunk_index: int,
                    base_arrival: int) -> Tuple[List[RequestSpec], int]:
    """Requests of one chunk plus the chunk's total IAT span (us).

    Pure function of ``(cfg, seed, chunk_index, base_arrival)`` — and
    ``base_arrival`` itself is determined by the earlier chunks, so the
    whole stream is a pure function of ``(cfg, seed)``.
    """
    start = chunk_index * CHUNK
    count = min(CHUNK, cfg.n_requests - start)
    if count <= 0:
        return [], 0
    rng = _chunk_rng(seed, chunk_index)
    # fixed draw order (IATs, apps, durations, io flags, per-request
    # jitter) so the sample path is stable across releases of this file
    iats = _sample_iats(cfg, rng, count)
    arrivals = base_arrival + np.cumsum(iats)

    if cfg.source == "azure":
        weights = np.array([w for w, _m, _s in DURATION_MIXTURE])
        comp = rng.choice(len(DURATION_MIXTURE), size=count,
                          p=weights / weights.sum())
        medians = np.array([m for _w, m, _s in DURATION_MIXTURE])
        sigmas = np.array([s for _w, _m, s in DURATION_MIXTURE])
        draws = rng.lognormal(np.log(medians[comp]), sigmas[comp])
        durs = np.clip(np.rint(draws), MIN_DURATION_US,
                       MAX_DURATION_US).astype(np.int64)
        io_flags = rng.random(count) < cfg.io_fraction
        out = []
        for i in range(count):
            bursts: Tuple[Burst, ...]
            cpu = Burst(BurstKind.CPU, int(durs[i]))
            if io_flags[i]:
                lo, hi = cfg.io_range
                wait = int(rng.integers(lo, hi + 1))
                bursts = (Burst(BurstKind.IO, max(1, wait)), cpu)
            else:
                bursts = (cpu,)
            out.append(RequestSpec(
                req_id=start + i, arrival=int(arrivals[i]), bursts=bursts,
                name=f"az-{int(comp[i])}", app="azure",
            ))
        return out, int(iats.sum())

    app_names = [name for name, _p in cfg.app_mix]
    app_probs = np.array([p for _n, p in cfg.app_mix], dtype=float)
    app_probs /= app_probs.sum()
    app_idx = rng.choice(len(app_names), size=count, p=app_probs)
    ns = TableIDurations().sample_many(rng, count)
    io_flags = rng.random(count) < cfg.io_fraction
    out = []
    for i in range(count):
        app = app_names[app_idx[i]]
        fib_n = int(ns[i])
        if app == "fib":
            bursts = make_fib(fib_n, io=bool(io_flags[i]),
                              io_range_us=cfg.io_range, rng=rng,
                              jitter_sigma=cfg.jitter_sigma)
            name = f"fib-{fib_n}"
        elif app == "md":
            bursts = make_md(fib_duration(fib_n), rng=rng,
                             jitter_sigma=cfg.jitter_sigma)
            name = f"md-{fib_n}"
        else:
            bursts = make_sa(fib_duration(fib_n), rng=rng,
                             jitter_sigma=cfg.jitter_sigma)
            name = f"sa-{fib_n}"
        out.append(RequestSpec(
            req_id=start + i, arrival=int(arrivals[i]), bursts=bursts,
            name=name, app=app,
        ))
    return out, int(iats.sum())


class StreamCursor:
    """Explicit, picklable iterator over a request stream.

    Yields :class:`RequestSpec` in strictly increasing arrival order
    (IATs are >= 1 us, so arrivals never tie).  The pickled state is a
    few integers; the current chunk's cache is dropped on pickle and
    regenerated on the first ``next`` after restore, bit-for-bit.
    """

    def __init__(self, config: StreamConfig, seed: int):
        self.config = config
        self.seed = seed
        self.next_index = 0
        #: arrival offset at the start of the current chunk
        self._base_arrival = 0
        self._chunk_index = 0
        self._chunk: Optional[List[RequestSpec]] = None
        self._chunk_span = 0

    # ------------------------------------------------------------------
    def __iter__(self) -> "StreamCursor":
        return self

    def __next__(self) -> RequestSpec:
        cfg = self.config
        if self.next_index >= cfg.n_requests:
            raise StopIteration
        chunk_index, offset = divmod(self.next_index, CHUNK)
        if self._chunk is None or chunk_index != self._chunk_index:
            if chunk_index != self._chunk_index:  # pragma: no cover
                raise RuntimeError(
                    f"cursor desync: at chunk {self._chunk_index}, "
                    f"need {chunk_index}")
            self._chunk, self._chunk_span = _generate_chunk(
                cfg, self.seed, chunk_index, self._base_arrival)
        spec = self._chunk[offset]
        self.next_index += 1
        if offset == len(self._chunk) - 1:
            # chunk consumed: roll the base forward *now* so the pickled
            # state never needs a previous chunk to restore
            self._base_arrival += self._chunk_span
            self._chunk_index += 1
            self._chunk = None
            self._chunk_span = 0
        return spec

    @property
    def exhausted(self) -> bool:
        return self.next_index >= self.config.n_requests

    def __len__(self) -> int:
        """The requests not yet yielded."""
        return self.config.n_requests - self.next_index

    remaining = property(__len__)

    # ------------------------------------------------------------------
    # pickling: drop the chunk cache, keep the integers
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {
            "config": self.config,
            "seed": self.seed,
            "next_index": self.next_index,
            "_base_arrival": self._base_arrival,
            "_chunk_index": self._chunk_index,
        }

    def __setstate__(self, state):
        self.config = state["config"]
        self.seed = state["seed"]
        self.next_index = state["next_index"]
        self._base_arrival = state["_base_arrival"]
        self._chunk_index = state["_chunk_index"]
        self._chunk = None
        self._chunk_span = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<StreamCursor {self.next_index}/"
                f"{self.config.n_requests} seed={self.seed}>")


class RequestStream:
    """A lazily generated workload: config + seed, no materialization."""

    def __init__(self, config: StreamConfig, seed: int = 0):
        if not isinstance(seed, int):
            raise ValueError(
                "streams need an explicit integer seed (every request "
                f"must be a pure function of (seed, index)); got {seed!r}")
        self.config = config
        self.seed = seed

    def cursor(self) -> StreamCursor:
        """A fresh cursor positioned at request 0."""
        return StreamCursor(self.config, self.seed)

    def __iter__(self) -> Iterator[RequestSpec]:
        return self.cursor()

    def __len__(self) -> int:
        return self.config.n_requests

    @property
    def meta(self) -> dict:
        cfg = self.config
        return {
            "generator": "RequestStream",
            "source": cfg.source,
            "target_load": cfg.target_load,
            "iat_kind": cfg.iat_kind,
            "n_cores": cfg.n_cores,
            "io_fraction": cfg.io_fraction,
            "seed": self.seed,
        }

    def materialize(self) -> Workload:
        """The equivalent materialized workload (small streams only).

        Defined as ``Workload(list(self))`` — the byte-equivalence
        anchor the property suite pins: however a consumer batches,
        pickles, or resumes a cursor, it sees exactly this sequence.
        """
        return Workload(list(self), dict(self.meta))
