"""Lazy request streams (repro.workload.stream).

The load-bearing property: a stream is a pure function of
``(seed, config)`` — however a consumer batches its reads, pickles the
cursor, or resumes from a checkpoint, it sees exactly the sequence the
materialized generator would have produced.
"""

from __future__ import annotations

import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.spec import Workload
from repro.workload.stream import (
    CHUNK,
    RequestStream,
    StreamConfig,
    StreamCursor,
)

SMALL = dict(n_requests=400, n_cores=8, target_load=0.9)


def _stream(seed=7, **kw):
    params = dict(SMALL)
    params.update(kw)
    return RequestStream(StreamConfig(**params), seed=seed)


# ----------------------------------------------------------------------
# basic contract
# ----------------------------------------------------------------------
def test_stream_matches_materialized():
    s = _stream()
    assert list(s.cursor()) == s.materialize().requests


def test_arrivals_strictly_increasing():
    specs = list(_stream(seed=3))
    arrivals = [r.arrival for r in specs]
    assert arrivals == sorted(arrivals)
    assert len(set(arrivals)) == len(arrivals), "IATs >= 1us never tie"


def test_req_ids_are_the_index():
    assert [r.req_id for r in _stream(seed=5)] == list(range(400))


def test_len_and_meta():
    s = _stream(seed=9)
    assert len(s) == 400
    assert s.meta["seed"] == 9
    assert s.meta["generator"] == "RequestStream"


def test_materialize_is_already_sorted():
    s = _stream(seed=1)
    wl = s.materialize()
    assert isinstance(wl, Workload)
    assert [r.req_id for r in wl.requests] == list(range(400))


def test_seed_changes_the_stream():
    assert list(_stream(seed=0)) != list(_stream(seed=1))


def test_same_seed_same_stream():
    assert list(_stream(seed=4)) == list(_stream(seed=4))


def test_requires_integer_seed():
    with pytest.raises(ValueError, match="integer seed"):
        RequestStream(StreamConfig(**SMALL), seed=None)


def test_offered_load_near_target():
    wl = _stream(seed=2, n_requests=3000).materialize()
    assert wl.offered_load(8) == pytest.approx(0.9, rel=0.15)


# ----------------------------------------------------------------------
# chunk-boundary behavior (CHUNK is a constant, crossing it must be
# seamless)
# ----------------------------------------------------------------------
def test_stream_across_chunk_boundaries():
    n = 2 * CHUNK + 50
    s = _stream(seed=11, n_requests=n)
    specs = list(s.cursor())
    assert len(specs) == n
    assert [r.req_id for r in specs] == list(range(n))
    arrivals = [r.arrival for r in specs]
    assert arrivals == sorted(arrivals)
    # boundary requests come from different RNG chunks yet chain arrivals
    assert arrivals[CHUNK] > arrivals[CHUNK - 1]


def test_cursor_pickle_at_chunk_boundary():
    n = CHUNK + 10
    ref = list(_stream(seed=13, n_requests=n))
    for position in (CHUNK - 1, CHUNK, CHUNK + 1):
        cur = _stream(seed=13, n_requests=n).cursor()
        head = [next(cur) for _ in range(position)]
        restored = pickle.loads(pickle.dumps(cur))
        assert head + list(restored) == ref


# ----------------------------------------------------------------------
# azure source
# ----------------------------------------------------------------------
def test_azure_stream_matches_materialized():
    s = _stream(seed=21, source="azure")
    assert list(s.cursor()) == s.materialize().requests


def test_azure_stream_shape():
    specs = list(_stream(seed=22, source="azure", io_fraction=0.5))
    assert all(r.app == "azure" for r in specs)
    assert all(r.name.startswith("az-") for r in specs)
    with_io = [r for r in specs if r.io_demand > 0]
    assert 0 < len(with_io) < len(specs)


# ----------------------------------------------------------------------
# properties: consumption batching, pickling and resume never change
# the sample path
# ----------------------------------------------------------------------
config_st = st.fixed_dictionaries({
    "n_requests": st.integers(min_value=1, max_value=300),
    "n_cores": st.sampled_from([1, 4, 12]),
    "target_load": st.sampled_from([0.5, 0.9, 1.2]),
    "source": st.sampled_from(["faasbench", "azure"]),
    "iat_kind": st.sampled_from(["poisson", "uniform"]),
    "io_fraction": st.sampled_from([0.0, 0.3]),
})


@settings(max_examples=25, deadline=None)
@given(cfg=config_st, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_prop_stream_equals_materialized(cfg, seed):
    s = RequestStream(StreamConfig(**cfg), seed=seed)
    assert list(s.cursor()) == s.materialize().requests


@settings(max_examples=25, deadline=None)
@given(
    cfg=config_st,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    batches=st.lists(st.integers(min_value=1, max_value=80),
                     min_size=1, max_size=12),
)
def test_prop_batched_consumption_is_invariant(cfg, seed, batches):
    """Reading in arbitrary batch sizes never changes the stream."""
    s = RequestStream(StreamConfig(**cfg), seed=seed)
    ref = list(s.cursor())
    cur = s.cursor()
    got = []
    for size in itertools.cycle(batches):
        chunk = list(itertools.islice(cur, size))
        if not chunk:
            break
        got.extend(chunk)
    assert got == ref


@settings(max_examples=25, deadline=None)
@given(
    cfg=config_st,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cut=st.integers(min_value=0, max_value=300),
)
def test_prop_pickle_resume_is_invariant(cfg, seed, cut):
    """Pickling the cursor at any position preserves the remainder."""
    s = RequestStream(StreamConfig(**cfg), seed=seed)
    ref = list(s.cursor())
    cur = s.cursor()
    head = list(itertools.islice(cur, min(cut, len(ref))))
    restored = pickle.loads(pickle.dumps(cur))
    assert isinstance(restored, StreamCursor)
    # len() counts the requests still to come (the driver sizes its
    # arrival ranks with it)
    assert len(restored) == restored.remaining == len(ref) - len(head)
    assert head + list(restored) == ref
    assert restored.exhausted
