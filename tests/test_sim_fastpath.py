"""Property suite for the simulator's vectorized structures.

The tuple-backed event heap, the bulk scan traces, the memoized cycle
tables, the query-cache lookup matrix and the batched query-stream
noise are each a *representation* of a plainer computation, with a
hard contract: every observable — fire order, simulated clock, heap
bookkeeping counters, scan traces, cycle tables, cache scores — is
bit-identical to the plain version.  These properties drive the real
structures against plain references (in-test where ``src`` keeps no
reference of its own) under Hypothesis-generated interleavings, which
is what caught the heap-compaction accounting edge the example tests
missed.
"""

import heapq
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.query_cache import EmbeddingComparator, QueryCache
from repro.core.topk import TopKSorter
from repro.sim import Simulator, fastpath
from repro.sim.engine import Event
from repro.sim.forkmap import available as fork_available
from repro.sim.forkmap import fork_map
from repro.ssd import Ssd
from repro.ssd.trace import (
    scan_trace,
    scan_trace_bulk,
    scan_traces_by_channel,
)
from repro.workloads.queries import QueryStream, ZipfSampler


# ----------------------------------------------------------------------
# event-heap oracle: Simulator vs a heap of Event dataclasses
# ----------------------------------------------------------------------
class ReferenceHeap:
    """The plain scheduler: :class:`Event` dataclasses in a ``heapq``.

    Orders events through the dataclass-generated ``(time, seq)``
    comparison and keeps :class:`Simulator`'s lazy-cancel and
    compaction accounting, so every counter is comparable one to one.
    """

    COMPACT_MIN_HEAP = Simulator.COMPACT_MIN_HEAP

    def __init__(self):
        self.heap = []
        self.counter = itertools.count()
        self.now = 0.0
        self.events_processed = 0
        self.cancelled_pending = 0
        self.compactions = 0

    @property
    def pending_events(self):
        return len(self.heap) - self.cancelled_pending

    def _note_cancelled(self):
        # called by Event.cancel() through the event's `sim` field
        self.cancelled_pending += 1
        if (
            len(self.heap) > self.COMPACT_MIN_HEAP
            and self.cancelled_pending * 2 > len(self.heap)
        ):
            self.heap[:] = [e for e in self.heap if not e.cancelled]
            heapq.heapify(self.heap)
            self.cancelled_pending = 0
            self.compactions += 1

    def schedule(self, time, callback):
        assert time >= self.now
        event = Event(time=time, seq=next(self.counter),
                      callback=callback, sim=self)
        heapq.heappush(self.heap, event)
        return event

    def schedule_bulk(self, times, callbacks):
        return [self.schedule(t, c) for t, c in zip(times, callbacks)]

    def peek(self):
        while self.heap and self.heap[0].cancelled:
            heapq.heappop(self.heap)
            self.cancelled_pending -= 1
        return self.heap[0].time if self.heap else None

    def step(self):
        while self.heap:
            event = heapq.heappop(self.heap)
            if event.cancelled:
                self.cancelled_pending -= 1
                continue
            self.now = event.time
            self.events_processed += 1
            event.sim = None  # a late cancel() must not count
            event.callback()
            return True
        return False

    def run(self, stop_when=None):
        while self.peek() is not None:
            self.step()
            if stop_when is not None and stop_when():
                return


#: one scripted scheduler operation: (kind, argument)
heap_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"),
                  st.floats(min_value=0.0, max_value=8.0,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("bulk"),
                  st.lists(st.floats(min_value=0.0, max_value=8.0,
                                     allow_nan=False,
                                     allow_infinity=False),
                           min_size=0, max_size=6)),
        st.tuples(st.just("cancel"),
                  st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("step"), st.none()),
    ),
    min_size=0, max_size=40,
)


def _drive(sim, ops):
    """Run one op script; return every observable the contract names."""
    log = []
    scheduled = []
    observations = []

    def mk(tag):
        def cb():
            log.append((tag, sim.now))
        return cb

    for kind, arg in ops:
        if kind == "schedule":
            scheduled.append(
                sim.schedule(sim.now + arg, mk(len(scheduled)))
            )
        elif kind == "bulk":
            times = [sim.now + dt for dt in arg]
            callbacks = [
                mk(len(scheduled) + i) for i in range(len(arg))
            ]
            scheduled.extend(sim.schedule_bulk(times, callbacks))
        elif kind == "cancel":
            if scheduled:
                scheduled[arg % len(scheduled)].cancel()
        elif kind == "step":
            sim.run(stop_when=lambda: True)
            observations.append(
                ("step", sim.now, sim.events_processed, sim.cancelled_pending)
            )
    sim.run()
    return (
        log,
        observations,
        sim.now,
        sim.events_processed,
        sim.pending_events,
        sim.cancelled_pending,
        sim.compactions,
    )


@settings(max_examples=120, deadline=None)
@given(ops=heap_ops)
def test_array_heap_matches_classic_heap(ops):
    """Fire order, clock, and every counter agree op-for-op."""
    assert _drive(Simulator(), ops) == _drive(ReferenceHeap(), ops)


def test_compaction_counts_preserved_exactly():
    """Mass-cancel interleavings trigger identical compactions.

    The compaction threshold accounting is the regression this pins:
    the tuple heap must compact at the same instants as the reference
    and report the same ``compactions`` / ``cancelled_pending`` counts.
    """
    outcomes = []
    for sim in (Simulator(), ReferenceHeap()):
        fired = []
        events = [
            sim.schedule(float(i % 97) / 7.0, lambda i=i: fired.append(i))
            for i in range(600)
        ]
        for i, event in enumerate(events):
            if i % 3:
                event.cancel()
        mid = (sim.compactions, sim.cancelled_pending, sim.pending_events)
        sim.run()
        outcomes.append(
            (mid, fired, sim.compactions, sim.cancelled_pending,
             sim.events_processed, sim.now)
        )
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2] > 0  # the sweep actually compacted


@settings(max_examples=60, deadline=None)
@given(
    dts=st.lists(st.floats(min_value=0.0, max_value=5.0,
                           allow_nan=False, allow_infinity=False),
                 min_size=0, max_size=30),
)
def test_schedule_bulk_equals_n_schedules(dts):
    """One bulk call == the equivalent loop of single schedules."""
    def run(sim, bulk: bool):
        log = []
        callbacks = [lambda i=i: log.append((i, sim.now))
                     for i in range(len(dts))]
        if bulk:
            sim.schedule_bulk(list(dts), callbacks)
        else:
            for dt, callback in zip(dts, callbacks):
                sim.schedule(dt, callback)
        sim.run()
        return log, sim.now, sim.events_processed

    expect = run(ReferenceHeap(), bulk=False)
    assert run(Simulator(), bulk=True) == expect
    assert run(Simulator(), bulk=False) == expect


# ----------------------------------------------------------------------
# precomputed cycle tables
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=64),
    n=st.integers(min_value=1, max_value=200_000),
)
def test_expected_topk_cycles_matches_sorter(k, n):
    """The memo table returns the sorter's closed form, float-exact."""
    assert fastpath.expected_topk_cycles(k, n) == (
        TopKSorter(k).expected_cycles_per_update(n)
    )


# ----------------------------------------------------------------------
# bulk scan traces
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trace_db():
    ssd = Ssd()
    meta = ssd.ftl.create_database(1024, 4_000)
    return meta, ssd.config.geometry


@settings(max_examples=40, deadline=None)
@given(
    channel=st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
    start=st.integers(min_value=0, max_value=400),
    window=st.one_of(st.none(), st.integers(min_value=0, max_value=300)),
)
def test_scan_trace_bulk_equals_generator(trace_db, channel, start, window):
    meta, geometry = trace_db
    if channel is not None and channel >= geometry.channels:
        channel = channel % geometry.channels
    expect = list(scan_trace(meta, geometry, channel=channel,
                             start_page=start, max_pages=window))
    got = scan_trace_bulk(meta, geometry, channel=channel,
                          start_page=start, max_pages=window)
    assert got == expect


def test_scan_traces_by_channel_equals_per_channel_scans(trace_db):
    meta, geometry = trace_db
    for cap in (None, 0, 5, 10_000):
        grouped = scan_traces_by_channel(
            meta, geometry, max_pages_per_channel=cap
        )
        assert sorted(grouped) == list(range(geometry.channels))
        for channel in range(geometry.channels):
            assert grouped[channel] == list(
                scan_trace(meta, geometry, channel=channel, max_pages=cap)
            )


# ----------------------------------------------------------------------
# fork-map executor
# ----------------------------------------------------------------------
@pytest.mark.skipif(not fork_available(), reason="no os.fork")
def test_fork_map_orders_and_propagates_errors():
    assert fork_map(lambda i: i * i, 6, processes=3) == [
        i * i for i in range(6)
    ]
    with pytest.raises(RuntimeError, match="worker 2 failed"):
        fork_map(lambda i: 1 // (2 - i), 4, processes=2)


# ----------------------------------------------------------------------
# query-cache lookup matrix
# ----------------------------------------------------------------------
cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), st.integers(0, 2**16)),
        st.tuples(st.just("tagged"), st.integers(0, 2**16)),
        st.tuples(st.just("invalidate"), st.integers(0, 2)),
    ),
    min_size=1, max_size=60,
)


def _stacked_lookup(cache, qfv, tag):
    """Algorithm 1 by brute force: stack every candidate, score them all.

    Returns ``(hit, entry, best_score, entries_scanned)`` for the
    cache's current state, without touching its LRU order.
    """
    entries = [
        e for e in cache._entries.values() if tag is None or e.tag == tag
    ]
    if not entries:
        return False, None, 0.0, 0
    matrix = np.stack([e.qfv for e in entries])
    scores = cache.comparator.score_many(qfv, matrix) * cache.qcn_accuracy
    best = int(scores.argmax())
    score = float(scores[best])
    hit = (1.0 - score) <= cache.threshold
    return hit, entries[best] if hit else None, score, len(entries)


@settings(max_examples=40, deadline=None)
@given(ops=cache_ops, capacity=st.integers(min_value=1, max_value=12))
def test_query_cache_matrix_equals_stacking(ops, capacity):
    """The maintained lookup matrix == fresh stack+score per lookup."""
    cache = QueryCache(
        capacity=capacity,
        comparator=EmbeddingComparator(),
        threshold=0.25,
    )
    for kind, arg in ops:
        rng = np.random.default_rng(arg)
        q = rng.normal(0.0, 1.0, 8).astype(np.float32)
        if kind == "invalidate":
            cache.invalidate(lambda tag: tag == (arg,) or tag is None)
            continue
        tag = (arg % 3,) if kind == "tagged" else None
        hit, entry, score, scanned = _stacked_lookup(cache, q, tag)
        r = cache.lookup(q, tag=tag)
        assert (r.hit, r.best_score, r.entries_scanned) == (
            hit, score, scanned
        )
        assert r.entry is entry
        if not r.hit:
            cache.insert(q, np.zeros(3, np.float32), np.arange(3), tag=tag)
        assert cache._keys == list(cache._entries.keys())
        if cache._fm is not None and len(cache):
            stacked = np.stack([e.qfv for e in cache._entries.values()])
            assert np.array_equal(
                cache._fm[: len(cache)], stacked.astype(np.float64)
            )


# ----------------------------------------------------------------------
# batched query-stream generation
# ----------------------------------------------------------------------
def _per_query_stream(stream, n):
    """The sequential reference: one ``rng.normal`` draw per query."""
    rng = np.random.default_rng(stream.seed + 1)
    if stream.distribution == "zipf":
        intents = ZipfSampler(
            stream.n_intents, stream.alpha, seed=stream.seed + 2
        ).sample(n)
    else:
        intents = rng.integers(0, stream.n_intents, n)
    centroids = stream.centroids()
    out = []
    for i in range(n):
        intent = int(intents[i])
        noise = rng.normal(0.0, stream.paraphrase_noise, stream.dim)
        out.append((intent, (centroids[intent] + noise).astype(np.float32)))
    return out


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**10),
    distribution=st.sampled_from(["uniform", "zipf"]),
)
def test_query_stream_batched_noise_bit_equal(n, seed, distribution):
    """Batched normal draws == the sequential per-query loop."""
    stream = QueryStream(dim=16, n_intents=9, distribution=distribution,
                         alpha=0.8, paraphrase_noise=0.05, seed=seed)
    records = stream.generate(n)
    expect = _per_query_stream(stream, n)
    assert len(records) == len(expect)
    for i, (record, (intent, qfv)) in enumerate(zip(records, expect)):
        assert record.intent == intent and record.sequence == i
        assert record.qfv.dtype == qfv.dtype
        assert np.array_equal(record.qfv, qfv)
