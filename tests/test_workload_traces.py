"""Tests for query-trace capture, serialization, and replay."""

import numpy as np
import pytest

from repro.workloads import QueryStream
from repro.workloads.traces import QueryTrace, capture_trace, replay_trace


def make_stream(**kw):
    defaults = dict(dim=32, n_intents=16, seed=2)
    defaults.update(kw)
    return QueryStream(**defaults)


class TestCapture:
    def test_arrivals_monotone(self):
        trace = capture_trace(make_stream(), 200, offered_qps=100.0, seed=1)
        arrivals = [q.arrival_s for q in trace.queries]
        assert arrivals == sorted(arrivals)
        assert len(trace) == 200

    def test_offered_rate_approximate(self):
        trace = capture_trace(make_stream(), 2000, offered_qps=50.0, seed=1)
        assert trace.offered_qps == pytest.approx(50.0, rel=0.15)

    def test_queries_follow_stream(self):
        stream = make_stream()
        trace = capture_trace(stream, 50, offered_qps=10.0, seed=3)
        direct = stream.generate(50)
        for traced, record in zip(trace.queries, direct):
            assert traced.intent == record.intent
            np.testing.assert_array_equal(traced.qfv, record.qfv)

    def test_validation(self):
        with pytest.raises(ValueError):
            capture_trace(make_stream(), 10, offered_qps=0.0)


class TestSerialization:
    def test_empty_trace(self):
        trace = QueryTrace(app="x")
        assert len(trace) == 0
        assert trace.duration_s == 0.0


class TestReplay:
    def test_underloaded_latency_equals_service(self):
        trace = capture_trace(make_stream(), 100, offered_qps=10.0, seed=4)
        dist = replay_trace(trace, lambda q: 0.001)
        assert dist.latencies_s.mean() == pytest.approx(0.001, rel=0.05)
        assert dist.utilization < 0.1
        assert not dist.saturated

    def test_overloaded_queue_grows(self):
        trace = capture_trace(make_stream(), 200, offered_qps=100.0, seed=4)
        dist = replay_trace(trace, lambda q: 0.05)  # 20 qps capacity
        assert dist.saturated
        assert dist.p99_s > dist.p50_s > 0.05
        # the backlog grows roughly linearly under 5x overload
        assert dist.latencies_s[-1] > dist.latencies_s[10]

    def test_near_saturation_tail_inflates(self):
        trace = capture_trace(make_stream(), 2000, offered_qps=90.0, seed=5)
        light = replay_trace(trace, lambda q: 0.002)  # rho ~ 0.18
        heavy = replay_trace(trace, lambda q: 0.0105)  # rho ~ 0.95
        assert heavy.p99_s / heavy.p50_s > light.p99_s / light.p50_s

    def test_multiple_servers_reduce_latency(self):
        trace = capture_trace(make_stream(), 400, offered_qps=100.0, seed=6)
        one = replay_trace(trace, lambda q: 0.015, servers=1)
        four = replay_trace(trace, lambda q: 0.015, servers=4)
        assert four.latencies_s.mean() < one.latencies_s.mean()
        assert not four.saturated

    def test_stateful_service_function(self):
        # a cache-like service: first query per intent is slow
        trace = capture_trace(make_stream(n_intents=4), 100,
                              offered_qps=5.0, seed=7)
        seen = set()

        def service(query):
            if query.intent in seen:
                return 0.0001
            seen.add(query.intent)
            return 0.01

        dist = replay_trace(trace, service)
        assert dist.latencies_s.mean() < 0.002  # most queries hit

    def test_validation(self):
        trace = capture_trace(make_stream(), 10, offered_qps=10.0)
        with pytest.raises(ValueError):
            replay_trace(trace, lambda q: 0.01, servers=0)
        with pytest.raises(ValueError):
            replay_trace(trace, lambda q: -1.0)

    def test_empty(self):
        dist = replay_trace(QueryTrace(app="x"), lambda q: 1.0)
        assert len(dist.latencies_s) == 0
        assert dist.percentile(99) == 0.0
