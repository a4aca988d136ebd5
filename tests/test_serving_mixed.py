"""Mixed read/write serving: arrivals, per-class admission, write cost."""

import pytest

from repro.serving import (
    INGEST_COMPAT,
    QueryServer,
    ServingConfig,
    mixed_arrivals,
    poisson_arrivals,
)
from repro.workloads.queries import QueryStream


def _config(**kw):
    defaults = dict(app="tir", features=50_000, queue_bound=64, max_batch=4)
    defaults.update(kw)
    return ServingConfig(**defaults)


class TestMixedArrivals:
    def test_split_is_deterministic_and_tagged(self):
        a = mixed_arrivals(200, 500.0, write_fraction=0.3, seed=5)
        b = mixed_arrivals(200, 500.0, write_fraction=0.3, seed=5)
        assert [e.kind for e in a] == [e.kind for e in b]
        writes = [e for e in a if e.kind == "ingest"]
        assert 0 < len(writes) < len(a)
        for w in writes:
            assert w.compat == INGEST_COMPAT
            assert w.qfv is None
            assert w.priority == 1
        for q in a:
            if q.kind == "query":
                assert q.compat != INGEST_COMPAT

    def test_write_fraction_extremes(self):
        pure_reads = mixed_arrivals(50, 100.0, write_fraction=0.0, seed=0)
        pure_writes = mixed_arrivals(50, 100.0, write_fraction=1.0, seed=0)
        assert all(e.kind == "query" for e in pure_reads)
        assert all(e.kind == "ingest" for e in pure_writes)
        with pytest.raises(ValueError):
            mixed_arrivals(50, 100.0, write_fraction=1.5)

    def test_schedule_matches_pure_poisson_timing(self):
        mixed = mixed_arrivals(100, 250.0, write_fraction=0.5, seed=3)
        pure = poisson_arrivals(100, 250.0, seed=3)
        assert [e.time_s for e in mixed] == [e.time_s for e in pure]


class TestMixedServing:
    def test_writes_are_served_and_accounted(self):
        server = QueryServer(_config())
        arrivals = mixed_arrivals(
            120, server.saturation_qps() * 0.5, write_fraction=0.25, seed=9
        )
        result = server.run(arrivals)
        n_writes = sum(1 for e in arrivals if e.kind == "ingest")
        assert result.ingest_arrived == n_writes
        assert result.ingest_completed == n_writes
        assert result.ingest_mean_latency_s > 0
        assert result.conserved
        # read accounting never absorbs the write class
        assert result.completed == result.ingest_completed + (
            len(arrivals) - n_writes
        )

    def test_zero_write_fraction_matches_pure_read_run(self):
        server = QueryServer(_config())
        qps = server.saturation_qps() * 0.5
        pure = server.run(poisson_arrivals(80, qps, seed=4))
        mixed = QueryServer(_config()).run(
            mixed_arrivals(80, qps, write_fraction=0.0, seed=4)
        )
        assert mixed.as_dict() == pure.as_dict()
        assert mixed.ingest_arrived == 0

    def test_queries_keep_priority_over_writes(self):
        # saturate: class-1 writes must shed before class-0 queries
        server = QueryServer(_config(queue_bound=8, policy="drop-oldest"))
        arrivals = mixed_arrivals(
            150, server.saturation_qps() * 6, write_fraction=0.5, seed=2
        )
        result = server.run(arrivals)
        assert result.shed > 0
        n_writes = result.ingest_arrived
        n_reads = result.arrived - n_writes
        read_completed = result.completed - result.ingest_completed
        assert read_completed / n_reads > result.ingest_completed / n_writes

    def test_write_service_time_scales_with_rows_per_op(self):
        small = QueryServer(_config(ingest_rows_per_op=8))
        large = QueryServer(_config(ingest_rows_per_op=512))
        assert large.ingest_op_seconds > small.ingest_op_seconds
        with pytest.raises(ValueError):
            _config(ingest_rows_per_op=0)

    def test_writes_never_batch_with_queries(self):
        stream = QueryStream(dim=512, n_intents=16, seed=0)
        server = QueryServer(_config(cache_entries=64))
        arrivals = mixed_arrivals(
            100,
            server.saturation_qps() * 2,
            write_fraction=0.4,
            seed=7,
            stream=stream,
            compat="tir",
        )
        result = server.run(arrivals)
        assert result.conserved
        assert result.ingest_completed > 0
        # cache hits can only come from the read class
        assert result.cache_hits <= result.arrived - result.ingest_arrived
