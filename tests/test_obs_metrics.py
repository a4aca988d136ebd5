"""Tests for the metrics registry primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.faults import FaultInjector, FaultPlan
from repro.faults.injector import ReliabilityCounters
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 50.0) == 3.0
        assert percentile(values, 100.0) == 5.0
        assert percentile(values, 1.0) == 1.0

    def test_always_an_observed_value(self):
        values = [0.3, 0.1, 0.9]
        for q in (10.0, 33.0, 66.0, 99.0):
            assert percentile(values, q) in values

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5


class TestGauge:
    def test_set_tracks_peak(self):
        g = Gauge("depth")
        g.set(3.0)
        g.set(1.0)
        assert g.value == 1.0
        assert g.peak == 3.0

    def test_add(self):
        g = Gauge("depth")
        g.add(2.0)
        g.add(-1.5)
        assert g.value == pytest.approx(0.5)
        assert g.peak == 2.0


class TestHistogram:
    def test_exact_min_max_mean(self):
        h = Histogram("lat", bounds=[1.0, 10.0, 100.0])
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.min == 0.5
        assert h.max == 500.0
        assert h.mean == pytest.approx(138.875)

    def test_quantile_is_bucket_upper_edge(self):
        h = Histogram("lat", bounds=[1.0, 10.0, 100.0])
        for v in (0.5, 0.6, 0.7, 50.0):
            h.observe(v)
        # p50 rank lands in the first bucket, whose upper edge is 1.0
        assert h.p50 == 1.0
        # p99 rank lands in the (10, 100] bucket -> edge 100, clamped to max
        assert h.p99 == 50.0

    def test_quantile_clamped_to_observed_range(self):
        h = Histogram("lat", bounds=[100.0])
        h.observe(3.0)
        assert h.p50 == 3.0  # edge 100 clamped down to the observed max

    def test_overflow_bucket(self):
        h = Histogram("lat", bounds=[1.0])
        h.observe(99.0)
        assert h.counts[-1] == 1
        assert h.p99 == 99.0  # overflow resolves to the exact max

    def test_empty_quantile_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat").quantile(50.0)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat", bounds=[2.0, 1.0])

    def test_as_dict_empty_and_filled(self):
        h = Histogram("lat", bounds=[1.0])
        assert h.as_dict() == {"count": 0}
        h.observe(0.5)
        d = h.as_dict()
        assert d["count"] == 1
        assert d["min"] == d["max"] == 0.5

    @given(st.lists(st.floats(min_value=1e-7, max_value=9.0), min_size=1,
                    max_size=60))
    def test_default_buckets_bound_true_quantile(self, values):
        """Bucketed p50 is sandwiched: >= true nearest-rank, <= max."""
        h = Histogram("lat")
        for v in values:
            h.observe(v)
        true_p50 = percentile(values, 50.0)
        assert h.p50 >= true_p50 - 1e-12
        assert h.p50 <= max(values)


class TestMetricsRegistry:
    def test_get_or_create_shares_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert len(reg) == 1
        assert "a.b" in reg

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x")

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ["a", "b"]

    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h", bounds=[1.0]).observe(0.5)
        snap = reg.snapshot()
        assert snap["c"] == 3
        assert snap["g"] == {"value": 1.5, "peak": 1.5}
        assert snap["h"]["count"] == 1

    def test_histogram_bounds_only_apply_on_creation(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", bounds=[1.0, 2.0])
        assert reg.histogram("h") is h
        assert reg.histogram("h", bounds=[9.0]) is h  # later bounds ignored


class TestReliabilityCountersOnRegistry:
    def test_standalone_behaviour_unchanged(self):
        counts = ReliabilityCounters()
        counts.page_reads += 1
        counts.retry_passes += 3
        assert counts.page_reads == 1
        assert counts.as_dict()["retry_passes"] == 3
        assert counts == counts

    def test_shared_registry_exposes_fault_counters(self):
        reg = MetricsRegistry()
        counts = ReliabilityCounters(registry=reg)
        counts.page_reads += 2
        counts.failed_reads = 1
        assert reg.counter("faults.page_reads").value == 2
        assert reg.snapshot()["faults.failed_reads"] == 1

    def test_injector_wires_metrics_registry(self):
        reg = MetricsRegistry()
        plan = FaultPlan(read_retry_rate=1.0, read_retry_max=2)
        injector = FaultInjector(plan=plan, seed=7, metrics=reg)
        assert injector.counts.registry is reg
        from repro.ssd.geometry import PhysicalPageAddress

        addr = PhysicalPageAddress(0, 0, 0, 0, 0)
        retries = injector.page_read_retries(addr)
        assert retries >= 1  # rate 1.0 always faults
        assert reg.counter("faults.page_reads").value == 1
        assert reg.counter("faults.retry_passes").value == retries


class TestTimeSeries:
    def test_samples_and_last(self):
        from repro.obs.metrics import TimeSeries

        ts = TimeSeries("qps", window_s=1.0)
        assert ts.last() is None
        ts.sample(0.5, 10.0)
        ts.sample(1.5, 20.0)
        assert ts.last() == 20.0
        assert ts.samples == [(0.5, 10.0), (1.5, 20.0)]

    def test_window_is_half_open(self):
        from repro.obs.metrics import TimeSeries

        ts = TimeSeries("g", window_s=1.0)
        for t, v in ((0.5, 1.0), (1.5, 2.0), (2.5, 3.0)):
            ts.sample(t, v)
        # (0.5, 1.5]: the trailing-edge sample at exactly 0.5 is OUT,
        # the leading-edge sample at exactly 1.5 is IN
        assert ts.window(1.5) == [2.0]
        # adjacent windows never double-count the boundary sample
        assert ts.window(0.5) == [1.0]

    def test_empty_window_stats(self):
        from repro.obs.metrics import TimeSeries

        ts = TimeSeries("g", window_s=0.1)
        assert ts.window(5.0) == []
        ts.sample(1.0, 7.0)
        assert ts.window(9.0) == []  # sample aged out

    def test_time_must_not_regress(self):
        from repro.obs.metrics import TimeSeries

        ts = TimeSeries("g", window_s=1.0)
        ts.sample(1.0, 1.0)
        ts.sample(1.0, 2.0)  # equal times fine (FIFO same-time events)
        with pytest.raises(ValueError):
            ts.sample(0.5, 3.0)

    def test_window_must_be_positive(self):
        from repro.obs.metrics import TimeSeries

        with pytest.raises(ValueError):
            TimeSeries("g", window_s=0.0)

    def test_registry_requires_window_at_creation(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.timeseries("fresh")
        ts = reg.timeseries("fresh", window_s=0.5)
        assert reg.timeseries("fresh") is ts  # later callers may omit

    def test_registry_rejects_kind_mismatch(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.timeseries("x", window_s=1.0)

    def test_snapshot_includes_timeseries(self):
        reg = MetricsRegistry()
        ts = reg.timeseries("load", window_s=1.0)
        ts.sample(0.1, 4.0)
        snap = reg.snapshot()
        assert snap["load"] == {"window_s": 1.0, "samples": 1, "last": 4.0}
