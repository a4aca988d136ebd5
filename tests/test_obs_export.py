"""Tests for latency breakdowns, utilization timelines, and profiles."""

import pytest

from repro.core.event_query import EventQuerySimulator
from repro.obs import (
    MetricsRegistry,
    Tracer,
    profile_resources,
    query_breakdown,
    utilization_timelines,
)
from repro.obs.export import LatencyBreakdown
from repro.ssd import Ssd
from repro.workloads import get_app


@pytest.fixture(scope="module")
def traced_run():
    """One traced + metered event-driven query on a small database."""
    ssd = Ssd()
    app = get_app("tir")
    meta = ssd.ftl.create_database(app.feature_bytes, 20_000)
    tracer = Tracer()
    metrics = MetricsRegistry()
    result = EventQuerySimulator().run(
        app, meta, max_pages_per_channel=32, tracer=tracer, metrics=metrics
    )
    return result, tracer, metrics


class TestLatencyBreakdown:
    def test_components_sum_exactly(self, traced_run):
        """Acceptance criterion: breakdown sums to end-to-end latency."""
        result, _, _ = traced_run
        breakdown = query_breakdown(result)
        # same floats the simulator added -> exact equality, not approx
        assert breakdown.component_sum == breakdown.total_seconds
        assert breakdown.total_seconds == result.total_seconds

    def test_overhead_components_match_result(self, traced_run):
        result, _, _ = traced_run
        comp = query_breakdown(result).components
        assert comp["flash scan (overlapped I/O+compute)"] == result.scan_seconds
        assert comp["engine dispatch"] == result.dispatch_seconds
        assert comp["top-K merge"] == result.merge_seconds
        assert comp["accelerator setup"] == result.setup_seconds

    def test_fractions(self):
        b = LatencyBreakdown(total_seconds=4.0, components={"a": 1.0, "b": 3.0})
        assert b.fraction("a") == 0.25
        assert b.fraction("missing") == 0.0
        d = b.as_dict()
        assert d["fractions"]["b"] == 0.75

    def test_zero_total_fraction(self):
        assert LatencyBreakdown(total_seconds=0.0).fraction("x") == 0.0

    def test_table_renders(self, traced_run):
        result, _, _ = traced_run
        text = query_breakdown(result).table().render()
        assert "flash scan" in text
        assert "100.0%" in text


class TestUtilizationTimelines:
    def test_fractions_in_unit_interval(self, traced_run):
        _, tracer, _ = traced_run
        lines = utilization_timelines(tracer, bins=16)
        assert lines  # resource tracks exist
        for name, series in lines.items():
            assert len(series) == 16
            assert all(0.0 <= f <= 1.0 for f in series)

    def test_phase_tracks_excluded(self, traced_run):
        _, tracer, _ = traced_run
        lines = utilization_timelines(tracer, bins=8)
        assert not any(name.startswith("engine/") for name in lines)

    def test_known_occupancy(self):
        t = Tracer()
        track = t.track("ch", "bus")
        t.complete(track, "xfer", 0.0, 1.0, cat="ssd.bus")  # busy [0, 1]
        series = utilization_timelines(t, bins=4, end=2.0)["ch/bus"]
        assert series == pytest.approx([1.0, 1.0, 0.0, 0.0])

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError):
            utilization_timelines(Tracer(), bins=0)

    def test_empty_tracer_yields_nothing(self):
        assert utilization_timelines(Tracer()) == {}


class TestProfileResources:
    def test_sorted_busiest_first(self, traced_run):
        _, tracer, _ = traced_run
        usages = profile_resources(tracer)
        busy = [u.busy_seconds for u in usages]
        assert busy == sorted(busy, reverse=True)
        for u in usages:
            assert 0.0 <= u.utilization <= 1.0
            assert u.idle_seconds >= 0.0
            assert u.spans > 0

    def test_top_limits_output(self, traced_run):
        _, tracer, _ = traced_run
        assert len(profile_resources(tracer, top=2)) == 2

    @pytest.mark.parametrize("top", [0, -1, 2.0, 1.5, True])
    def test_top_must_be_an_integer_of_at_least_one(
        self, traced_run, top
    ):
        # a slice bound would silently drop the least-busy resource
        # (-1) or print an empty table (0)
        _, tracer, _ = traced_run
        with pytest.raises(ValueError, match="top"):
            profile_resources(tracer, top=top)

    def test_idle_gap_walk(self):
        t = Tracer()
        track = t.track("ch", "accel")
        t.complete(track, "a", 1.0, 1.0, cat="accel.compute")  # [1, 2]
        t.complete(track, "b", 4.0, 1.0, cat="accel.compute")  # [4, 5]
        (usage,) = profile_resources(t, end=6.0)
        # gaps: [0,1], [2,4], [5,6] -> longest 2.0
        assert usage.idle_gaps == 3
        assert usage.longest_idle_gap_s == pytest.approx(2.0)
        assert usage.busy_seconds == pytest.approx(2.0)
        assert usage.utilization == pytest.approx(2.0 / 6.0)
        d = usage.as_dict()
        assert d["idle_gaps"] == 3

    def test_metrics_snapshot_has_engine_and_ssd(self, traced_run):
        _, _, metrics = traced_run
        snap = metrics.snapshot()
        assert snap["engine.queries"] == 1
        assert snap["ssd.pages_delivered"] > 0
        assert snap["ssd.page_delivery_s"]["count"] == snap["ssd.pages_delivered"]
