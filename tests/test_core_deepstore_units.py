"""Unit-level tests for DeepStoreSystem internals and QueryLatency."""

import pytest

from repro.core import DeepStoreSystem, QueryLatency
from repro.energy import EnergyBreakdown
from repro.ssd.ftl import DatabaseMetadata
from repro.workloads import get_app

from tests.conftest import make_db


def make_latency(**overrides):
    defaults = dict(
        app="x", level="channel", n_features=1000, accel_count=32,
        compute_spf=2e-6, io_spf=1e-6, bus_weight_spf=0.0,
        engine_seconds=1e-5, setup_seconds=2e-5, scan_seconds=1e-3,
        merge_seconds=5e-6, energy=EnergyBreakdown(compute_j=0.5),
        base_power_w=20.0,
    )
    defaults.update(overrides)
    return QueryLatency(**defaults)


class TestQueryLatency:
    def test_total_is_component_sum(self):
        lat = make_latency()
        assert lat.total_seconds == pytest.approx(1e-5 + 2e-5 + 1e-3 + 5e-6)

    def test_seconds_per_feature(self):
        lat = make_latency()
        assert lat.seconds_per_feature == pytest.approx(lat.total_seconds / 1000)

    @pytest.mark.parametrize(
        "compute,io,bus,expected",
        [
            (5e-6, 1e-6, 0.0, "compute"),
            (1e-6, 5e-6, 0.0, "flash"),
            (1e-6, 1e-6, 9e-6, "weight-broadcast"),
        ],
    )
    def test_bound_classification(self, compute, io, bus, expected):
        lat = make_latency(compute_spf=compute, io_spf=io, bus_weight_spf=bus)
        assert lat.bound == expected

    def test_power_includes_base(self):
        lat = make_latency()
        assert lat.power_w == pytest.approx(
            lat.accelerator_power_w + 20.0
        )
        assert lat.accelerator_power_w == pytest.approx(0.5 / lat.total_seconds)


class TestIoRates:
    def test_packed_vs_aligned_features(self, ssd):
        # a 2 KB feature (8/page) costs 1/8 page; a 44 KB feature costs 3
        system = DeepStoreSystem.at_level("channel")
        packed = ssd.ftl.create_database(2048, 100_000)
        aligned = ssd.ftl.create_database(44 * 1024, 10_000)
        page_time = 16384 / 800e6 + 0.2e-6
        assert system.io_seconds_per_feature(packed) == pytest.approx(
            page_time / 8, rel=0.01
        )
        assert system.io_seconds_per_feature(aligned) == pytest.approx(
            3 * page_time, rel=0.01
        )

    def test_ssd_level_feed_is_dram_bound(self, ssd):
        # aggregating 32 channels gives 25.6 GB/s, but the single
        # SSD-level accelerator sits behind the 20 GB/s DRAM — the feed
        # rate is the DRAM limit, not channels/32
        meta = ssd.ftl.create_database(2048, 100_000)
        ssd_level = DeepStoreSystem.at_level("ssd").io_seconds_per_feature(meta)
        pages_per_feature = 1 / 8
        dram_limit = 16384 / 20e9
        assert ssd_level == pytest.approx(pages_per_feature * dram_limit, rel=0.01)
        channel = DeepStoreSystem.at_level("channel").io_seconds_per_feature(meta)
        assert 20 < channel / ssd_level < 32  # between DRAM and channel ratios

    def test_bus_weight_only_at_chip_level(self, ssd):
        app = get_app("mir")
        graph = app.build_scn()
        chip = DeepStoreSystem.at_level("chip")
        channel = DeepStoreSystem.at_level("channel")
        assert chip.bus_weight_seconds_per_feature(graph, app.feature_bytes) > 0
        assert channel.bus_weight_seconds_per_feature(graph, app.feature_bytes) == 0

    def test_chip_bus_weight_scales_inverse_window(self, ssd):
        # features too large for the rebroadcast window shrink it,
        # raising the per-feature bus cost; sub-window sizes all cap at
        # the lockstep window of 24
        chip = DeepStoreSystem.at_level("chip")
        graph = get_app("estp").build_scn()
        small = chip.bus_weight_seconds_per_feature(graph, 800)
        capped = chip.bus_weight_seconds_per_feature(graph, 16 * 1024)
        huge = chip.bus_weight_seconds_per_feature(graph, 44 * 1024)
        assert small == pytest.approx(capped)
        assert huge > capped


class TestSystemBehaviour:
    def test_accelerator_cache_reused(self, ssd):
        app = get_app("tir")
        system = DeepStoreSystem.at_level("channel")
        graph = app.build_scn()
        assert system.accelerator_for(graph) is system.accelerator_for(graph)

    def test_engine_overheads_negligible_at_scale(self, ssd):
        app = get_app("tir")
        meta = make_db(ssd, app.feature_bytes, gigabytes=5.0)
        lat = DeepStoreSystem.at_level("channel").query_latency(app, meta)
        assert (lat.engine_seconds + lat.merge_seconds) < 0.01 * lat.total_seconds

    def test_setup_amortizes_with_db_size(self, ssd):
        app = get_app("estp")
        system = DeepStoreSystem.at_level("channel")
        small = system.query_latency(app, make_db(ssd, app.feature_bytes, 0.1))
        large = system.query_latency(app, make_db(ssd, app.feature_bytes, 10.0))
        assert small.setup_seconds == pytest.approx(large.setup_seconds)
        assert small.setup_seconds / small.total_seconds > \
            large.setup_seconds / large.total_seconds

    def test_scan_power_w(self, ssd):
        app = get_app("mir")
        meta = make_db(ssd, app.feature_bytes, gigabytes=1.0)
        power = DeepStoreSystem.at_level("channel").query_latency(app, meta).power_w
        assert 20.0 < power < 100.0  # base + accelerators, under the slot

    def test_latency_for_without_appspec(self, ssd):
        graph = get_app("tir").build_scn()
        meta = make_db(ssd, 2048, gigabytes=1.0)
        lat = DeepStoreSystem.at_level("channel").latency_for(
            graph, meta, feature_bytes=2048, name="custom"
        )
        assert lat.app == "custom"
        assert lat.total_seconds > 0

    def test_sliced_metadata_scales_linearly(self, ssd):
        app = get_app("tir")
        system = DeepStoreSystem.at_level("channel")
        full = make_db(ssd, app.feature_bytes, gigabytes=2.0)
        half = DatabaseMetadata(
            db_id=full.db_id, feature_bytes=full.feature_bytes,
            feature_count=full.feature_count // 2, page_bytes=full.page_bytes,
        )
        half.extents = full.extents
        t_full = system.query_latency(app, full).scan_seconds
        t_half = system.query_latency(app, half).scan_seconds
        assert t_full == pytest.approx(2 * t_half, rel=0.01)


class TestAsciiSeries:
    def test_shape(self):
        from repro.analysis.reporting import ascii_series

        out = ascii_series([1, 2, 4, 8])
        assert len(out) == 4
        assert out[0] != out[-1]

    def test_flat_series(self):
        from repro.analysis.reporting import ascii_series

        out = ascii_series([5, 5, 5])
        assert len(set(out)) == 1

    def test_label(self):
        from repro.analysis.reporting import ascii_series

        assert ascii_series([1, 2], label="fc").startswith("fc ")

    def test_empty_rejected(self):
        from repro.analysis.reporting import ascii_series

        with pytest.raises(ValueError):
            ascii_series([])
