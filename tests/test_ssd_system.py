"""Tests for trace generation and whole-SSD scan measurements."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ssd import Ssd, SsdConfig
from repro.ssd.trace import scan_trace, stripe_page_count


class TestScanTrace:
    def test_full_scan_covers_all_pages(self, ssd):
        meta = ssd.ftl.create_database(2048, 8000)
        trace = list(scan_trace(meta, ssd.config.geometry))
        assert len(trace) == meta.total_pages
        assert [t.db_page_offset for t in trace] == list(range(meta.total_pages))

    def test_channel_filter(self, ssd):
        meta = ssd.ftl.create_database(2048, 8000)
        trace = list(scan_trace(meta, ssd.config.geometry, channel=3))
        assert trace
        assert all(t.address.channel == 3 for t in trace)

    def test_window(self, ssd):
        meta = ssd.ftl.create_database(2048, 8000)
        trace = list(scan_trace(meta, ssd.config.geometry, start_page=10, max_pages=5))
        assert len(trace) == 5
        assert trace[0].db_page_offset == 10

    def test_invalid_channel(self, ssd):
        meta = ssd.ftl.create_database(2048, 100)
        with pytest.raises(ValueError):
            list(scan_trace(meta, ssd.config.geometry, channel=99))

    def test_stripe_counts_sum_to_total(self, ssd):
        meta = ssd.ftl.create_database(2048, 12345)
        geo = ssd.config.geometry
        total = sum(stripe_page_count(meta, geo, ch) for ch in range(geo.channels))
        assert total == meta.total_pages

    @given(st.integers(min_value=1, max_value=30000))
    @settings(max_examples=20, deadline=None)
    def test_stripe_count_matches_trace(self, count):
        ssd = Ssd()
        meta = ssd.ftl.create_database(4096, count)
        geo = ssd.config.geometry
        for ch in (0, 7, 31):
            expected = len(list(scan_trace(meta, geo, channel=ch)))
            assert stripe_page_count(meta, geo, ch) == expected


class TestScanMeasurement:
    def test_full_ssd_scan_near_internal_bandwidth(self):
        ssd = Ssd()
        meta = ssd.ftl.create_database(2048, 200000)
        bw = ssd.measure_scan_bandwidth(meta, window_pages=2048)
        assert bw == pytest.approx(ssd.config.internal_bandwidth, rel=0.1)

    def test_one_channel_near_channel_bandwidth(self):
        ssd = Ssd()
        meta = ssd.ftl.create_database(2048, 200000)
        trace = list(scan_trace(meta, ssd.config.geometry, channel=0, max_pages=400))
        m = ssd.read_pages(trace)
        assert m.bandwidth == pytest.approx(800e6, rel=0.1)

    def test_empty_trace(self):
        ssd = Ssd()
        m = ssd.read_pages([])
        assert m.pages == 0 and m.seconds == 0.0

    def test_latency_insensitivity_of_scan(self):
        # Fig. 9's substrate claim: 4x array latency costs ~10% or less
        def scan_time(latency):
            ssd = Ssd(SsdConfig().with_flash_latency(latency))
            meta = ssd.ftl.create_database(2048, 200000)
            trace = list(
                scan_trace(meta, ssd.config.geometry, channel=0, max_pages=400)
            )
            return ssd.read_pages(trace).seconds

        assert scan_time(212e-6) / scan_time(53e-6) < 1.15

    def test_host_read_seconds(self):
        ssd = Ssd()
        assert ssd.host_read_seconds(3_200_000_000) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            ssd.host_read_seconds(-1)


class TestSsdConfig:
    def test_power_budget(self):
        cfg = SsdConfig()
        assert cfg.accelerator_power_budget_w == pytest.approx(55.0)

    def test_internal_bandwidth(self):
        assert SsdConfig().internal_bandwidth == pytest.approx(32 * 800e6)

    def test_with_channels(self):
        cfg = SsdConfig().with_channels(8)
        assert cfg.geometry.channels == 8
        assert cfg.internal_bandwidth == pytest.approx(8 * 800e6)

    def test_with_flash_latency(self):
        cfg = SsdConfig().with_flash_latency(7e-6)
        assert cfg.timing.array_read_latency_s == 7e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            SsdConfig(external_bandwidth=0)
