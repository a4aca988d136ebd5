"""Tests for the whole-device event-driven query simulator."""

import pytest

from repro.core import DeepStoreSystem
from repro.core.event_query import EventQuerySimulator
from repro.core.placement import SSD_LEVEL
from repro.ssd import Ssd, SsdConfig
from repro.workloads import get_app


@pytest.fixture(scope="module")
def small_db():
    """A deliberately small database so a full DES run is cheap."""
    ssd = Ssd()
    app = get_app("tir")
    meta = ssd.ftl.create_database(app.feature_bytes, 40_000)  # ~80 MB
    return app, meta


class TestEventQuerySimulator:
    def test_matches_analytic_model(self, small_db):
        app, meta = small_db
        event = EventQuerySimulator().run(app, meta)
        analytic = DeepStoreSystem.at_level("channel").query_latency(app, meta)
        assert event.total_seconds == pytest.approx(
            analytic.total_seconds, rel=0.20
        )

    def test_covers_all_pages(self, small_db):
        app, meta = small_db
        event = EventQuerySimulator().run(app, meta)
        assert event.pages == meta.total_pages

    def test_channel_skew_is_small(self, small_db):
        # the striped layout balances stripes, so completion skew across
        # channels stays tight
        app, meta = small_db
        event = EventQuerySimulator().run(app, meta)
        assert event.channel_skew < 1.1

    def test_window_mode(self, small_db):
        app, meta = small_db
        window = EventQuerySimulator().run(app, meta, max_pages_per_channel=32)
        full = EventQuerySimulator().run(app, meta)
        assert window.pages < full.pages
        assert window.scan_seconds < full.scan_seconds

    @pytest.mark.parametrize("cap", [0, -1, 2.5, True])
    def test_window_must_be_an_integer_of_at_least_one(
        self, small_db, cap
    ):
        # a slice bound would scan no page (0) or drop every channel's
        # last page (-1) and still report a query
        app, meta = small_db
        with pytest.raises(ValueError, match="max_pages_per_channel"):
            EventQuerySimulator().run(app, meta, max_pages_per_channel=cap)

    def test_latency_insensitivity_full_device(self):
        # the Fig. 9 claim at whole-device scope
        app = get_app("tir")
        times = {}
        for latency in (53e-6, 212e-6):
            config = SsdConfig().with_flash_latency(latency)
            ssd = Ssd(config)
            meta = ssd.ftl.create_database(app.feature_bytes, 40_000)
            result = EventQuerySimulator(ssd=config).run(app, meta)
            times[latency] = result.scan_seconds
        assert times[212e-6] / times[53e-6] < 1.35

    def test_rejects_other_levels(self):
        with pytest.raises(ValueError):
            EventQuerySimulator(placement=SSD_LEVEL)
        with pytest.raises(ValueError):
            EventQuerySimulator(queue_depth=0)


class TestChipChannelSimulation:
    @pytest.mark.parametrize("name", ["mir", "textqa", "tir"])
    def test_matches_analytic_chip_model(self, name):
        from repro.core.event_query import simulate_chip_channel

        ssd = Ssd()
        app = get_app(name)
        meta = ssd.ftl.create_database(app.feature_bytes, 1_000_000)
        event = simulate_chip_channel(app, meta, max_pages=256)
        lat = DeepStoreSystem.at_level("chip").query_latency(app, meta)
        analytic_pf = max(lat.io_spf + lat.bus_weight_spf, lat.compute_spf)
        # event is slightly faster: broadcasts overlap chip compute
        assert 0.7 < event.seconds_per_feature / analytic_pf < 1.15

    def test_weight_broadcasts_counted(self):
        from repro.core.event_query import simulate_chip_channel
        from repro.core.placement import CHIP_LEVEL

        ssd = Ssd()
        app = get_app("mir")
        meta = ssd.ftl.create_database(app.feature_bytes, 1_000_000)
        result = simulate_chip_channel(app, meta, max_pages=256)
        window = CHIP_LEVEL.dfv_buffer_features(app.feature_bytes)
        expected_rounds = result.features / (window * 4)
        assert result.weight_broadcasts == pytest.approx(expected_rounds, abs=2)

    def test_broadcasts_saturate_bus_for_big_models(self):
        from repro.core.event_query import simulate_chip_channel

        ssd = Ssd()
        # MIR's 2 MB model rebroadcast every 96 features keeps the bus
        # mostly busy with weights
        app = get_app("mir")
        meta = ssd.ftl.create_database(app.feature_bytes, 1_000_000)
        result = simulate_chip_channel(app, meta, max_pages=256)
        assert result.bus_busy_seconds / result.seconds > 0.8
