"""Tests for accelerator placements (Table 3) and the query engine."""

import pytest

from repro.core import CHANNEL_LEVEL, CHIP_LEVEL, LEVELS, SSD_LEVEL
from repro.core.engine import EngineCosts, QueryEngine
from repro.core.topk import topk_select
from repro.core.placement import AcceleratorPlacement, UnsupportedModelError
from repro.systolic import SystolicConfig
from repro.workloads import get_app


class TestTable3Configs:
    def test_ssd_level(self):
        assert SSD_LEVEL.systolic.rows == 32
        assert SSD_LEVEL.systolic.cols == 64
        assert SSD_LEVEL.systolic.dataflow == "OS"
        assert SSD_LEVEL.systolic.frequency_hz == 800e6
        assert SSD_LEVEL.scratchpad_bytes == 8 * 1024 * 1024
        assert SSD_LEVEL.area_mm2 == 31.7

    def test_channel_level(self):
        assert CHANNEL_LEVEL.systolic.rows == 16
        assert CHANNEL_LEVEL.systolic.cols == 64
        assert CHANNEL_LEVEL.scratchpad_bytes == 512 * 1024
        assert CHANNEL_LEVEL.area_mm2 == 7.4

    def test_chip_level(self):
        assert CHIP_LEVEL.systolic.rows == 4
        assert CHIP_LEVEL.systolic.cols == 32
        assert CHIP_LEVEL.systolic.dataflow == "WS"
        assert CHIP_LEVEL.systolic.frequency_hz == 400e6
        assert CHIP_LEVEL.sram_model == "itrs-lop"
        assert CHIP_LEVEL.area_mm2 == 2.5

    def test_counts(self, ssd_config):
        assert SSD_LEVEL.count(ssd_config) == 1
        assert CHANNEL_LEVEL.count(ssd_config) == 32
        assert CHIP_LEVEL.count(ssd_config) == 128

    def test_power_budgets(self, ssd_config):
        # paper §4.5: 55 W / 1.71 W / 0.43 W
        assert SSD_LEVEL.power_budget_w(ssd_config) == pytest.approx(55.0)
        assert CHANNEL_LEVEL.power_budget_w(ssd_config) == pytest.approx(1.72, abs=0.02)
        assert CHIP_LEVEL.power_budget_w(ssd_config) == pytest.approx(0.43, abs=0.01)

    def test_counts_scale_with_channels(self, ssd_config):
        small = ssd_config.with_channels(8)
        assert CHANNEL_LEVEL.count(small) == 8
        assert CHIP_LEVEL.count(small) == 32


class TestSupport:
    def test_chip_rejects_conv_models(self):
        reid = get_app("reid").build_scn()
        assert not CHIP_LEVEL.supports(reid)
        with pytest.raises(UnsupportedModelError):
            CHIP_LEVEL.check_supported(reid)

    def test_chip_accepts_fc_models(self):
        for name in ("mir", "estp", "tir", "textqa"):
            assert CHIP_LEVEL.supports(get_app(name).build_scn())

    def test_other_levels_accept_everything(self):
        reid = get_app("reid").build_scn()
        assert SSD_LEVEL.supports(reid)
        assert CHANNEL_LEVEL.supports(reid)


class TestHierarchies:
    def test_channel_has_shared_l2(self, ssd_config):
        h = CHANNEL_LEVEL.build_hierarchy(ssd_config)
        assert h.l2 is not None
        assert h.l2.size_bytes == SSD_LEVEL.scratchpad_bytes

    def test_ssd_level_no_l2(self, ssd_config):
        assert SSD_LEVEL.build_hierarchy(ssd_config).l2 is None

    def test_chip_streams_over_channel_bus(self, ssd_config):
        h = CHIP_LEVEL.build_hierarchy(ssd_config)
        assert h.dram.name == "channel-bus"
        assert h.dram.bandwidth_bytes_per_s == pytest.approx(800e6)

    def test_dfv_buffer_bounds(self):
        assert CHIP_LEVEL.dfv_buffer_features(16 * 1024) <= CHIP_LEVEL.dfv_window
        assert CHIP_LEVEL.dfv_buffer_features(800) == CHIP_LEVEL.dfv_window
        with pytest.raises(ValueError):
            CHIP_LEVEL.dfv_buffer_features(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AcceleratorPlacement(
                level="rack", systolic=SystolicConfig(4, 4),
                scratchpad_bytes=1024, sram_model="itrs-hp", area_mm2=1.0,
            )

    def test_levels_registry(self):
        assert set(LEVELS) == {"ssd", "channel", "chip"}


class TestQueryEngine:
    def test_dispatch_scales_with_accels(self, ssd_config):
        engine = QueryEngine(ssd_config)
        assert engine.dispatch_seconds(32) > engine.dispatch_seconds(1)

    def test_merge_scales_with_k(self, ssd_config):
        engine = QueryEngine(ssd_config)
        assert engine.merge_seconds(32, 100) == pytest.approx(
            10 * engine.merge_seconds(32, 10)
        )

    def test_result_transfer(self, ssd_config):
        engine = QueryEngine(ssd_config)
        t = engine.result_transfer_seconds(10, 2048)
        assert t == pytest.approx(10 * (2048 + 8) / 3.2e9)

    def test_overhead_well_below_scan(self, ssd_config):
        engine = QueryEngine(ssd_config)
        assert engine.query_overhead_seconds(32, 10) < 1e-3

    def test_energy(self, ssd_config):
        engine = QueryEngine(ssd_config)
        assert engine.energy_j(1.0) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            engine.energy_j(-1)

    def test_functional_merge(self):
        # the engine's reduce: the canonical top-K of every partial
        merged = topk_select([(0.9, 1)] + [(0.95, 2)], 1)
        assert merged == [(0.95, 2)]

    def test_validation(self, ssd_config):
        engine = QueryEngine(ssd_config)
        with pytest.raises(ValueError):
            engine.dispatch_seconds(0)
        with pytest.raises(ValueError):
            engine.merge_seconds(4, 0)
        with pytest.raises(ValueError):
            EngineCosts(parse_seconds=-1)
