"""Tests for the energy/area models."""

import pytest

from repro.energy import CactiLite, EnergyBreakdown, EnergyModel, EnergyTables
from repro.systolic import GraphMapper, ScratchpadHierarchy, ScratchpadLevel
from repro.systolic.array import SystolicArray, SystolicConfig
from repro.workloads import get_app


class TestCactiLite:
    def test_energy_grows_with_capacity(self):
        c = CactiLite()
        e = [c.access_energy_pj(s) for s in (8 * 1024, 512 * 1024, 8 * 1024**2)]
        assert e[0] < e[1] < e[2]

    def test_lop_saves_energy(self):
        c = CactiLite()
        assert c.access_energy_pj(512 * 1024, "itrs-lop") < c.access_energy_pj(
            512 * 1024, "itrs-hp"
        )

    def test_area_grows_linearly(self):
        c = CactiLite()
        small = c.area_mm2(512 * 1024)
        big = c.area_mm2(8 * 1024 * 1024)
        assert big - c.a0_mm2 == pytest.approx(16 * (small - c.a0_mm2), rel=0.01)

    def test_validation(self):
        c = CactiLite()
        with pytest.raises(ValueError):
            c.access_energy_pj(0)
        with pytest.raises(ValueError):
            c.access_energy_pj(1024, "tsmc")
        with pytest.raises(ValueError):
            c.area_mm2(-1)

    def test_joules_conversion(self):
        c = CactiLite()
        assert c.access_energy_j(1024) == pytest.approx(
            c.access_energy_pj(1024) * 1e-12
        )


class TestEnergyTables:
    def test_dram_per_word(self):
        t = EnergyTables()
        assert t.dram_j_per_word() == pytest.approx(32 * 20e-12)

    def test_flash_pages(self):
        t = EnergyTables()
        assert t.flash_j_for_pages(4) == pytest.approx(100e-6)
        with pytest.raises(ValueError):
            t.flash_j_for_pages(-1)

    def test_noc(self):
        t = EnergyTables()
        assert t.noc_j(1000, 2.0) == pytest.approx(1000 * 2.0 * 0.08e-12)
        with pytest.raises(ValueError):
            t.noc_j(-1, 1)


class TestEnergyBreakdown:
    def test_totals_and_fractions(self):
        b = EnergyBreakdown(compute_j=1.0, sram_j=2.0, dram_j=1.0, flash_j=4.0)
        assert b.memory_j == 3.0
        assert b.total_j == 8.0
        f = b.fractions()
        assert f["compute"] == pytest.approx(0.125)
        assert f["memory"] == pytest.approx(0.375)
        assert f["flash"] == pytest.approx(0.5)
        assert sum(f.values()) == pytest.approx(1.0)

    def test_add_and_scale(self):
        b = EnergyBreakdown(compute_j=1.0) + EnergyBreakdown(flash_j=2.0)
        assert b.total_j == 3.0
        assert b.scaled(2).total_j == 6.0

    def test_zero_fractions(self):
        assert EnergyBreakdown().fractions() == {
            "compute": 0.0, "memory": 0.0, "flash": 0.0,
        }


class TestEnergyModel:
    def make_profile(self, app_name="tir"):
        l1 = ScratchpadLevel("l1", 512 * 1024, 1e12)
        l2 = ScratchpadLevel("l2", 8 * 1024**2, 20e9)
        dram = ScratchpadLevel("dram", 4 * 1024**3, 20e9)
        mapper = GraphMapper(
            SystolicArray(SystolicConfig(rows=16, cols=64)),
            ScratchpadHierarchy(l1, l2=l2, dram=dram),
        )
        return mapper.map_graph(get_app(app_name).build_scn())

    def test_feature_energy_positive_components(self):
        model = EnergyModel()
        e = model.accelerator_feature_energy(
            self.make_profile(), 512 * 1024, flash_pages_per_feature=0.125,
            area_mm2=7.4,
        )
        assert e.compute_j > 0
        assert e.sram_j > 0
        assert e.flash_j > 0
        assert e.total_j > e.compute_j

    def test_flash_dominates_io_heavy_apps(self):
        # TextQA reads 0.8 KB per 0.08 MFLOP -> flash is the biggest share
        model = EnergyModel()
        e = model.accelerator_feature_energy(
            self.make_profile("textqa"), 512 * 1024,
            flash_pages_per_feature=1 / 20, area_mm2=7.4,
        )
        f = e.fractions()
        assert f["flash"] > f["compute"]

    def test_banking_reduces_sram_energy(self):
        profile = self.make_profile()
        flat = EnergyModel(sram_banks=1).accelerator_feature_energy(
            profile, 512 * 1024
        )
        banked = EnergyModel(sram_banks=32).accelerator_feature_energy(
            profile, 512 * 1024
        )
        assert banked.sram_j < flat.sram_j

    def test_power_within_channel_budget(self):
        # the Table-3 channel design must respect its 1.71 W share for
        # the resident-weight apps
        model = EnergyModel()
        for app_name in ("mir", "tir", "textqa", "estp"):
            profile = self.make_profile(app_name)
            power = model.accelerator_power_w(
                profile, 512 * 1024,
                seconds_per_feature=max(
                    profile.seconds_per_feature, 2048 / 800e6
                ),
                area_mm2=7.4,
            )
            assert power < 2.2, f"{app_name} draws {power:.2f} W"

    def test_power_requires_positive_time(self):
        model = EnergyModel()
        with pytest.raises(ValueError):
            model.accelerator_power_w(self.make_profile(), 512 * 1024, 0.0)
