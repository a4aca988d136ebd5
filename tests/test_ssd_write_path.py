"""Tests for the write-path timing (writeDB / appendDB / GC cost)."""

import numpy as np
import pytest

from repro.core.api import DeepStoreDevice
from repro.ssd.gc import PageMappedFtl
from repro.ssd.timing import FlashTiming


class TestFlashWriteTiming:
    def test_program_erase_defaults(self):
        t = FlashTiming()
        assert t.program_latency_s == pytest.approx(600e-6)
        assert t.erase_latency_s == pytest.approx(3e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashTiming(program_latency_s=0)
        with pytest.raises(ValueError):
            FlashTiming(erase_latency_s=-1)


class TestDatabaseWriteSeconds:
    def test_large_db_is_external_link_bound(self, ssd):
        # 8 GB payload: internal write rate (32 channels in parallel)
        # exceeds the 3.2 GB/s host link, so ingest time ~ payload / link
        meta = ssd.ftl.create_database(16 * 1024, 500_000)
        seconds = ssd.database_write_seconds(meta)
        external = meta.stored_bytes / 3.2e9
        assert seconds == pytest.approx(external, rel=0.05)

    def test_scales_linearly(self, ssd):
        small = ssd.ftl.create_database(2048, 100_000)
        large = ssd.ftl.create_database(2048, 400_000)
        assert ssd.database_write_seconds(large) == pytest.approx(
            4 * ssd.database_write_seconds(small), rel=0.05
        )

    def test_write_slower_than_read(self, ssd):
        # sequential ingest can't beat a sequential external read
        meta = ssd.ftl.create_database(2048, 200_000)
        assert ssd.database_write_seconds(meta) >= ssd.host_read_seconds(
            meta.stored_bytes
        ) * 0.99

    def test_gc_seconds(self, ssd):
        t = ssd.gc_seconds(relocations=3200, erases=32)
        per_reloc = 53e-6 + 600e-6
        assert t == pytest.approx((3200 * per_reloc + 32 * 3e-3) / 32)
        with pytest.raises(ValueError):
            ssd.gc_seconds(-1, 0)

    def test_gc_cost_from_real_churn(self, ssd):
        # couple the functional GC to the timing model
        ftl = PageMappedFtl(16, 32, int(16 * 32 * 0.75))
        rng = np.random.default_rng(0)
        for _ in range(5000):
            ftl.write(int(rng.integers(0, ftl.logical_pages)))
        seconds = ssd.gc_seconds(ftl.stats.relocations, ftl.stats.erases)
        assert seconds > 0


class TestDeviceIngestAccounting:

    def test_write_once_query_many_economics(self, rng):
        # the paper's §4.7.2 premise: one ingest amortizes over many
        # queries — a query is much cheaper than the ingest
        from repro.nn import graph_to_bytes
        from repro.workloads import get_app

        app = get_app("tir")
        device = DeepStoreDevice()
        features = rng.normal(0, 1, (8192, 512)).astype(np.float32)
        db = device.write_db(features)
        model = device.load_model(graph_to_bytes(app.build_scn()))
        result = device.get_results(
            device.query(rng.normal(0, 1, 512).astype(np.float32), 5, model, db)
        )
        ingest = device.ssd.database_write_seconds(device.ssd.ftl.get(db))
        assert result.seconds < ingest
