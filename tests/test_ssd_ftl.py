"""Tests for the block FTL, database metadata, and DRAM model."""

import pytest
from hypothesis import given, strategies as st

from repro.ssd import BlockFtl, DatabaseMetadata, FtlError, SsdDram, SsdGeometry
from repro.ssd.dram import DramError


class TestDatabaseLayout:
    def test_page_aligned_large_features(self):
        meta = DatabaseMetadata(db_id=1, feature_bytes=44 * 1024, feature_count=10)
        assert meta.page_aligned
        assert meta.pages_per_feature == 3  # 44KB in 16KB pages
        assert meta.total_pages == 30
        assert meta.stored_bytes == 30 * 16384

    def test_packed_small_features(self):
        meta = DatabaseMetadata(db_id=1, feature_bytes=800, feature_count=100)
        assert not meta.page_aligned
        assert meta.features_per_page == 20
        assert meta.total_pages == 5

    def test_exact_page_feature(self):
        meta = DatabaseMetadata(db_id=1, feature_bytes=16 * 1024, feature_count=7)
        assert meta.page_aligned
        assert meta.pages_per_feature == 1
        assert meta.total_pages == 7

    def test_feature_page_span_aligned(self):
        meta = DatabaseMetadata(db_id=1, feature_bytes=44 * 1024, feature_count=10)
        assert meta.feature_page_span(0) == (0, 3)
        assert meta.feature_page_span(2) == (6, 3)

    def test_feature_page_span_packed(self):
        meta = DatabaseMetadata(db_id=1, feature_bytes=2048, feature_count=100)
        assert meta.feature_page_span(0) == (0, 1)
        assert meta.feature_page_span(9) == (1, 1)  # 8 features/page

    def test_span_out_of_range(self):
        meta = DatabaseMetadata(db_id=1, feature_bytes=2048, feature_count=10)
        with pytest.raises(FtlError):
            meta.feature_page_span(10)

    def test_validation(self):
        with pytest.raises(ValueError):
            DatabaseMetadata(db_id=1, feature_bytes=0, feature_count=1)


class TestBlockFtl:
    def test_create_database_allocates_extent(self):
        ftl = BlockFtl(SsdGeometry())
        meta = ftl.create_database(2048, 1000)
        assert len(meta.extents) == 1
        assert meta.extents[0].start_ppn == BlockFtl.RESERVED_PAGES
        assert meta.extents[0].num_pages == meta.total_pages

    def test_databases_do_not_overlap(self):
        ftl = BlockFtl(SsdGeometry())
        a = ftl.create_database(2048, 1000)
        b = ftl.create_database(2048, 1000)
        assert b.extents[0].start_ppn >= a.extents[0].end_ppn

    def test_db_ids_unique(self):
        ftl = BlockFtl(SsdGeometry())
        ids = {ftl.create_database(2048, 10).db_id for _ in range(5)}
        assert len(ids) == 5

    def test_out_of_space(self):
        geo = SsdGeometry(channels=2, chips_per_channel=1, planes_per_chip=1,
                          blocks_per_plane=2, pages_per_block=64)
        ftl = BlockFtl(geo)
        with pytest.raises(FtlError):
            ftl.create_database(16 * 1024, geo.total_pages + 1)

    def test_append_extends_pages(self):
        ftl = BlockFtl(SsdGeometry())
        meta = ftl.create_database(16 * 1024, 100)
        ftl.append(meta.db_id, 50)
        assert meta.feature_count == 150
        assert meta.total_pages == 150
        assert len(meta.extents) == 2

    def test_subpage_append_buffers(self):
        ftl = BlockFtl(SsdGeometry())
        meta = ftl.create_database(2048, 5)  # one page, 3 slots free
        ftl.append(meta.db_id, 2)  # fits the current tail page
        assert meta.feature_count == 7
        assert meta.total_pages == 1
        ftl.append(meta.db_id, 4)  # overflows into a new page
        assert meta.total_pages == 2
        assert len(meta.extents) == 2

    def test_unknown_db(self):
        ftl = BlockFtl(SsdGeometry())
        with pytest.raises(FtlError):
            ftl.get(42)
        with pytest.raises(FtlError):
            ftl.append(42, 1)

    def test_page_offset_to_ppn_through_extents(self):
        ftl = BlockFtl(SsdGeometry())
        meta = ftl.create_database(16 * 1024, 10)
        ftl.create_database(16 * 1024, 5)  # intervening allocation
        ftl.append(meta.db_id, 10)
        first = meta.page_offset_to_ppn(0)
        last = meta.page_offset_to_ppn(19)
        assert first == meta.extents[0].start_ppn
        assert last == meta.extents[1].start_ppn + 9
        with pytest.raises(FtlError):
            meta.page_offset_to_ppn(20)

    def test_all_ppns_count(self):
        ftl = BlockFtl(SsdGeometry())
        meta = ftl.create_database(2048, 1000)
        assert len(list(meta.all_ppns())) == meta.total_pages

    @given(st.integers(min_value=1, max_value=65536),
           st.integers(min_value=1, max_value=2000))
    def test_stored_bytes_cover_payload(self, feature_bytes, count):
        meta = DatabaseMetadata(db_id=1, feature_bytes=feature_bytes,
                                feature_count=count)
        assert meta.stored_bytes >= feature_bytes * count * (
            1 if meta.page_aligned else 0.5
        )
        # packing never wastes more than one page per feature/page group
        if meta.page_aligned:
            assert meta.total_pages == count * meta.pages_per_feature


class TestSsdDram:
    def test_allocate_and_free(self):
        dram = SsdDram(1024, 1e9)
        dram.allocate("a", 512)
        assert dram.free_bytes == 512
        dram.allocate("a", 256)  # resize
        assert dram.free_bytes == 768
        dram.free("a")
        assert dram.free_bytes == 1024

    def test_over_allocation(self):
        dram = SsdDram(1024, 1e9)
        with pytest.raises(DramError):
            dram.allocate("x", 2048)

    def test_free_unknown(self):
        with pytest.raises(DramError):
            SsdDram(1024, 1e9).free("nope")

    def test_transfer_seconds(self):
        dram = SsdDram(1024, 20e9)
        assert dram.transfer_seconds(20_000_000_000) == pytest.approx(1.0)
        assert dram.transfer_seconds(1e9, sharers=2) == pytest.approx(0.1)
        assert dram.bytes_transferred == 20_000_000_000 + 1e9

    def test_validation(self):
        with pytest.raises(ValueError):
            SsdDram(0, 1e9)
        with pytest.raises(DramError):
            SsdDram(1024, 1e9).transfer_seconds(-1)
