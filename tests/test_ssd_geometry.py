"""Tests for SSD geometry and addressing."""

import pytest

from repro.ssd import SsdGeometry


class TestCapacities:
    def test_paper_defaults(self):
        geo = SsdGeometry()
        assert geo.channels == 32
        assert geo.chips_per_channel == 4
        assert geo.planes_per_chip == 8
        assert geo.page_bytes == 16 * 1024
        assert geo.planes_per_channel == 32
        assert geo.total_planes == 1024
        # 32ch * 4chips * 8planes * 512blocks * 128pages * 16KB = 1 TiB
        assert geo.capacity_bytes == 1024**4

    def test_validation(self):
        with pytest.raises(ValueError):
            SsdGeometry(channels=0)
        with pytest.raises(ValueError):
            SsdGeometry(page_bytes=-1)


class TestAddressing:
    def test_sequential_ppns_stripe_across_channels(self):
        geo = SsdGeometry()
        channels = [geo.ppn_to_address(i).channel for i in range(64)]
        assert channels == list(range(32)) * 2

    def test_then_chips(self):
        geo = SsdGeometry()
        # after one full sweep of channels, the chip advances
        assert geo.ppn_to_address(0).chip == 0
        assert geo.ppn_to_address(32).chip == 1

    def test_decoding_is_a_bijection(self):
        geo = SsdGeometry(channels=4, chips_per_channel=2, planes_per_chip=2,
                          blocks_per_plane=8, pages_per_block=4)
        addrs = {geo.ppn_to_address(ppn) for ppn in range(geo.total_pages)}
        assert len(addrs) == geo.total_pages
        assert all(
            a.channel < 4 and a.chip < 2 and a.plane < 2 and a.block < 8
            and a.page < 4 for a in addrs
        )

    def test_out_of_range_ppn(self):
        geo = SsdGeometry()
        with pytest.raises(ValueError):
            geo.ppn_to_address(geo.total_pages)
        with pytest.raises(ValueError):
            geo.ppn_to_address(-1)

    def test_scaled_changes_only_channels(self):
        geo = SsdGeometry().scaled(8)
        assert geo.channels == 8
        assert geo.chips_per_channel == 4
