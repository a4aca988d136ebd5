"""Tests for flash chip/plane timing and the channel controller."""

import pytest

from repro.sim import Simulator
from repro.ssd import ChannelController, FlashChip, FlashTiming, SsdGeometry
from repro.ssd.flash import PageReadRequest
from repro.ssd.geometry import PhysicalPageAddress


def addr(channel=0, chip=0, plane=0, block=0, page=0):
    return PhysicalPageAddress(channel, chip, plane, block, page)


class TestFlashChip:
    def test_read_takes_array_latency(self):
        sim = Simulator()
        chip = FlashChip(sim, FlashTiming(), planes=2)
        done = []
        chip.read(PageReadRequest(addr(), lambda r: done.append(sim.now)))
        sim.run()
        assert done == [pytest.approx(53e-6)]

    def test_planes_operate_in_parallel(self):
        sim = Simulator()
        chip = FlashChip(sim, FlashTiming(), planes=2)
        done = []
        for plane in range(2):
            chip.read(PageReadRequest(addr(plane=plane), lambda r: done.append(sim.now)))
        sim.run()
        assert done == [pytest.approx(53e-6)] * 2

    def test_same_plane_serializes_after_buffer_release(self):
        sim = Simulator()
        chip = FlashChip(sim, FlashTiming(), planes=1)
        done = []

        def first(request):
            done.append(sim.now)
            # drain the buffer after 10us, freeing the plane
            sim.schedule_after(10e-6, lambda: chip.release_buffer(0))

        chip.read(PageReadRequest(addr(), first))
        chip.read(PageReadRequest(addr(page=1), lambda r: done.append(sim.now)))
        sim.run()
        assert done[0] == pytest.approx(53e-6)
        assert done[1] == pytest.approx(53e-6 + 10e-6 + 53e-6)

    def test_release_without_hold_raises(self):
        chip = FlashChip(Simulator(), FlashTiming(), planes=1)
        with pytest.raises(RuntimeError):
            chip.release_buffer(0)

    def test_zero_planes_rejected(self):
        with pytest.raises(ValueError):
            FlashChip(Simulator(), FlashTiming(), planes=0)

    def test_pages_read_counter(self):
        sim = Simulator()
        chip = FlashChip(sim, FlashTiming(), planes=4)
        for plane in range(4):
            chip.read(PageReadRequest(addr(plane=plane), lambda r: None))
        sim.run()
        assert chip.pages_read == 4


class TestFlashTiming:
    def test_transfer_seconds(self):
        t = FlashTiming()
        assert t.transfer_seconds(16 * 1024) == pytest.approx(16384 / 800e6)

    def test_with_latency(self):
        t = FlashTiming().with_latency(212e-6)
        assert t.array_read_latency_s == 212e-6
        assert t.channel_bandwidth == 800e6

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashTiming(array_read_latency_s=0)
        with pytest.raises(ValueError):
            FlashTiming(command_overhead_s=-1)


class TestChannelController:
    def make(self, latency=53e-6):
        sim = Simulator()
        geo = SsdGeometry()
        ctrl = ChannelController(sim, geo, FlashTiming(array_read_latency_s=latency), 0)
        return sim, geo, ctrl

    def test_single_page_latency(self):
        sim, geo, ctrl = self.make()
        done = []
        ctrl.read_page(addr(), lambda a: done.append(sim.now))
        sim.run()
        expected = 53e-6 + 16384 / 800e6 + 0.2e-6
        assert done == [pytest.approx(expected)]

    def test_wrong_channel_rejected(self):
        _, _, ctrl = self.make()
        with pytest.raises(ValueError):
            ctrl.read_page(addr(channel=3), lambda a: None)

    def test_bus_saturates_at_channel_bandwidth(self):
        sim, geo, ctrl = self.make()
        done = {"n": 0}
        n_pages = 128
        for i in range(n_pages):
            # spread across all chips/planes of the channel
            a = addr(chip=i % 4, plane=(i // 4) % 8, page=i // 32)
            ctrl.read_page(a, lambda a: done.__setitem__("n", done["n"] + 1))
        sim.run()
        assert done["n"] == n_pages
        bw = ctrl.bytes_delivered / sim.now
        assert bw == pytest.approx(800e6, rel=0.12)

    def test_high_latency_barely_matters_with_many_planes(self):
        # the Fig. 9 mechanism: with 32 planes per channel the bus, not
        # the array, limits a steady scan
        def run(latency):
            sim, geo, ctrl = self.make(latency)
            done = {"n": 0}
            for i in range(256):
                a = addr(chip=i % 4, plane=(i // 4) % 8, page=i // 32)
                ctrl.read_page(a, lambda a: done.__setitem__("n", done["n"] + 1))
            sim.run()
            return sim.now

    # 4x latency should cost well under 20%
        slow = run(212e-6)
        fast = run(53e-6)
        assert slow / fast < 1.2

    def test_stats(self):
        sim, geo, ctrl = self.make()
        ctrl.read_page(addr(), lambda a: None)
        sim.run()
        stats = ctrl.stats()
        assert stats["pages_delivered"] == 1
        assert stats["bytes_delivered"] == 16384
        assert stats["mean_delivery_latency_s"] > 53e-6

    def test_occupy_bus_delays_page_delivery(self):
        sim, geo, ctrl = self.make()
        order = []
        # 80 KB weight broadcast occupies the 800 MB/s bus for 100 us
        ctrl.occupy_bus(80_000, lambda: order.append(("weights", sim.now)))
        ctrl.read_page(addr(), lambda a: order.append(("page", sim.now)))
        sim.run()
        assert order[0][0] == "weights"
        # the page transfer had to wait for the weight broadcast
        assert order[1][1] > 100e-6 + 16384 / 800e6
