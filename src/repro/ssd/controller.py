"""Per-channel flash controller.

The channel controller owns the shared channel bus: it accepts page-read
commands, forwards them to the target chip/plane, and once a page is
buffered, schedules the bus transfer that delivers the page to the
consumer (the SSD DRAM for normal reads, or a DeepStore accelerator's
``FLASH_DFV`` queue for in-storage queries — paper Fig. 5).

Bus arbitration is FIFO over buffered pages, which models the
round-robin flash channel arbitration that limits external bandwidth in
commodity SSDs (paper §2.2).

With a :class:`~repro.faults.FaultInjector` attached, a buffered page
may fail its transfer CRC and be re-clocked over the bus (the bus stays
occupied for the extra transfer passes), and reads against hard-failed
chips complete through the ``on_failed`` path instead of delivering.
Without an injector, timing is bit-identical to the fault-free model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.sim import Resource, Simulator
from repro.ssd.flash import FlashChip, PageReadRequest
from repro.ssd.geometry import PhysicalPageAddress, SsdGeometry
from repro.ssd.timing import FlashTiming

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults import FaultInjector
    from repro.obs.metrics import MetricsRegistry


class ChannelController:
    """One flash channel: chips + shared bus + command queue."""

    def __init__(
        self,
        sim: Simulator,
        geometry: SsdGeometry,
        timing: FlashTiming,
        channel_index: int,
        injector: Optional["FaultInjector"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ):
        self.sim = sim
        self.geometry = geometry
        self.timing = timing
        self.channel_index = channel_index
        self.injector = injector
        self.bus = Resource(sim, name=f"ch{channel_index}-bus")
        self.chips: List[FlashChip] = [
            FlashChip(
                sim,
                timing,
                planes=geometry.planes_per_chip,
                name=f"ch{channel_index}-chip{i}",
                injector=injector,
            )
            for i in range(geometry.chips_per_channel)
        ]
        if sim.tracer is not None:
            # one trace pid per channel; bus and each chip get a tid
            process = f"channel {channel_index}"
            self.bus.track = sim.tracer.track(process, "bus")
            self.bus.trace_cat = "ssd.bus"
            for i, chip in enumerate(self.chips):
                chip.track = sim.tracer.track(process, f"chip {i}")
        self.pages_delivered = 0
        self.bytes_delivered = 0
        self.pages_failed = 0
        self.crc_retransfers = 0
        self._latency_sum = 0.0
        # shared instruments: every controller in a run feeds the same
        # registry entries, so device-wide totals need no re-aggregation
        # (`is not None`: an empty MetricsRegistry is falsy via __len__)
        metered = metrics is not None
        self._m_pages = metrics.counter("ssd.pages_delivered") if metered else None
        self._m_bytes = metrics.counter("ssd.bytes_delivered") if metered else None
        self._m_latency = (
            metrics.histogram("ssd.page_delivery_s") if metered else None
        )

    # ------------------------------------------------------------------
    def read_page(
        self,
        address: PhysicalPageAddress,
        on_delivered: Callable[[PhysicalPageAddress], None],
        on_failed: Optional[Callable[[PhysicalPageAddress], None]] = None,
    ) -> None:
        """Read one page and deliver it over the channel bus.

        ``on_failed`` (optional) fires instead of ``on_delivered`` when
        the page's chip/plane is hard-failed under the active fault
        plan; without a fault plan it is never called.
        """
        if address.channel != self.channel_index:
            raise ValueError(
                f"page {address} routed to channel {self.channel_index}"
            )
        chip = self.chips[address.chip]
        issue_time = self.sim.now

        def buffered(request: PageReadRequest) -> None:
            transfer = (
                self.timing.transfer_seconds(self.geometry.page_bytes)
                + self.timing.command_overhead_s
            )
            crc_extra = 0
            if self.injector is not None:
                # CRC failures re-clock the page over the bus; the bus
                # stays held for the extra passes
                crc_extra = self.injector.transfer_crc_retries(address)
                if crc_extra:
                    self.crc_retransfers += crc_extra
                    transfer += crc_extra * (
                        self.timing.transfer_seconds(self.geometry.page_bytes)
                        + self.timing.command_overhead_s
                    )

            def done() -> None:
                chip.release_buffer(address.plane)
                self.pages_delivered += 1
                self.bytes_delivered += self.geometry.page_bytes
                latency = self.sim.now - issue_time
                self._latency_sum += latency
                if self._m_pages is not None:
                    self._m_pages.inc()
                    self._m_bytes.inc(self.geometry.page_bytes)
                    self._m_latency.observe(latency)
                on_delivered(address)

            trace_args = None
            if self.bus.track is not None:
                trace_args = {"chip": address.chip, "plane": address.plane}
                if crc_extra:
                    # fault metadata: CRC re-transfers stretched this hold
                    trace_args["crc_retransfers"] = crc_extra
            self.bus.acquire(transfer, done, label="page-xfer",
                             trace_args=trace_args)

        def failed(request: PageReadRequest) -> None:
            self.pages_failed += 1
            if on_failed is not None:
                on_failed(address)

        chip.read(
            PageReadRequest(address=address, on_buffered=buffered, on_failed=failed)
        )

    def occupy_bus(
        self,
        nbytes: int,
        on_done: Callable[[], None],
        label: str = "bus-occupy",
    ) -> None:
        """Occupy the channel bus for non-page traffic.

        Used to model the weight broadcasts the channel-level accelerator
        schedules to its chip-level accelerators (paper §4.5: the chip
        accelerator "cannot be the master of the bus").
        """
        self.bus.acquire(
            self.timing.transfer_seconds(nbytes), on_done, label=label
        )

    # ------------------------------------------------------------------
    @property
    def mean_delivery_latency(self) -> float:
        """Mean issue-to-delivery latency over completed pages."""
        if self.pages_delivered == 0:
            return 0.0
        return self._latency_sum / self.pages_delivered

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for reporting and tests."""
        return {
            "pages_delivered": float(self.pages_delivered),
            "bytes_delivered": float(self.bytes_delivered),
            "mean_delivery_latency_s": self.mean_delivery_latency,
            "bus_busy_seconds": self.bus.busy_seconds,
            "pages_failed": float(self.pages_failed),
            "crc_retransfers": float(self.crc_retransfers),
        }
