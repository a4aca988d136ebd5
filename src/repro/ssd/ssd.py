"""Whole-SSD composition.

:class:`Ssd` wires the pieces together: one :class:`ChannelController` per
channel, the block FTL, the DRAM, and the external host link.  It offers
two complementary interfaces:

* **event-driven** — ``read_pages`` replays a page trace through the flash
  timing model; used by the DeepStore system model's high-fidelity path
  and by the steady-state bandwidth probe;
* **analytic** — closed-form sequential-scan times for the host link and
  the internal stripes; used by parameter sweeps.  Tests assert the two
  agree in steady state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from repro.sim import Simulator
from repro.ssd.controller import ChannelController
from repro.ssd.dram import SsdDram
from repro.ssd.ftl import BlockFtl, DatabaseMetadata
from repro.ssd.geometry import PhysicalPageAddress
from repro.ssd.timing import SsdConfig
from repro.ssd.trace import PageAccess, scan_trace


@dataclass
class ScanMeasurement:
    """Result of an event-driven scan (window) measurement."""

    pages: int
    bytes: int
    seconds: float

    @property
    def bandwidth(self) -> float:
        return self.bytes / self.seconds if self.seconds > 0 else 0.0


class Ssd:
    """An SSD instance: geometry + timing + FTL + DRAM + channels."""

    def __init__(self, config: Optional[SsdConfig] = None, sim: Optional[Simulator] = None):
        self.config = config or SsdConfig()
        self.sim = sim or Simulator()
        geo = self.config.geometry
        self.channels: List[ChannelController] = [
            ChannelController(self.sim, geo, self.config.timing, i)
            for i in range(geo.channels)
        ]
        self.ftl = BlockFtl(geo)
        self.dram = SsdDram(self.config.dram_bytes, self.config.dram_bandwidth)

    # ------------------------------------------------------------------
    # analytic interface
    # ------------------------------------------------------------------
    def host_read_seconds(self, nbytes: int) -> float:
        """Time for the host to read ``nbytes`` over the external link."""
        if nbytes < 0:
            raise ValueError("negative read size")
        return nbytes / self.config.external_bandwidth

    def database_write_seconds(self, meta: DatabaseMetadata) -> float:
        """Time to ingest a feature database (the ``writeDB`` path).

        The host streams the payload over the external link while all
        channels program pages in parallel; each plane pipelines
        programs, so the steady write rate per channel is one page per
        ``program_latency / planes`` (program-limited) or per bus
        transfer (bus-limited), whichever is slower — bounded overall by
        the external link.
        """
        timing = self.config.timing
        geo = self.config.geometry
        page_time = (
            timing.transfer_seconds(geo.page_bytes) + timing.command_overhead_s
        )
        program_limit = timing.program_latency_s / geo.planes_per_channel
        per_page_channel = max(page_time, program_limit)
        internal = meta.total_pages * per_page_channel / geo.channels
        external = meta.stored_bytes / self.config.external_bandwidth
        return max(internal, external) + timing.program_latency_s

    def gc_seconds(self, relocations: int, erases: int) -> float:
        """Time cost of background GC work (read + program per
        relocation, plus block erases), aggregated over channels."""
        if relocations < 0 or erases < 0:
            raise ValueError("negative GC work")
        timing = self.config.timing
        per_relocation = timing.array_read_latency_s + timing.program_latency_s
        busy = relocations * per_relocation + erases * timing.erase_latency_s
        return busy / self.config.geometry.channels

    # ------------------------------------------------------------------
    # event-driven interface
    # ------------------------------------------------------------------
    def read_pages(
        self,
        accesses: Iterable[PageAccess],
        on_page: Optional[Callable[[PhysicalPageAddress], None]] = None,
        max_outstanding_per_channel: int = 64,
    ) -> ScanMeasurement:
        """Replay a page trace to completion and measure elapsed time.

        Requests are throttled to ``max_outstanding_per_channel`` in
        flight per channel, modelling the controller's bounded command
        queues.
        """
        pending = list(accesses)
        total_pages = len(pending)
        if total_pages == 0:
            return ScanMeasurement(0, 0, 0.0)
        per_channel: List[List[PageAccess]] = [[] for _ in self.channels]
        for access in pending:
            per_channel[access.address.channel].append(access)
        start = self.sim.now
        done_pages = 0

        def make_issuer(channel_idx: int):
            queue = per_channel[channel_idx]
            cursor = {"next": 0}

            def issue_one() -> None:
                i = cursor["next"]
                if i >= len(queue):
                    return
                cursor["next"] = i + 1
                access = queue[i]

                def delivered(addr: PhysicalPageAddress) -> None:
                    nonlocal done_pages
                    done_pages += 1
                    if on_page is not None:
                        on_page(addr)
                    issue_one()

                self.channels[channel_idx].read_page(access.address, delivered)

            return issue_one

        for idx, queue in enumerate(per_channel):
            issuer = make_issuer(idx)
            for _ in range(min(max_outstanding_per_channel, len(queue))):
                issuer()

        self.sim.run(stop_when=lambda: done_pages >= total_pages)
        seconds = self.sim.now - start
        nbytes = total_pages * self.config.geometry.page_bytes
        return ScanMeasurement(pages=total_pages, bytes=nbytes, seconds=seconds)

    def measure_scan_bandwidth(
        self, meta: DatabaseMetadata, window_pages: int = 512
    ) -> float:
        """Event-driven steady-state scan bandwidth over a page window."""
        trace = scan_trace(meta, self.config.geometry, max_pages=window_pages)
        measurement = self.read_pages(trace)
        return measurement.bandwidth
