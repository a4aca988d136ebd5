"""SSD physical geometry and addressing.

An SSD is a hierarchy ``channel -> chip -> plane -> block -> page`` (paper
§2.2).  :class:`SsdGeometry` captures the shape; pages are identified
either structurally (:class:`PhysicalPageAddress`) or by a dense linear
*physical page number* (PPN).  The PPN layout is **channel-major with
page-level striping**: consecutive PPNs land on consecutive channels, then
chips, then planes — so a sequential database write is automatically
striped across all channels and chips, which is how DeepStore lays out
feature databases for maximum internal parallelism (paper §4.4).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalPageAddress:
    """Structural address of one flash page."""

    channel: int
    chip: int
    plane: int
    block: int
    page: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ch{self.channel}/chip{self.chip}/pl{self.plane}"
            f"/blk{self.block}/pg{self.page}"
        )


@dataclass(frozen=True)
class SsdGeometry:
    """Shape parameters of the flash array (paper §6.1 defaults)."""

    channels: int = 32
    chips_per_channel: int = 4
    planes_per_chip: int = 8
    blocks_per_plane: int = 512
    pages_per_block: int = 128
    page_bytes: int = 16 * 1024

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "chips_per_channel",
            "planes_per_chip",
            "blocks_per_plane",
            "pages_per_block",
            "page_bytes",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    # ------------------------------------------------------------------
    # capacities
    # ------------------------------------------------------------------
    @property
    def planes_per_channel(self) -> int:
        return self.chips_per_channel * self.planes_per_chip

    @property
    def total_planes(self) -> int:
        return self.channels * self.planes_per_channel

    @property
    def pages_per_plane(self) -> int:
        return self.blocks_per_plane * self.pages_per_block

    @property
    def total_pages(self) -> int:
        return self.total_planes * self.pages_per_plane

    @property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_bytes

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def ppn_to_address(self, ppn: int) -> PhysicalPageAddress:
        """Decode a dense physical page number (channel-major striping)."""
        if not 0 <= ppn < self.total_pages:
            raise ValueError(f"PPN {ppn} out of range [0, {self.total_pages})")
        channel = ppn % self.channels
        rest = ppn // self.channels
        chip = rest % self.chips_per_channel
        rest //= self.chips_per_channel
        plane = rest % self.planes_per_chip
        rest //= self.planes_per_chip
        page = rest % self.pages_per_block
        block = rest // self.pages_per_block
        return PhysicalPageAddress(channel, chip, plane, block, page)

    def scaled(self, channels: int) -> "SsdGeometry":
        """Same geometry with a different channel count (Fig. 10 sweeps)."""
        return SsdGeometry(
            channels=channels,
            chips_per_channel=self.chips_per_channel,
            planes_per_chip=self.planes_per_chip,
            blocks_per_plane=self.blocks_per_plane,
            pages_per_block=self.pages_per_block,
            page_bytes=self.page_bytes,
        )
