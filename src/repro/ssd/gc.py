"""Page-mapped write path: garbage collection and wear leveling.

The paper's SSD background (§2.2) lists the FTL's jobs — "parsing block
I/O commands, garbage collection, and wear-leveling" — and DeepStore
§4.4 runs its feature databases over "a regular block-level FTL".
Feature databases themselves are write-once/append-only (handled by
:class:`repro.ssd.ftl.BlockFtl`), but the drive still serves regular
block I/O; this module implements that path so mixed-workload
experiments (queries + host writes) have a real substrate:

* a **page-mapping table** over a host LBA space;
* out-of-place writes into the active block, invalidating old versions;
* **greedy garbage collection** (min-valid-pages victim) triggered when
  free blocks fall below a watermark, with valid-page relocation counted
  toward write amplification;
* **wear leveling** — erase counts per block, with victim selection
  tie-breaking toward cold (low-erase) blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


class GcError(RuntimeError):
    """Raised when the write path runs out of space."""


@dataclass
class _Block:
    """One erase block's state."""

    block_id: int
    pages: int
    valid: int = 0
    written: int = 0
    erase_count: int = 0
    #: lpn stored in each page slot (None = invalid/erased)
    slots: List[Optional[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.slots:
            self.slots = [None] * self.pages

    @property
    def full(self) -> bool:
        return self.written >= self.pages

    @property
    def invalid(self) -> int:
        return self.written - self.valid

    def erase(self) -> None:
        self.valid = 0
        self.written = 0
        self.erase_count += 1
        self.slots = [None] * self.pages


@dataclass
class GcStats:
    """Counters for write-amplification and wear analysis."""

    host_writes: int = 0
    relocations: int = 0
    erases: int = 0
    gc_invocations: int = 0

    @property
    def total_writes(self) -> int:
        return self.host_writes + self.relocations

    @property
    def write_amplification(self) -> float:
        if self.host_writes == 0:
            return 1.0
        return self.total_writes / self.host_writes


class PageMappedFtl:
    """Greedy-GC, wear-aware page-mapping FTL over a block pool.

    ``blocks`` x ``pages_per_block`` physical pages back a logical space
    of ``logical_pages`` (the difference is over-provisioning, which
    controls write amplification).
    """

    #: GC runs while free blocks are at or below this watermark (keep at
    #: least two blocks free: the next active block plus GC headroom)
    GC_WATERMARK = 1

    def __init__(
        self,
        blocks: int,
        pages_per_block: int,
        logical_pages: int,
        wear_weight: float = 0.1,
    ):
        if blocks < 4:
            raise ValueError("need at least 4 blocks (active + GC headroom)")
        if pages_per_block <= 0:
            raise ValueError("pages_per_block must be positive")
        capacity = blocks * pages_per_block
        if not 0 < logical_pages <= capacity - 2 * pages_per_block:
            raise ValueError(
                f"logical space {logical_pages} must leave at least two "
                f"blocks of over-provisioning in {capacity} pages"
            )
        if wear_weight < 0:
            raise ValueError("wear_weight cannot be negative")
        self.pages_per_block = pages_per_block
        self.logical_pages = logical_pages
        self.wear_weight = wear_weight
        self._blocks = [_Block(i, pages_per_block) for i in range(blocks)]
        self._free: List[int] = list(range(1, blocks))
        self._active = self._blocks[0]
        self._next_slot = 0
        #: lpn -> (block_id, slot) mapping table
        self._map: Dict[int, tuple] = {}
        self.stats = GcStats()

    # ------------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        return len(self._free)

    def lookup(self, lpn: int) -> Optional[tuple]:
        """Physical (block, slot) for a logical page, if written."""
        self._check_lpn(lpn)
        return self._map.get(lpn)

    def write(self, lpn: int) -> None:
        """Host write of one logical page (out of place)."""
        self._check_lpn(lpn)
        self._invalidate(lpn)
        self._program(lpn, host=True)
        self._maybe_collect()

    def trim(self, lpn: int) -> None:
        """Host discard of a logical page."""
        self._check_lpn(lpn)
        self._invalidate(lpn)
        self._map.pop(lpn, None)

    # ------------------------------------------------------------------
    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise GcError(f"LPN {lpn} outside logical space {self.logical_pages}")

    def _invalidate(self, lpn: int) -> None:
        location = self._map.get(lpn)
        if location is None:
            return
        block = self._blocks[location[0]]
        block.valid -= 1
        block.slots[location[1]] = None

    def _program(self, lpn: int, host: bool) -> None:
        if self._active.full:
            self._advance_active()
        slot = self._active.written
        self._active.slots[slot] = lpn
        self._active.written += 1
        self._active.valid += 1
        self._map[lpn] = (self._active.block_id, slot)
        if host:
            self.stats.host_writes += 1
        else:
            self.stats.relocations += 1

    def _advance_active(self) -> None:
        if not self._free:
            raise GcError("no free blocks: GC failed to reclaim space")
        self._active = self._blocks[self._free.pop(0)]

    def _maybe_collect(self) -> None:
        while len(self._free) <= self.GC_WATERMARK:
            victim = self._pick_victim()
            if victim is None:
                return
            self._collect(victim)

    def _pick_victim(self) -> Optional[_Block]:
        """Greedy victim with a wear-leveling tie-break.

        Cost-benefit: prefer the block with the fewest valid pages
        (cheapest to reclaim); among similar candidates, prefer the one
        erased least so wear spreads.
        """
        candidates = [
            b for b in self._blocks
            if b.full and b is not self._active and b.block_id not in self._free
        ]
        if not candidates:
            return None
        max_erase = max(b.erase_count for b in candidates) or 1

        def score(b: _Block) -> float:
            return b.valid + self.wear_weight * self.pages_per_block * (
                b.erase_count / max_erase
            )

        victim = min(candidates, key=score)
        if victim.valid >= self.pages_per_block:
            return None  # nothing reclaimable
        return victim

    def _collect(self, victim: _Block) -> None:
        self.stats.gc_invocations += 1
        for slot, lpn in enumerate(victim.slots):
            if lpn is not None:
                self._program(lpn, host=False)
        victim.erase()
        self.stats.erases += 1
        self._free.append(victim.block_id)
