"""The ingest write path: feature mutations through a real FTL.

The block FTL (:class:`repro.ssd.ftl.BlockFtl`) that lays out feature
databases is append-only by design — exactly the paper's model.  Live
ingest needs the *other* FTL: :class:`repro.ssd.gc.PageMappedFtl`, the
page-mapped write path with greedy GC and wear leveling.  This module
routes feature-row mutations through it so the costs a mutating
database pays are **measured from the FTL's own bookkeeping** rather
than assumed:

* inserts pack rows into logical pages; the open (partially-filled)
  page is re-programmed on every append that extends it, which is where
  small-batch ingest earns its write amplification;
* deletes decrement per-page live-row counts and TRIM pages whose rows
  are all dead, creating the invalid pages GC feeds on;
* compaction rewrites surviving rows densely (TRIM + program), paying
  bandwidth now to cut future scan cost;
* write amplification is ``PageMappedFtl.stats.write_amplification``
  verbatim, and the time of each operation combines the host-write
  model (:meth:`repro.ssd.ssd.Ssd.database_write_seconds`) with the GC
  work the operation actually triggered
  (:meth:`repro.ssd.ssd.Ssd.gc_seconds` over the stats delta).

The resulting WA also drives query interference: a background ingest
stream at raw channel fraction ``f`` occupies ``f * WA`` of the bus
(every amplified write is a real transfer), which is the offered load
handed to :class:`repro.ssd.host_io.InterferenceModel`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Deque, Dict, Optional, Sequence

from repro.faults.injector import FaultInjector
from repro.ingest.store import IngestError
from repro.ssd.ftl import DatabaseMetadata
from repro.ssd.gc import GcStats, PageMappedFtl
from repro.ssd.geometry import PhysicalPageAddress
from repro.ssd.ssd import Ssd


@dataclass(frozen=True)
class WriteOp:
    """Measured cost of one ingest operation."""

    pages_written: int
    pages_trimmed: int
    host_seconds: float
    gc_seconds: float
    relocations: int
    erases: int

    @property
    def seconds(self) -> float:
        """Total modelled time: host programs plus triggered GC."""
        return self.host_seconds + self.gc_seconds


def region_blocks_for(
    rows: int,
    feature_bytes: int,
    page_bytes: int,
    pages_per_block: int = 64,
    op_fraction: float = 0.07,
    headroom: float = 2.0,
    min_blocks: int = 64,
) -> int:
    """Erase blocks an ingest region needs to hold ``rows`` with headroom.

    The region audit: a fixed ``blocks=64`` region holds ~3968 logical
    pages, so any workload scaled past that (``--bench-scale``, large
    index builds) exhausts logical space mid-write and dies with
    :class:`IngestError` instead of running slower.  This helper applies
    the same arithmetic :class:`IngestWritePath` uses — packing rows
    into pages, then carving logical space out of
    ``blocks * pages_per_block`` after over-provisioning — and doubles
    the block count until the region holds ``headroom``× the rows'
    pages, so GC still has invalid pages to feed on at any scale.
    """
    if rows <= 0:
        raise IngestError("rows must be positive")
    if not 1.0 <= headroom < math.inf:
        raise IngestError("headroom must be finite and at least 1.0")
    if not 0 <= op_fraction < 1:
        raise IngestError("op_fraction must be in [0, 1)")
    if pages_per_block < 1:
        raise IngestError("pages_per_block must be positive")
    rows_per_page = max(1, page_bytes // feature_bytes)
    pages_needed = -(-rows // rows_per_page)
    blocks = max(4, min_blocks)
    while True:
        capacity = blocks * pages_per_block
        logical = min(
            int(capacity * (1 - op_fraction)), capacity - 2 * pages_per_block
        )
        if logical >= headroom * pages_needed:
            return blocks
        blocks *= 2


class IngestWritePath:
    """Feature-row mutations over a :class:`PageMappedFtl`.

    ``feature_bytes`` fixes the packing (rows per logical page).  The
    FTL covers a bounded **ingest region** (``blocks`` erase blocks of
    ``pages_per_block`` pages, page size from the SSD's geometry) rather
    than the whole drive: a mutable database lives in a dedicated
    allocation whose over-provisioning (``op_fraction``) is the knob
    trading flash capacity for write amplification — and a bounded
    region is what makes GC actually fire at benchmark scale.
    """

    def __init__(
        self,
        ssd: Ssd,
        feature_bytes: int,
        op_fraction: float = 0.07,
        blocks: int = 64,
        pages_per_block: int = 64,
        injector: Optional[FaultInjector] = None,
    ):
        if feature_bytes <= 0:
            raise IngestError("feature_bytes must be positive")
        if not 0 <= op_fraction < 1:
            raise IngestError("op_fraction must be in [0, 1)")
        self.ssd = ssd
        self.feature_bytes = feature_bytes
        geometry = ssd.config.geometry
        capacity = blocks * pages_per_block
        logical = min(
            int(capacity * (1 - op_fraction)), capacity - 2 * pages_per_block
        )
        self.ftl = PageMappedFtl(blocks, pages_per_block, logical)
        self.rows_per_page = max(1, geometry.page_bytes // feature_bytes)
        self._free_lpns: Deque[int] = deque(range(self.ftl.logical_pages))
        #: feature id -> logical page holding it
        self._row_lpn: Dict[int, int] = {}
        #: logical page -> live rows stored in it
        self._lpn_live: Dict[int, int] = {}
        self._open_lpn: Optional[int] = None
        self._open_count = 0
        self._pages_per_block = pages_per_block
        #: optional fault injector; program-verify failures on the write
        #: path cost extra program passes (charged into host_seconds)
        self.injector = injector
        self._retry_seconds = 0.0

    # ------------------------------------------------------------------
    @property
    def write_amplification(self) -> float:
        return self.ftl.stats.write_amplification

    @property
    def stats(self) -> GcStats:
        return self.ftl.stats

    @property
    def free_pages(self) -> int:
        return len(self._free_lpns)

    @property
    def free_rows(self) -> int:
        """Fresh rows :meth:`append` can still place: the open page's
        slack plus every free logical page."""
        slack = 0 if self._open_lpn is None else self.rows_per_page - self._open_count
        return slack + self.free_pages * self.rows_per_page

    def has_row(self, fid: int) -> bool:
        """Whether a feature id currently occupies flash pages."""
        return int(fid) in self._row_lpn

    def reset_stats(self) -> None:
        """Zero the GC counters (e.g. after seeding the base rows)."""
        self.ftl.stats = GcStats()

    def offered_load(self, raw_fraction: float) -> float:
        """Channel-bus fraction an ingest stream actually occupies.

        A stream demanding ``raw_fraction`` of the bus in host writes
        costs ``raw_fraction * WA`` once GC relocations are counted —
        the measured coupling between write pressure and query
        interference.
        """
        if not 0 <= raw_fraction <= 1:
            raise IngestError("raw_fraction must be in [0, 1]")
        return min(0.95, raw_fraction * self.write_amplification)

    # ------------------------------------------------------------------
    def append(self, ids: Sequence[int]) -> WriteOp:
        """Program the rows ``ids`` (fresh feature ids) onto flash."""
        ids = [int(i) for i in ids]
        if not ids:
            raise IngestError("append needs at least one id")
        for fid in ids:
            if fid in self._row_lpn:
                raise IngestError(f"feature id {fid} already on flash")
        before = self._snapshot_stats()
        pages = 0
        start = 0
        while start < len(ids):
            if self._open_lpn is None or self._open_count >= self.rows_per_page:
                self._open_lpn = self._allocate_lpn()
                self._open_count = 0
            lpn = self._open_lpn
            take = min(len(ids) - start, self.rows_per_page - self._open_count)
            # (re-)program the open page; extending a partially filled
            # page invalidates its previous version, which is the write
            # amplification small appends genuinely pay
            self._program(lpn)
            pages += 1
            self._row_lpn.update(zip(ids[start : start + take], repeat(lpn)))
            self._lpn_live[lpn] = self._lpn_live.get(lpn, 0) + take
            self._open_count += take
            start += take
        return self._measure(before, pages_written=pages, pages_trimmed=0,
                             rows=len(ids))

    def delete(self, ids: Sequence[int]) -> WriteOp:
        """Drop rows; TRIM pages whose rows are now all dead."""
        ids = [int(i) for i in ids]
        if not ids:
            raise IngestError("delete needs at least one id")
        before = self._snapshot_stats()
        trimmed = 0
        for fid in ids:
            lpn = self._row_lpn.pop(fid, None)
            if lpn is None:
                raise IngestError(f"feature id {fid} is not on flash")
            self._lpn_live[lpn] -= 1
            if self._lpn_live[lpn] == 0:
                del self._lpn_live[lpn]
                self.ftl.trim(lpn)
                trimmed += 1
                self._free_lpns.append(lpn)
                if lpn == self._open_lpn:
                    self._open_lpn = None
                    self._open_count = 0
        return self._measure(before, pages_written=0, pages_trimmed=trimmed,
                             rows=0)

    def rewrite(self, ids: Sequence[int]) -> WriteOp:
        """Compaction move: re-program rows densely packed.

        The old pages are released (TRIM once empty) and the rows land
        on fresh pages at full density — the bandwidth a compaction
        spends to shed tombstone scan cost.
        """
        ids = [int(i) for i in ids]
        if not ids:
            raise IngestError("rewrite needs at least one id")
        for fid in ids:
            if fid not in self._row_lpn:
                raise IngestError(f"feature id {fid} is not on flash")
        drop = self.delete(ids)
        add = self.append(ids)
        # compose the two halves so program-retry costs carry through
        return WriteOp(
            pages_written=add.pages_written,
            pages_trimmed=drop.pages_trimmed,
            host_seconds=drop.host_seconds + add.host_seconds,
            gc_seconds=drop.gc_seconds + add.gc_seconds,
            relocations=drop.relocations + add.relocations,
            erases=drop.erases + add.erases,
        )

    # ------------------------------------------------------------------
    def _program(self, lpn: int) -> None:
        self.ftl.write(lpn)
        if self.injector is None:
            return
        address = PhysicalPageAddress(
            channel=0,
            chip=0,
            plane=0,
            block=lpn // self._pages_per_block,
            page=lpn % self._pages_per_block,
        )
        retries = self.injector.page_program_retries(address)
        if retries:
            self._retry_seconds += (
                retries * self.ssd.config.timing.program_latency_s
            )

    def _allocate_lpn(self) -> int:
        if not self._free_lpns:
            raise IngestError(
                "logical flash space exhausted; compact before ingesting more"
            )
        return self._free_lpns.popleft()

    def _snapshot_stats(self) -> GcStats:
        s = self.ftl.stats
        return GcStats(
            host_writes=s.host_writes,
            relocations=s.relocations,
            erases=s.erases,
            gc_invocations=s.gc_invocations,
        )

    def _measure(
        self, before: GcStats, pages_written: int, pages_trimmed: int, rows: int
    ) -> WriteOp:
        after = self.ftl.stats
        relocations = after.relocations - before.relocations
        erases = after.erases - before.erases
        host_seconds = 0.0
        if rows > 0:
            meta = DatabaseMetadata(
                db_id=0,
                feature_bytes=self.feature_bytes,
                feature_count=rows,
                page_bytes=self.ssd.config.geometry.page_bytes,
            )
            host_seconds = self.ssd.database_write_seconds(meta)
        host_seconds += self._retry_seconds
        self._retry_seconds = 0.0
        gc_seconds = self.ssd.gc_seconds(relocations, erases)
        return WriteOp(
            pages_written=pages_written,
            pages_trimmed=pages_trimmed,
            host_seconds=host_seconds,
            gc_seconds=gc_seconds,
            relocations=relocations,
            erases=erases,
        )
