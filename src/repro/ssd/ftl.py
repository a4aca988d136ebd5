"""Block-level flash translation layer and database metadata.

DeepStore bypasses per-page FTL translation for query scans: a feature
database is written striped across channels/chips, its 32-byte metadata
record (db_id, starting physical address, feature size, feature count —
paper §4.7.2) is persisted in a reserved flash block and cached in SSD
DRAM, and accelerators compute each feature's physical address from the
metadata by offset arithmetic (paper §4.4).

This module implements:

* a sequential **extent allocator** over physical page numbers (dense PPNs
  are channel-major, so sequential allocation *is* channel/chip striping);
* :class:`DatabaseMetadata` with the address arithmetic accelerators use;
* append handling — appends allocate new extents and update metadata,
  with sub-page writes buffered until a full page exists (paper §4.7.2:
  "DeepStore buffers writes to ensure the alignment criteria are
  fulfilled").

Feature layout: vectors of at least one page are page-aligned, exactly as
the paper specifies.  Sub-page vectors are packed at a fixed stride with
no vector crossing a page boundary, keeping addresses computable by
offset; DESIGN.md records this as the one layout refinement (page-aligning
a 0.8 KB TextQA vector would waste 95% of every page on both the baseline
and DeepStore, changing no comparison).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.ssd.geometry import SsdGeometry


class FtlError(RuntimeError):
    """Raised for allocation failures and bad database handles."""


@dataclass(frozen=True)
class Extent:
    """A contiguous run of physical page numbers."""

    start_ppn: int
    num_pages: int

    @property
    def end_ppn(self) -> int:
        return self.start_ppn + self.num_pages

    def pages(self) -> Iterator[int]:
        """Iterate the extent's physical page numbers."""
        return iter(range(self.start_ppn, self.end_ppn))


@dataclass
class DatabaseMetadata:
    """The 32-byte per-database record (plus extent bookkeeping).

    ``metadata_bytes`` mirrors the paper's on-flash record size; extents
    beyond the first exist only after appends.
    """

    db_id: int
    feature_bytes: int
    feature_count: int
    extents: List[Extent] = field(default_factory=list)
    page_bytes: int = 16 * 1024

    METADATA_BYTES = 32

    def __post_init__(self) -> None:
        if self.feature_bytes <= 0:
            raise ValueError("feature_bytes must be positive")
        if self.feature_count < 0:
            raise ValueError("feature_count cannot be negative")

    # ------------------------------------------------------------------
    # layout arithmetic
    # ------------------------------------------------------------------
    @property
    def page_aligned(self) -> bool:
        """True when each feature occupies whole pages."""
        return self.feature_bytes >= self.page_bytes

    @property
    def pages_per_feature(self) -> int:
        if not self.page_aligned:
            return 1
        return -(-self.feature_bytes // self.page_bytes)

    @property
    def features_per_page(self) -> int:
        if self.page_aligned:
            return 1
        return self.page_bytes // self.feature_bytes

    @property
    def total_pages(self) -> int:
        if self.page_aligned:
            return self.feature_count * self.pages_per_feature
        return -(-self.feature_count // self.features_per_page)

    @property
    def stored_bytes(self) -> int:
        """Bytes of flash actually occupied (including alignment padding)."""
        return self.total_pages * self.page_bytes

    @property
    def start_ppn(self) -> int:
        if not self.extents:
            raise FtlError(f"database {self.db_id} has no extents")
        return self.extents[0].start_ppn

    def feature_page_span(self, feature_index: int) -> Tuple[int, int]:
        """(first page offset, page count) of one feature within the DB."""
        if not 0 <= feature_index < self.feature_count:
            raise FtlError(
                f"feature {feature_index} out of range [0, {self.feature_count})"
            )
        if self.page_aligned:
            first = feature_index * self.pages_per_feature
            return first, self.pages_per_feature
        return feature_index // self.features_per_page, 1

    def page_offset_to_ppn(self, page_offset: int) -> int:
        """Translate a DB-relative page offset through the extent list."""
        remaining = page_offset
        for extent in self.extents:
            if remaining < extent.num_pages:
                return extent.start_ppn + remaining
            remaining -= extent.num_pages
        raise FtlError(
            f"page offset {page_offset} beyond database {self.db_id} "
            f"({self.total_pages} pages)"
        )

    def all_ppns(self) -> Iterator[int]:
        """Every PPN of the database in scan order."""
        emitted = 0
        for extent in self.extents:
            for ppn in extent.pages():
                if emitted >= self.total_pages:
                    return
                emitted += 1
                yield ppn


class BlockFtl:
    """Sequential extent allocator + database catalog."""

    #: pages reserved at PPN 0 for the metadata block (paper §4.4: metadata
    #: "is persisted in a reserved flash block")
    RESERVED_PAGES = 128

    def __init__(self, geometry: SsdGeometry):
        self.geometry = geometry
        self._next_ppn = self.RESERVED_PAGES
        self._databases: Dict[int, DatabaseMetadata] = {}
        self._db_ids = itertools.count(1)
        self._append_buffers: Dict[int, int] = {}  # db_id -> buffered features

    # ------------------------------------------------------------------
    @property
    def free_pages(self) -> int:
        return self.geometry.total_pages - self._next_ppn

    def allocate(self, num_pages: int) -> Extent:
        """Reserve a contiguous run of physical pages."""
        if num_pages <= 0:
            raise FtlError("cannot allocate zero pages")
        if num_pages > self.free_pages:
            raise FtlError(
                f"out of space: need {num_pages} pages, {self.free_pages} free"
            )
        extent = Extent(self._next_ppn, num_pages)
        self._next_ppn += num_pages
        return extent

    # ------------------------------------------------------------------
    def create_database(self, feature_bytes: int, feature_count: int) -> DatabaseMetadata:
        """Write a new feature database (paper ``writeDB``)."""
        if feature_count <= 0:
            raise FtlError("a database needs at least one feature")
        db_id = next(self._db_ids)
        meta = DatabaseMetadata(
            db_id=db_id,
            feature_bytes=feature_bytes,
            feature_count=feature_count,
            page_bytes=self.geometry.page_bytes,
        )
        meta.extents.append(self.allocate(meta.total_pages))
        self._databases[db_id] = meta
        return meta

    def append(self, db_id: int, feature_count: int) -> DatabaseMetadata:
        """Append features (paper ``appendDB``), buffering partial pages."""
        meta = self.get(db_id)
        if feature_count <= 0:
            raise FtlError("append needs at least one feature")
        pages_before = meta.total_pages
        buffered = self._append_buffers.get(db_id, 0)
        meta.feature_count += feature_count
        pages_needed = meta.total_pages - pages_before
        if pages_needed > 0:
            meta.extents.append(self.allocate(pages_needed))
            self._append_buffers[db_id] = 0
        else:
            # Sub-page tail stays buffered in DRAM until a page fills.
            self._append_buffers[db_id] = buffered + feature_count
        return meta

    def get(self, db_id: int) -> DatabaseMetadata:
        """Metadata for a database id; raises FtlError when unknown."""
        meta = self._databases.get(db_id)
        if meta is None:
            raise FtlError(f"unknown database id {db_id}")
        return meta

    def databases(self) -> List[DatabaseMetadata]:
        """All registered database metadata records."""
        return list(self._databases.values())
