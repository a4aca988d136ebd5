"""Flash access trace generation.

The paper's methodology (§5) couples its two simulators through traces:
the modified SCALE-Sim emits the flash accesses needed to stream database
feature vectors, and SSD-Sim replays them to produce I/O timing.  We keep
the same interface: :func:`scan_trace` turns database metadata into the
ordered page accesses of a full scan, optionally restricted to one
channel's stripe (each channel-level accelerator scans only the pages that
live on its channel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.ssd.ftl import DatabaseMetadata
from repro.ssd.geometry import PhysicalPageAddress, SsdGeometry


@dataclass(frozen=True)
class PageAccess:
    """One page read in a trace."""

    ppn: int
    address: PhysicalPageAddress
    db_page_offset: int


def scan_trace(
    meta: DatabaseMetadata,
    geometry: SsdGeometry,
    channel: Optional[int] = None,
    start_page: int = 0,
    max_pages: Optional[int] = None,
) -> Iterator[PageAccess]:
    """Yield the page accesses of a sequential database scan.

    With ``channel`` set, only pages stored on that channel are yielded —
    the stripe a single channel-level (or chip-level, further filtered by
    the caller) accelerator consumes.  ``start_page``/``max_pages`` select
    a window, which the steady-state simulation mode uses.
    """
    if channel is not None and not 0 <= channel < geometry.channels:
        raise ValueError(f"channel {channel} out of range")
    if max_pages is not None and max_pages <= 0:
        return
    emitted = 0
    for offset, ppn in enumerate(meta.all_ppns()):
        if offset < start_page:
            continue
        address = geometry.ppn_to_address(ppn)
        if channel is not None and address.channel != channel:
            continue
        yield PageAccess(ppn=ppn, address=address, db_page_offset=offset)
        emitted += 1
        if max_pages is not None and emitted >= max_pages:
            return


def _scan_ppn_array(meta: DatabaseMetadata) -> "np.ndarray":
    """PPNs of the full scan, in scan order, as one int64 array.

    Mirrors :meth:`DatabaseMetadata.all_ppns` exactly, including the
    clamp to ``total_pages`` (the final extent may be oversized while a
    sub-page append tail is buffered).
    """
    remaining = meta.total_pages
    chunks = []
    for extent in meta.extents:
        if remaining <= 0:
            break
        count = min(extent.num_pages, remaining)
        chunks.append(
            np.arange(extent.start_ppn, extent.start_ppn + count, dtype=np.int64)
        )
        remaining -= count
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


def _decode_accesses(
    geometry: SsdGeometry, ppns: "np.ndarray", offsets: "np.ndarray"
) -> List[PageAccess]:
    """Vectorized :meth:`SsdGeometry.ppn_to_address` over an array.

    One modulo/divide per field over the whole array replaces one
    python-level decode per page; the resulting :class:`PageAccess`
    objects are field-for-field equal to the generator's.
    """
    if ppns.size == 0:
        return []
    if int(ppns[0]) < 0 or int(ppns[-1]) >= geometry.total_pages:
        # scan order is ascending, so the endpoints bound the range;
        # fall back to the scalar decode for its exact error message
        for ppn in (int(ppns[0]), int(ppns[-1])):
            geometry.ppn_to_address(ppn)
    channel = ppns % geometry.channels
    rest = ppns // geometry.channels
    chip = rest % geometry.chips_per_channel
    rest = rest // geometry.chips_per_channel
    plane = rest % geometry.planes_per_chip
    rest = rest // geometry.planes_per_chip
    page = rest % geometry.pages_per_block
    block = rest // geometry.pages_per_block
    return [
        PageAccess(
            ppn=pp,
            address=PhysicalPageAddress(ch, cp, pl, bl, pg),
            db_page_offset=off,
        )
        for pp, ch, cp, pl, bl, pg, off in zip(
            ppns.tolist(), channel.tolist(), chip.tolist(),
            plane.tolist(), block.tolist(), page.tolist(), offsets.tolist(),
        )
    ]


def scan_trace_bulk(
    meta: DatabaseMetadata,
    geometry: SsdGeometry,
    channel: Optional[int] = None,
    start_page: int = 0,
    max_pages: Optional[int] = None,
) -> List[PageAccess]:
    """Materialized :func:`scan_trace`, computed with numpy.

    Produces exactly ``list(scan_trace(...))`` — same pages, same order,
    same field values — but decodes addresses array-at-a-time instead of
    page-at-a-time.  The property suite in ``tests/test_sim_fastpath.py``
    asserts the equivalence for arbitrary extents/windows/channels.
    """
    if channel is not None and not 0 <= channel < geometry.channels:
        raise ValueError(f"channel {channel} out of range")
    ppns = _scan_ppn_array(meta)
    offsets = np.arange(ppns.size, dtype=np.int64)
    if start_page > 0:
        ppns = ppns[start_page:]
        offsets = offsets[start_page:]
    if channel is not None:
        mask = ppns % geometry.channels == channel
        ppns = ppns[mask]
        offsets = offsets[mask]
    if max_pages is not None:
        ppns = ppns[:max_pages]
        offsets = offsets[:max_pages]
    return _decode_accesses(geometry, ppns, offsets)


def scan_traces_by_channel(
    meta: DatabaseMetadata,
    geometry: SsdGeometry,
    start_page: int = 0,
    max_pages_per_channel: Optional[int] = None,
) -> Dict[int, List[PageAccess]]:
    """All per-channel stripe traces from **one** pass over the scan.

    Equivalent to ``{ch: list(scan_trace(meta, geo, channel=ch, ...))
    for ch in range(geo.channels)}`` — which re-enumerates and re-decodes
    the entire database once *per channel*.  The channel-level event
    simulation needs every stripe anyway, so a single enumeration plus a
    group-by on ``ppn % channels`` does the same work ``channels``×
    cheaper; this was ~80% of event-query wall time before.
    """
    ppns = _scan_ppn_array(meta)
    offsets = np.arange(ppns.size, dtype=np.int64)
    if start_page > 0:
        ppns = ppns[start_page:]
        offsets = offsets[start_page:]
    traces: Dict[int, List[PageAccess]] = {}
    channels = ppns % geometry.channels if ppns.size else ppns
    for ch in range(geometry.channels):
        mask = channels == ch
        ch_ppns = ppns[mask]
        ch_offsets = offsets[mask]
        if max_pages_per_channel is not None:
            ch_ppns = ch_ppns[:max_pages_per_channel]
            ch_offsets = ch_offsets[:max_pages_per_channel]
        traces[ch] = _decode_accesses(geometry, ch_ppns, ch_offsets)
    return traces


def stripe_page_count(
    meta: DatabaseMetadata, geometry: SsdGeometry, channel: int
) -> int:
    """Number of database pages stored on ``channel``.

    For the sequential allocator, PPNs are channel-major, so a database of
    ``P`` pages places ``ceil/floor(P / channels)`` pages per channel
    depending on the start offset; this computes the exact count without
    enumerating the trace.
    """
    if not 0 <= channel < geometry.channels:
        raise ValueError(f"channel {channel} out of range")
    total = 0
    for extent in meta.extents:
        # pages of this extent that land on `channel`
        first = extent.start_ppn
        count = extent.num_pages
        first_ch = first % geometry.channels
        delta = (channel - first_ch) % geometry.channels
        if delta < count:
            total += 1 + (count - delta - 1) // geometry.channels
    # Clamp to the logical page count (the final extent may be oversized
    # relative to `total_pages` only when appends buffered a tail).
    return min(total, meta.total_pages)
