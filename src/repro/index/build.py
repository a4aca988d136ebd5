"""IVF index construction, priced through the real FTL write path.

Building an index is not free: training reads the whole database once
per k-means iteration (SSD-level accelerator scans), and laying the
rows out in list order rewrites them through
:class:`repro.ingest.writepath.IngestWritePath` — so the build's write
amplification and GC work come from the page-mapped FTL's own counters,
exactly like live ingest.  The layout region is sized by
:func:`repro.ingest.writepath.region_blocks_for`, so a build at
``--bench-scale 10`` grows its region instead of exhausting logical
flash space (the same class of bug the scaled ingest benchmark hit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.api import check_counts, is_real
from repro.core.deepstore import DeepStoreSystem
from repro.index.kmeans import IndexError_, train_kmeans
from repro.index.lists import InvertedLists
from repro.ingest.writepath import IngestWritePath, region_blocks_for
from repro.nn.graph import Graph
from repro.ssd.ftl import DatabaseMetadata
from repro.ssd.ssd import Ssd


@dataclass(frozen=True)
class IndexBuildConfig:
    """Build-time knobs for one IVF index."""

    n_lists: int
    iterations: int = 8
    seed: int = 0
    op_fraction: float = 0.07
    region_pages_per_block: int = 64
    #: layout-region slack multiplier handed to ``region_blocks_for``
    headroom: float = 2.0

    def __post_init__(self) -> None:
        check_counts(
            self,
            (("n_lists", 1), ("iterations", 1), ("seed", 0),
             ("region_pages_per_block", 1)),
            IndexError_,
        )
        op, headroom = self.op_fraction, self.headroom
        for name, ok, rule in (
            ("op_fraction", is_real(op) and 0 <= op < 1, "in [0, 1)"),
            ("headroom", is_real(headroom) and 1 <= headroom < math.inf,
             "finite and at least 1"),
        ):
            if not ok:
                raise IndexError_(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class IndexBuildReport:
    """Measured cost of one index build."""

    #: k-means training: ``iterations`` SSD-level scans of the rows
    train_seconds: float
    #: list-ordered rewrite through the page-mapped FTL (host + GC)
    layout_write_seconds: float
    write_amplification: float
    region_blocks: int
    rows: int
    n_lists: int

    @property
    def total_seconds(self) -> float:
        return self.train_seconds + self.layout_write_seconds


@dataclass
class IvfIndex:
    """A built IVF index over one database snapshot."""

    centroids: np.ndarray
    lists: InvertedLists
    #: the clustered row boundary at build time: rows at or above it
    #: are the unindexed delta
    boundary: int
    report: IndexBuildReport
    config: IndexBuildConfig

    @property
    def n_lists(self) -> int:
        return len(self.centroids)


def build_ivf_index(
    ssd: Ssd,
    system: DeepStoreSystem,
    graph: Graph,
    features: np.ndarray,
    ids: np.ndarray,
    meta: DatabaseMetadata,
    config: IndexBuildConfig,
    boundary: int,
) -> IvfIndex:
    """Train, lay out, and price one IVF index over ``(ids, features)``."""
    ids = np.asarray(ids, dtype=np.int64)
    features = np.asarray(features, dtype=np.float32)
    if len(ids) != len(features):
        raise ValueError("ids and features must align")
    centroids, assignments = train_kmeans(
        features, config.n_lists, iterations=config.iterations, seed=config.seed
    )
    lists = InvertedLists(ids, assignments, config.n_lists)

    # training cost: each Lloyd iteration streams every indexed row
    # through the SSD-level accelerator once
    train_seconds = config.iterations * system.pass_seconds(
        graph, len(ids), meta.feature_bytes, meta.page_bytes
    )

    # layout cost: rewrite the rows in (list, id) order through a fresh,
    # audited ingest region — measured WA, not assumed
    region_blocks = region_blocks_for(
        rows=len(ids),
        feature_bytes=meta.feature_bytes,
        page_bytes=ssd.config.geometry.page_bytes,
        pages_per_block=config.region_pages_per_block,
        op_fraction=config.op_fraction,
        headroom=config.headroom,
    )
    writepath = IngestWritePath(
        ssd,
        meta.feature_bytes,
        op_fraction=config.op_fraction,
        blocks=region_blocks,
        pages_per_block=config.region_pages_per_block,
    )
    layout_order = np.concatenate(
        [lists.list_ids(j) for j in range(config.n_lists)]
    )
    op = writepath.append(layout_order.tolist())

    report = IndexBuildReport(
        train_seconds=train_seconds,
        layout_write_seconds=op.seconds,
        write_amplification=writepath.write_amplification,
        region_blocks=region_blocks,
        rows=len(ids),
        n_lists=config.n_lists,
    )
    return IvfIndex(
        centroids=centroids,
        lists=lists,
        boundary=int(boundary),
        report=report,
        config=config,
    )
