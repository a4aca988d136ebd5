"""ANN index layer: IVF routing on the accelerator hierarchy.

The paper (§7) names in-storage reorganization of feature vectors as a
technique DeepStore can exploit.  This package is the reproduction's
one model of it: a real **inverted-file (IVF) index** whose probe is
executed against the in-storage accelerator hierarchy.  The lifecycle
loop (:func:`repro.ingest.run_lifecycle`) measures staleness and
re-indexes on this layer's :class:`IndexedDevice`.

* :mod:`repro.index.kmeans` — deterministic k-means training with the
  canonical ``(-score, id)`` assignment tie-break;
* :mod:`repro.index.lists` — the inverted lists and their post-build
  contiguous flash layout (page offsets per probed list);
* :mod:`repro.index.router` — centroid routing scored **by the SCN
  itself** (the SCN is non-metric, so geometric nearest-centroid would
  be uncorrelated with the real ranking), priced as an SSD-level scan
  over the centroid table;
* :mod:`repro.index.build` — index construction priced through the real
  page-mapped FTL write path, with a region-sizing audit so scaled
  builds cannot exhaust logical flash space;
* :mod:`repro.index.device` — :class:`IndexedDevice`, a drop-in
  :class:`~repro.ingest.device.LifecycleDevice` that is bit-identical
  to the exhaustive scan until an index is built, with the one probed
  ± delta row rule and the one re-index path (``reindex``), always
  over the store's clustered rows;
* :mod:`repro.index.sweep` — recall-vs-latency Pareto curves per
  accelerator level (``nprobe`` sweep), validated on the DES timeline;
* :mod:`repro.index.scorecard` — the perf-gate index leg.
"""

from repro.index.build import (
    IndexBuildConfig,
    IndexBuildReport,
    IvfIndex,
    build_ivf_index,
    region_blocks_for,
)
from repro.index.device import IndexedDevice
from repro.index.kmeans import assign_canonical, centroid_scores, train_kmeans
from repro.index.lists import InvertedLists
from repro.index.router import CentroidRouter, RoutingDecision
from repro.index.scorecard import build_index_scorecard
from repro.index.sweep import ParetoPoint, des_validation, sweep_pareto

__all__ = [
    "CentroidRouter",
    "IndexBuildConfig",
    "IndexBuildReport",
    "IndexedDevice",
    "InvertedLists",
    "IvfIndex",
    "ParetoPoint",
    "RoutingDecision",
    "assign_canonical",
    "build_index_scorecard",
    "build_ivf_index",
    "centroid_scores",
    "des_validation",
    "region_blocks_for",
    "sweep_pareto",
    "train_kmeans",
]
