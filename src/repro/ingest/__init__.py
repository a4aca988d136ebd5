"""Online ingest & data lifecycle: mutate the database under queries.

The paper's feature databases are write-once (``writeDB`` /
``appendDB`` only); this subsystem makes them *live*:

* :mod:`repro.ingest.store` — epoch-versioned tombstone+append store
  with O(1) snapshots and an independent oracle replay;
* :mod:`repro.ingest.writepath` — ingest traffic routed through the
  page-mapped FTL so GC pressure and write amplification are measured,
  not assumed;
* :mod:`repro.ingest.device` — :class:`LifecycleDevice`, a
  ``DeepStoreDevice`` that serves snapshot-consistent queries while
  inserts/deletes/updates land, with interference-coupled timing;
* :mod:`repro.ingest.compaction` — the preemptible background
  compaction job that folds the delta back into the layout;
* :mod:`repro.ingest.lifecycle` — the end-to-end deterministic loop,
  run on :class:`repro.index.IndexedDevice` (whose probed query
  measures index staleness and whose ``reindex`` the compaction
  triggers);
* :mod:`repro.ingest.scorecard` — the perf-gate ingest leg.
"""

from repro.ingest.compaction import (
    CompactionJob,
    CompactionPolicy,
    CompactionReport,
)
from repro.ingest.device import LifecycleDevice
from repro.ingest.lifecycle import LifecycleConfig, LifecycleReport, run_lifecycle
from repro.ingest.scorecard import build_ingest_scorecard
from repro.ingest.store import (
    IngestError,
    MutableFeatureStore,
    Mutation,
    Snapshot,
    oracle_replay,
    oracle_topk,
)
from repro.ingest.writepath import IngestWritePath, WriteOp

__all__ = [
    "CompactionJob",
    "CompactionPolicy",
    "CompactionReport",
    "IngestError",
    "IngestWritePath",
    "LifecycleConfig",
    "LifecycleDevice",
    "LifecycleReport",
    "MutableFeatureStore",
    "Mutation",
    "Snapshot",
    "WriteOp",
    "build_ingest_scorecard",
    "oracle_replay",
    "oracle_topk",
    "run_lifecycle",
]
