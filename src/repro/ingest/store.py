"""Epoch-versioned mutable feature store (tombstone + append).

The paper's database is write-once: ``writeDB`` lays features out, and
every query scans an immutable array.  A production retrieval service
ingests continuously, so :class:`MutableFeatureStore` upgrades the
functional half of the database to a **log-structured** store:

* **inserts append** — a feature id, once assigned, is stable forever
  (results, cache entries, and cluster membership all key on it);
* **deletes tombstone** — the row stays physically present (and is
  still *scanned*, costing flash reads) until a compaction reclaims it;
  logically it disappears at the epoch of the delete;
* **updates are delete + insert** — the old id is tombstoned and the
  new vector gets a fresh id, which is the only semantics compatible
  with offset-arithmetic addressing (paper §4.4: accelerators compute
  feature addresses from metadata, so in-place rewrites of a different
  epoch would race in-flight scans).

Every mutation advances the **epoch** counter.  A :class:`Snapshot` is
an O(1) handle (epoch + row high-water mark) whose visibility predicate
is stable under further mutation, because rows only ever *gain* a
deletion epoch: a row is visible at epoch ``e`` iff it was inserted at
or before ``e`` and not deleted at or before ``e``.  In-flight scans
therefore see a consistent view no matter how many mutations land while
they run — the property the oracle-replay tests assert exactly.

The mutation log is kept verbatim so tests can **replay** it through
:func:`oracle_replay`, an independent (deliberately naive) second
implementation of the same semantics.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class IngestError(RuntimeError):
    """Raised for invalid mutations (unknown ids, double deletes...)."""


@dataclass(frozen=True)
class Mutation:
    """One logged mutation (the replay log's unit)."""

    epoch: int
    op: str  # "insert" | "delete"
    #: ids assigned (insert) or tombstoned (delete)
    ids: Tuple[int, ...]


@dataclass(frozen=True)
class Snapshot:
    """A consistent read view: ``(epoch, rows inserted so far)``.

    The snapshot holds no row data — visibility is evaluated lazily
    against the store's append-only deletion records, which is what
    makes taking one O(1) and holding one free.
    """

    epoch: int
    n_rows: int


class MutableFeatureStore:
    """Append/tombstone feature rows under an epoch counter."""

    def __init__(self, base: np.ndarray):
        base = np.asarray(base, dtype=np.float32)
        if base.ndim != 2 or base.shape[0] == 0:
            raise IngestError("base features must be a non-empty (N, dim) array")
        self._chunks: List[np.ndarray] = [base.copy()]
        self._n_rows = base.shape[0]
        self._dim = base.shape[1]
        self._materialized: Optional[np.ndarray] = None
        #: row id -> epoch at which it was deleted (absent = live)
        self._deleted_at: Dict[int, int] = {}
        #: row id -> epoch at which it was inserted (base rows = epoch 0)
        self._inserted_at_boundaries: List[Tuple[int, int]] = [(0, base.shape[0])]
        self.epoch = 0
        self.log: List[Mutation] = []
        #: the epoch the clustered layout was last built at (compaction
        #: moves it forward): the one record of which rows are clustered
        self.clustered_epoch = 0
        #: rows physically occupying flash (tombstones included until a
        #: compaction reclaims them)
        self._physical_rows = base.shape[0]

    # ------------------------------------------------------------------
    # durable state (checkpoint / recovery support)
    # ------------------------------------------------------------------
    def state_tuple(self) -> Tuple:
        """The store's complete logical state as plain values.

        Everything a bit-exact reconstruction needs: row data, epoch,
        tombstone map, insert boundaries, clustered epoch, physical rows
        and the mutation log.  :meth:`from_state` inverts it; the
        recovery property suite asserts the round trip is lossless.
        """
        return (
            self.features().copy(),
            self.epoch,
            tuple(sorted(self._deleted_at.items())),
            tuple(self._inserted_at_boundaries),
            self.clustered_epoch,
            self._physical_rows,
            tuple(self.log),
        )

    @classmethod
    def from_state(
        cls,
        rows: np.ndarray,
        epoch: int,
        deleted_at: Sequence[Tuple[int, int]],
        boundaries: Sequence[Tuple[int, int]],
        clustered_epoch: int,
        physical_rows: int,
        log: Sequence[Mutation],
    ) -> "MutableFeatureStore":
        """Rebuild a store from a :meth:`state_tuple` image."""
        rows = np.asarray(rows, dtype=np.float32)
        store = cls(rows)
        store.epoch = int(epoch)
        store._deleted_at = {int(f): int(e) for f, e in deleted_at}
        store._inserted_at_boundaries = [
            (int(e), int(n)) for e, n in boundaries
        ]
        store.clustered_epoch = int(clustered_epoch)
        store._physical_rows = int(physical_rows)
        store.log = list(log)
        return store

    def state_equal(self, other: "MutableFeatureStore") -> bool:
        """Bit-exact logical equality (rows, epochs, tombstones, delta)."""
        a, b = self.state_tuple(), other.state_tuple()
        return (
            a[0].shape == b[0].shape
            and bool(np.array_equal(a[0], b[0]))
            and a[1:] == b[1:]
        )

    # ------------------------------------------------------------------
    # shape / accounting
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self._dim

    @property
    def n_rows(self) -> int:
        """Rows ever inserted (tombstoned ones included)."""
        return self._n_rows

    @property
    def n_tombstones(self) -> int:
        return len(self._deleted_at)

    @property
    def physical_rows(self) -> int:
        """Rows occupying flash pages (scan cost is proportional to this)."""
        return self._physical_rows

    @property
    def clustered_rows(self) -> int:
        """Row high-water mark at the clustered epoch.

        Rows at or above it joined after the last compaction: the delta.
        """
        return self._rows_at_epoch(self.clustered_epoch)

    @property
    def clustered_ids(self) -> np.ndarray:
        """Ids the clustered layout was built over (visible at its epoch)."""
        return self.visible_ids(self.snapshot_at(self.clustered_epoch))

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def insert(self, features: np.ndarray) -> np.ndarray:
        """Append rows; returns the newly assigned (stable) ids."""
        features = np.asarray(features, dtype=np.float32)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        if features.ndim != 2 or features.shape[0] == 0:
            raise IngestError("insert needs a non-empty (N, dim) array")
        if features.shape[1] != self._dim:
            raise IngestError(
                f"insert dim {features.shape[1]} != store dim {self._dim}"
            )
        ids = np.arange(
            self._n_rows, self._n_rows + features.shape[0], dtype=np.int64
        )
        self._chunks.append(features.copy())
        self._materialized = None
        self._n_rows += features.shape[0]
        self._physical_rows += features.shape[0]
        self.epoch += 1
        self._inserted_at_boundaries.append((self.epoch, self._n_rows))
        self.log.append(Mutation(self.epoch, "insert", tuple(int(i) for i in ids)))
        return ids

    def delete(self, ids: Sequence[int]) -> None:
        """Tombstone rows; the ids must be currently visible."""
        ids = [int(i) for i in ids]
        if not ids:
            raise IngestError("delete needs at least one id")
        for fid in ids:
            if not 0 <= fid < self._n_rows:
                raise IngestError(f"unknown feature id {fid}")
            if fid in self._deleted_at:
                raise IngestError(f"feature id {fid} is already deleted")
        if len(set(ids)) != len(ids):
            raise IngestError("duplicate ids in one delete")
        self.epoch += 1
        for fid in ids:
            self._deleted_at[fid] = self.epoch
        self.log.append(Mutation(self.epoch, "delete", tuple(ids)))

    def update(self, fid: int, feature: np.ndarray) -> int:
        """Replace one row: tombstone ``fid``, insert the new vector.

        Returns the new id.  Two epochs are consumed (the delete and the
        insert), so a snapshot taken between them sees neither version —
        exactly the anomaly-free behaviour replay tests pin down.
        """
        self.delete([fid])
        return int(self.insert(np.asarray(feature).reshape(1, -1))[0])

    # ------------------------------------------------------------------
    # snapshots / visibility
    # ------------------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """An O(1) consistent view as of the current epoch."""
        return Snapshot(epoch=self.epoch, n_rows=self._n_rows)

    def _rows_at_epoch(self, epoch: int) -> int:
        """Row high-water mark as of ``epoch``."""
        # boundaries ascend by epoch: the last one at or before ``epoch``
        i = bisect.bisect_right(self._inserted_at_boundaries, (epoch, math.inf))
        return self._inserted_at_boundaries[i - 1][1] if i else 0

    def snapshot_at(self, epoch: int) -> Snapshot:
        """Reconstruct the snapshot any past epoch would have taken."""
        if not 0 <= epoch <= self.epoch:
            raise IngestError(f"epoch {epoch} outside [0, {self.epoch}]")
        return Snapshot(epoch=epoch, n_rows=self._rows_at_epoch(epoch))

    def is_visible(self, fid: int, snapshot: Optional[Snapshot] = None) -> bool:
        """Whether a row is live in the given (default: current) view."""
        snap = snapshot or self.snapshot()
        if not 0 <= fid < snap.n_rows:
            return False
        deleted = self._deleted_at.get(fid)
        return deleted is None or deleted > snap.epoch

    def visible_ids(self, snapshot: Optional[Snapshot] = None) -> np.ndarray:
        """Ascending ids visible in the given (default: current) view."""
        snap = snapshot or self.snapshot()
        ids = np.arange(snap.n_rows, dtype=np.int64)
        if not self._deleted_at:
            return ids
        dead = np.fromiter(
            (
                fid
                for fid, at in self._deleted_at.items()
                if at <= snap.epoch and fid < snap.n_rows
            ),
            dtype=np.int64,
        )
        if len(dead) == 0:
            return ids
        mask = np.ones(snap.n_rows, dtype=bool)
        mask[dead] = False
        return ids[mask]

    def features(self) -> np.ndarray:
        """All rows ever inserted, id order (tombstones included)."""
        if self._materialized is None or len(self._materialized) != self._n_rows:
            self._materialized = (
                self._chunks[0]
                if len(self._chunks) == 1
                else np.concatenate(self._chunks, axis=0)
            )
            self._chunks = [self._materialized]
        return self._materialized

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """Row data for specific ids."""
        return self.features()[np.asarray(ids, dtype=np.int64)]

    # ------------------------------------------------------------------
    # delta region / compaction bookkeeping
    # ------------------------------------------------------------------
    def delta_ids(self, snapshot: Optional[Snapshot] = None) -> np.ndarray:
        """Visible ids NOT covered by the clustered layout."""
        visible = self.visible_ids(snapshot)
        return visible[visible >= self.clustered_rows]

    def delta_fraction(self, snapshot: Optional[Snapshot] = None) -> float:
        """Fraction of the visible database living outside the index.

        Tombstoned *clustered* rows count toward staleness too: they are
        covered pages that no longer hold an answer.
        """
        visible = self.visible_ids(snapshot)
        if len(visible) == 0:
            return 0.0
        return len(self.delta_ids(snapshot)) / len(visible)

    def mark_compacted(self, snapshot: Snapshot) -> int:
        """Record that a compaction re-clustered the view ``snapshot``.

        The clustered region becomes exactly the rows visible at the
        snapshot; tombstones at or before it are physically reclaimed
        (scan cost drops).  Returns the number of reclaimed rows.
        """
        physical = len(self.visible_ids(snapshot)) + (self._n_rows - snapshot.n_rows)
        reclaimed = self._physical_rows - physical
        self.clustered_epoch = snapshot.epoch
        self._physical_rows = physical
        return max(0, reclaimed)


# ----------------------------------------------------------------------
# the independent oracle
# ----------------------------------------------------------------------
def oracle_replay(
    base: np.ndarray, log: Sequence[Mutation], epoch: int
) -> Tuple[np.ndarray, List[int]]:
    """Naive second implementation: replay the log up to ``epoch``.

    Returns ``(all_rows, visible_ids)`` where ``all_rows`` stacks every
    row ever inserted at or before ``epoch`` (id order) and
    ``visible_ids`` are the live ones.  Kept deliberately simple — a
    dict of id -> row and a set of dead ids — so a bug in the store's
    vectorized bookkeeping cannot also live here.
    """
    rows: List[np.ndarray] = [np.asarray(r, dtype=np.float32) for r in base]
    dead: set = set()
    next_id = len(rows)
    for mutation in log:
        if mutation.epoch > epoch:
            break
        if mutation.op == "insert":
            for _ in mutation.ids:
                next_id += 1
        elif mutation.op == "delete":
            dead.update(mutation.ids)
        else:  # pragma: no cover - the store only logs two ops
            raise IngestError(f"unknown op {mutation.op!r}")
    visible = [i for i in range(next_id) if i not in dead]
    return np.stack(rows) if rows else base, visible


def oracle_topk(
    features: np.ndarray,
    visible_ids: Sequence[int],
    scores: np.ndarray,
    k: int,
) -> List[Tuple[float, int]]:
    """Exact top-K over a visible set with the canonical tie-break.

    ``scores`` is indexed by global id; the canonical order (score
    descending, id ascending) matches :func:`repro.core.topk.topk_select`
    so store-vs-oracle comparisons are exact even under ties.
    """
    pairs = [(float(scores[i]), int(i)) for i in visible_ids]
    pairs.sort(key=lambda p: (-p[0], p[1]))
    return pairs[:k]
