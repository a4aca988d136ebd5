"""Similarity-based in-storage query cache (paper §4.6, Algorithm 1).

Unlike a conventional result cache that needs exact key matches, the
DeepStore query cache tags each entry with a **query feature vector** and
looks up new queries by *semantic similarity*: a query comparison network
(QCN) scores the new QFV against every cached QFV, the best score is
scaled by the QCN's model accuracy, and the entry hits when
``1 - qcn_score * QCN_Acc <= threshold``.  On a hit, the SCN re-ranks
only the cached entry's top-K features; on a miss, the full database is
scanned and the result inserted (LRU replacement).

The paper's TIR evaluation uses the Universal Sentence Encoder as the
QCN.  Our substitute, :class:`EmbeddingComparator`, scores cosine
similarity of the synthetic query embeddings through a calibrated
logistic — it consumes exactly what Algorithm 1 consumes (a similarity
score in [0, 1] plus a fixed accuracy), so hit/miss behaviour versus
threshold and query locality is preserved.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class EmbeddingComparator:
    """QCN substitute: logistic over cosine similarity.

    ``score = sigmoid(steepness * (cos(q1, q2) - midpoint))`` maps
    same-intent paraphrases (high cosine) toward 1 and unrelated queries
    toward 0, with a soft boundary so the error-threshold sweep of
    Fig. 13 moves the hit rate smoothly.
    """

    steepness: float = 80.0
    midpoint: float = 0.92

    def score(self, a: np.ndarray, b: np.ndarray) -> float:
        """Similarity score of one query pair in [0, 1]."""
        return float(self.score_many(a, b.reshape(1, -1))[0])

    def score_many(self, query: np.ndarray, entries: np.ndarray) -> np.ndarray:
        """Vectorized scores of ``query`` against rows of ``entries``."""
        q = query.reshape(-1).astype(np.float64)
        e = entries.reshape(entries.shape[0], -1).astype(np.float64)
        qn = np.linalg.norm(q)
        en = np.linalg.norm(e, axis=1)
        denom = np.maximum(qn * en, 1e-12)
        cos = (e @ q) / denom
        z = self.steepness * (cos - self.midpoint)
        return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))

    def score_rows(
        self, query: np.ndarray, entries64: np.ndarray, norms64: np.ndarray
    ) -> np.ndarray:
        """:meth:`score_many` over a pre-converted float64 matrix.

        ``entries64`` must be C-contiguous float64 with per-row norms in
        ``norms64`` computed by :func:`row_norm64`.  Bit-identical to
        ``score_many(query, float32_rows)``: the float64 conversion and
        the row norms are the exact operations score_many performs, just
        done once at insert instead of on every lookup.
        """
        q = query.reshape(-1).astype(np.float64)
        qn = np.linalg.norm(q)
        denom = np.maximum(qn * norms64, 1e-12)
        cos = (entries64 @ q) / denom
        z = self.steepness * (cos - self.midpoint)
        # min(max(...)) is bit-equal to np.clip for finite input and
        # skips the dispatch wrapper this per-lookup path can't afford
        return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -60.0), 60.0)))


def row_norm64(row64: np.ndarray) -> float:
    """Norm of one matrix row, via the same reduction as the batch.

    ``np.linalg.norm(matrix, axis=1)`` and ``np.linalg.norm(vector)``
    use different reduction kernels (``add.reduce`` vs BLAS ``dot``)
    whose float results can differ in the last ulp; computing the
    stored norm through the axis-1 path on a 1-row matrix keeps cached
    norms bit-equal to what a fresh ``score_many`` stack would compute.
    """
    return float(np.linalg.norm(row64.reshape(1, -1), axis=1)[0])


@dataclass
class CacheEntry:
    """One query-cache entry (paper Fig. 7)."""

    qfv: np.ndarray
    topk_scores: np.ndarray  # similarity scores of the cached top-K
    topk_feature_ids: np.ndarray  # feature indices ("TopKFV")
    object_ids: np.ndarray  # physical addresses of the features
    valid: bool = True
    #: provenance tag, e.g. ``(db_id, epoch)`` — lookups filtered by tag
    #: only hit entries produced against the same database state
    tag: Optional[Tuple] = None

    def nbytes(self) -> int:
        """DRAM footprint of this entry."""
        return (
            self.qfv.nbytes
            + self.topk_scores.nbytes
            + self.topk_feature_ids.nbytes
            + self.object_ids.nbytes
            + 1
        )


@dataclass
class LookupResult:
    """Outcome of Algorithm 1's lookup loop."""

    hit: bool
    entry: Optional[CacheEntry]
    best_score: float
    entries_scanned: int


class QueryCache:
    """LRU similarity cache over query feature vectors."""

    def __init__(
        self,
        capacity: int,
        comparator: EmbeddingComparator,
        qcn_accuracy: float = 0.98,
        threshold: float = 0.10,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < qcn_accuracy <= 1:
            raise ValueError("qcn_accuracy must be in (0, 1]")
        if not 0 <= threshold <= 1:
            raise ValueError("threshold must be in [0, 1]")
        self.capacity = capacity
        self.comparator = comparator
        self.qcn_accuracy = qcn_accuracy
        self.threshold = threshold
        self._entries: "OrderedDict[int, CacheEntry]" = OrderedDict()
        self._next_id = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        # Lookup matrix: row i holds the float64 QFV of the i-th entry
        # in dict order, with its norm alongside, so an untagged lookup
        # is one matrix-vector product instead of stack+convert+norm
        # over every entry.  Same floats, same contiguous layout as a
        # fresh ``np.stack(...).astype(float64)``, so scores are
        # bit-equal to the stacking path tagged lookups take.
        self._fm: Optional[np.ndarray] = None
        self._fnorm: Optional[np.ndarray] = None
        self._fm_dim = 0
        #: cleared on a dimension mismatch — heterogeneous QFVs fall
        #: back to the stacking path forever (never happens in practice)
        self._fm_ok = True
        #: entry keys in dict order, so the matrix lookup path never has
        #: to materialize ``list(self._entries.keys())`` per lookup
        self._keys: List[int] = []

    # ------------------------------------------------------------------
    # lookup-matrix maintenance (mirrors every OrderedDict mutation)
    # ------------------------------------------------------------------
    def _fm_append(self, qfv32: np.ndarray) -> None:
        """Add the new last entry's row; called after the dict insert."""
        if not self._fm_ok:
            return
        row = qfv32.reshape(1, -1).astype(np.float64)
        dim = row.shape[1]
        if self._fm is None:
            self._fm = np.empty((self.capacity, dim), dtype=np.float64)
            self._fnorm = np.empty(self.capacity, dtype=np.float64)
            self._fm_dim = dim
        elif dim != self._fm_dim:
            self._fm_ok = False
            self._fm = None
            self._fnorm = None
            return
        index = len(self._entries) - 1
        self._fm[index] = row[0]
        self._fnorm[index] = row_norm64(row[0])

    def _fm_pop_front(self) -> None:
        """Drop row 0 (LRU eviction); called before the dict popitem."""
        if self._fm is None or not self._fm_ok:
            return
        n = len(self._entries)
        self._fm[: n - 1] = self._fm[1:n]
        self._fnorm[: n - 1] = self._fnorm[1:n]

    def _fm_promote(self, index: int) -> None:
        """Move row ``index`` to the end (LRU promote on a hit)."""
        if self._fm is None or not self._fm_ok:
            return
        n = len(self._entries)
        if index >= n - 1:
            return
        row = self._fm[index].copy()
        norm = self._fnorm[index]
        self._fm[index : n - 1] = self._fm[index + 1 : n]
        self._fnorm[index : n - 1] = self._fnorm[index + 1 : n]
        self._fm[n - 1] = row
        self._fnorm[n - 1] = norm

    def _fm_rebuild(self) -> None:
        """Re-derive every row from the dict (after bulk invalidation)."""
        if self._fm is None or not self._fm_ok:
            return
        for i, entry in enumerate(self._entries.values()):
            row = entry.qfv.reshape(1, -1).astype(np.float64)
            if row.shape[1] != self._fm_dim:
                self._fm_ok = False
                self._fm = None
                self._fnorm = None
                return
            self._fm[i] = row[0]
            self._fnorm[i] = row_norm64(row[0])

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.lookups if self.lookups else 0.0

    def nbytes(self) -> int:
        """Total DRAM footprint of the cached entries."""
        return sum(entry.nbytes() for entry in self._entries.values())

    # ------------------------------------------------------------------
    def lookup(self, qfv: np.ndarray, tag: Optional[Tuple] = None) -> LookupResult:
        """Algorithm 1: scan entries, scale by accuracy, threshold.

        With ``tag`` given, only entries carrying an equal tag are
        candidates — the epoch-tagged lookup a mutable database needs so
        a result cached before a mutation can never satisfy a query
        issued after it.  ``tag=None`` scans every entry (the static,
        pre-ingest behaviour).
        """
        use_matrix = tag is None and self._fm is not None and self._fm_ok
        if tag is None:
            keys = self._keys if use_matrix else list(self._entries.keys())
        else:
            keys = [k for k, e in self._entries.items() if e.tag == tag]
        if not keys:
            self.misses += 1
            return LookupResult(False, None, 0.0, 0)
        if use_matrix:
            scores = self.comparator.score_rows(
                qfv, self._fm[: len(keys)], self._fnorm[: len(keys)]
            ) * self.qcn_accuracy
        else:
            matrix = np.stack([self._entries[k].qfv for k in keys])
            scores = self.comparator.score_many(qfv, matrix) * self.qcn_accuracy
        best_index = int(scores.argmax())
        best_score = float(scores[best_index])
        if (1.0 - best_score) <= self.threshold:
            key = keys[best_index]
            entry = self._entries[key]
            index = best_index if tag is None else self._keys.index(key)
            self._fm_promote(index)
            self._keys.append(self._keys.pop(index))
            self._entries.move_to_end(key)  # LRU promote
            self.hits += 1
            return LookupResult(True, entry, best_score, len(keys))
        self.misses += 1
        return LookupResult(False, None, best_score, len(keys))

    def insert(
        self,
        qfv: np.ndarray,
        topk_scores: Sequence[float],
        topk_feature_ids: Sequence[int],
        object_ids: Optional[Sequence[int]] = None,
        tag: Optional[Tuple] = None,
    ) -> None:
        """Insert a query and its results, evicting LRU if full."""
        if object_ids is None:
            object_ids = topk_feature_ids
        entry = CacheEntry(
            qfv=np.asarray(qfv, dtype=np.float32).copy(),
            topk_scores=np.asarray(topk_scores, dtype=np.float32),
            topk_feature_ids=np.asarray(topk_feature_ids, dtype=np.int64),
            object_ids=np.asarray(object_ids, dtype=np.int64),
            tag=tag,
        )
        if len(self._entries) >= self.capacity:
            self._fm_pop_front()
            self._entries.popitem(last=False)
            del self._keys[0]
        self._entries[self._next_id] = entry
        self._keys.append(self._next_id)
        self._next_id += 1
        self._fm_append(entry.qfv)

    def invalidate(self, match: Callable[[Optional[Tuple]], bool]) -> int:
        """Drop every entry whose tag satisfies ``match``; return count.

        Mutations call this with a predicate over the entry tag (e.g.
        "same db_id") so stale top-K lists are removed outright rather
        than lingering until LRU eviction — the lookup cost a device
        pays is proportional to live entries, so correctness *and* cost
        stay honest after a mutation.
        """
        doomed = [k for k, e in self._entries.items() if match(e.tag)]
        for key in doomed:
            del self._entries[key]
        if doomed:
            self._keys = list(self._entries.keys())
            self._fm_rebuild()
        self.invalidations += len(doomed)
        return len(doomed)

    def invalidate_tag_prefix(self, prefix: Tuple) -> int:
        """Drop entries whose tag starts with ``prefix`` (e.g. a db_id)."""
        n = len(prefix)
        return self.invalidate(
            lambda tag: tag is not None and tuple(tag[:n]) == tuple(prefix)
        )

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (after warm-up)."""
        self.hits = 0
        self.misses = 0


# ----------------------------------------------------------------------
# timing simulation (Fig. 13 / Fig. 14)
# ----------------------------------------------------------------------
@dataclass
class CacheTimingModel:
    """Costs of the cache path on a given backend.

    ``lookup_seconds_per_entry`` covers fetching one cached QFV from SSD
    DRAM and running the QCN on the channel-level accelerators (the paper
    measures 0.3 ms for a 1 K-entry TIR cache); ``hit_seconds`` re-ranks
    the cached top-K with the SCN; ``miss_seconds`` is the full database
    scan on the backend (GPU+SSD or DeepStore).
    """

    lookup_seconds_per_entry: float
    hit_seconds: float
    miss_seconds: float
    insert_seconds: float = 2e-6

    def query_seconds(self, hit: bool, entries_scanned: int) -> float:
        """Total time of one query under this hit/miss outcome."""
        base = entries_scanned * self.lookup_seconds_per_entry
        if hit:
            return base + self.hit_seconds
        return base + self.miss_seconds + self.insert_seconds


@dataclass
class CacheSimReport:
    """Aggregate outcome of a query-stream simulation."""

    queries: int
    miss_rate: float
    mean_seconds: float
    total_seconds: float
    cache_entries: int

    def speedup_over(self, baseline_seconds_per_query: float) -> float:
        """Mean-latency speedup against a cache-less baseline."""
        if self.mean_seconds <= 0:
            return float("inf")
        return baseline_seconds_per_query / self.mean_seconds


class QueryCacheSimulator:
    """Runs a query stream against a cache + timing model."""

    def __init__(
        self,
        cache: QueryCache,
        timing: CacheTimingModel,
        k: int = 10,
    ):
        self.cache = cache
        self.timing = timing
        self.k = k

    def run(self, queries: Sequence, warmup: int = 0) -> CacheSimReport:
        """Process ``queries`` (QueryRecord or raw arrays).

        The first ``warmup`` queries populate the cache without being
        measured (the paper warms the cache with the trace before
        measuring, §6.5).
        """
        measured_seconds: List[float] = []
        for i, record in enumerate(queries):
            qfv = getattr(record, "qfv", record)
            result = self.cache.lookup(qfv)
            seconds = self.timing.query_seconds(result.hit, result.entries_scanned)
            if not result.hit:
                # Fabricate result ids; the simulator measures time, the
                # functional path lives in repro.core.api.
                ids = np.arange(self.k, dtype=np.int64)
                self.cache.insert(qfv, np.zeros(self.k, dtype=np.float32), ids)
            if i >= warmup:
                measured_seconds.append(seconds)
            elif i == warmup - 1:
                self.cache.reset_stats()
        n = len(measured_seconds)
        total = float(np.sum(measured_seconds)) if measured_seconds else 0.0
        return CacheSimReport(
            queries=n,
            miss_rate=self.cache.miss_rate,
            mean_seconds=total / n if n else 0.0,
            total_seconds=total,
            cache_entries=len(self.cache),
        )
