"""Hardware top-K sorter (paper §4.3).

The accelerator controller keeps the running top-K in a priority queue
implemented with a **sorted tag array** and a **mapping table**: tags are
kept sorted by score; the mapping table, indexed by tag, stores the score
and feature id.  A new score triggers a binary search over the tag array;
on insert, lower-priority tags shift down by one, the lowest is dropped,
and its tag is recycled for the new entry.

The functional model below mirrors that structure exactly (so behaviour
and cost can be tested against it), and exposes the cycle cost the
accelerator profile charges: a compare against the current minimum every
update, plus ``log2(K) + shift`` cycles on actual inserts.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import ceil, log2
from typing import List, Sequence, Tuple

import numpy as np


@dataclass
class _MapEntry:
    score: float
    feature_id: int


class TopKSorter:
    """Sorted-tag-array top-K tracker with cycle accounting."""

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError("K must be positive")
        self.k = k
        # tag_array[i] = tag of the i-th best entry; mapping_table[tag]
        self._tag_array: List[int] = []
        self._mapping_table: List[_MapEntry] = [
            _MapEntry(float("-inf"), -1) for _ in range(k)
        ]
        self._free_tags = list(range(k))
        self.updates = 0
        self.inserts = 0
        self.cycles = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._tag_array)

    @property
    def min_score(self) -> float:
        if len(self._tag_array) < self.k:
            return float("-inf")
        return self._mapping_table[self._tag_array[-1]].score

    def update(self, score: float, feature_id: int) -> bool:
        """Offer one (score, feature) pair; returns True if inserted."""
        self.updates += 1
        self.cycles += 1  # compare against current minimum
        if len(self._tag_array) >= self.k and score <= self.min_score:
            return False
        self.inserts += 1
        position = self._binary_search(score)
        if len(self._tag_array) < self.k:
            tag = self._free_tags.pop()
        else:
            tag = self._tag_array.pop()  # evict the lowest priority entry
        self._mapping_table[tag] = _MapEntry(score, feature_id)
        self._tag_array.insert(position, tag)
        # binary search + shifting lower-priority tags down by one
        self.cycles += ceil(log2(self.k)) + (len(self._tag_array) - position)
        return True

    def _binary_search(self, score: float) -> int:
        lo, hi = 0, len(self._tag_array)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._mapping_table[self._tag_array[mid]].score >= score:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # ------------------------------------------------------------------
    def results(self) -> List[Tuple[float, int]]:
        """Current top-K as (score, feature_id), best first."""
        return [
            (self._mapping_table[tag].score, self._mapping_table[tag].feature_id)
            for tag in self._tag_array
        ]

    def expected_cycles_per_update(self, n_candidates: int) -> float:
        """Analytic mean cycles/update over a random-score stream.

        For i.i.d. scores, candidate ``i`` enters the top-K with
        probability ``min(1, k/i)``; summing gives roughly
        ``k ln(n/k) + k`` inserts over ``n`` candidates.
        """
        if n_candidates <= 0:
            raise ValueError("n_candidates must be positive")
        import math

        n, k = n_candidates, self.k
        expected_inserts = k * (1 + math.log(max(1.0, n / k)))
        insert_cost = ceil(log2(k)) + k / 2
        return 1.0 + min(1.0, expected_inserts / n) * insert_cost


def topk_select(
    pairs: Sequence[Tuple[float, int]], k: int
) -> List[Tuple[float, int]]:
    """Canonical top-K of arbitrary (score, id) pairs.

    The canonical order — score descending, feature id ascending on
    ties — is the tie-break every layer of the stack agrees on, so a
    sharded computation and an unsharded one pick the *same* winners
    even when duplicate scores straddle the K-th place.
    """
    if k <= 0:
        raise ValueError("K must be positive")
    return sorted(pairs, key=lambda pair: (-pair[0], pair[1]))[:k]


def topk_order(ids: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the canonical top-K of parallel ``ids``/``scores``.

    The vectorized :func:`topk_select`: score descending, id ascending
    on ties.  An ``argpartition`` finds the K-th best score; every
    candidate at or above it is kept (so no tie at the K-th place is
    dropped arbitrarily) and ``lexsort`` orders them by ``(-score, id)``.
    """
    if k <= 0:
        raise ValueError("K must be positive")
    take = min(k, len(scores))
    if take == 0:
        return np.empty(0, dtype=np.intp)
    neg = -np.asarray(scores)
    kth = neg[np.argpartition(neg, take - 1)[take - 1]]
    # ``~(neg > kth)`` rather than ``neg <= kth``: NaN scores stay
    # candidates (sorted last) instead of shrinking the result
    candidates = np.flatnonzero(~(neg > kth))
    order = np.lexsort((np.asarray(ids)[candidates], neg[candidates]))
    return candidates[order[:take]]


@dataclass(frozen=True)
class KWayMergeStats:
    """Work accounting of one streaming K-way merge.

    ``heap_ops`` is what the coordinator's cost model charges: each
    pop/push against the ``lists``-wide heap costs ``log2(lists)``
    comparisons, and a merge over a single list is free (the degenerate
    one-shard cluster must add zero hidden cost).
    """

    lists: int
    entries_offered: int
    entries_popped: int
    heap_ops: int

    @property
    def comparisons(self) -> int:
        """Heap comparisons: ``heap_ops * ceil(log2(lists))``."""
        if self.lists <= 1:
            return 0
        return self.heap_ops * ceil(log2(self.lists))


def kway_merge_topk(
    partials: Sequence[Sequence[Tuple[float, int]]], k: int
) -> Tuple[List[Tuple[float, int]], KWayMergeStats]:
    """Exact global top-K of per-shard top-K lists, streamed.

    The scatter-gather reduce of the cluster layer: each partial must be
    sorted in the canonical order (score descending, id ascending on
    ties — :func:`topk_select` produces exactly that), and the merge
    then consumes at most ``k`` entries head-first from a ``len(
    partials)``-way heap instead of materializing and sorting the
    concatenation.  The result is identical to :func:`topk_select` over
    the concatenated partials for canonical inputs; the stats power the
    coordinator's gather cost model.
    """
    if k <= 0:
        raise ValueError("K must be positive")
    heads: List[Tuple[float, int, int, int]] = []
    offered = 0
    for which, partial in enumerate(partials):
        offered += len(partial)
        if partial:
            score, fid = partial[0]
            # negate the score: heapq is a min-heap, we pop best-first
            heads.append((-score, fid, which, 0))
    heapq.heapify(heads)
    heap_ops = len(heads)
    merged: List[Tuple[float, int]] = []
    while heads and len(merged) < k:
        neg_score, fid, which, pos = heapq.heappop(heads)
        heap_ops += 1
        merged.append((-neg_score, fid))
        nxt = pos + 1
        partial = partials[which]
        if nxt < len(partial):
            score, next_fid = partial[nxt]
            heapq.heappush(heads, (-score, next_fid, which, nxt))
            heap_ops += 1
    stats = KWayMergeStats(
        lists=len(partials),
        entries_offered=offered,
        entries_popped=len(merged),
        heap_ops=heap_ops,
    )
    return merged, stats
