"""Deterministic k-means with the canonical assignment tie-break.

This is the reproduction's one k-means: every IVF build and re-index
(:mod:`repro.index.build`) trains with it.
:func:`train_kmeans` runs a deterministic Lloyd loop and then
re-assigns once against the final centroids, so the returned
assignment *is* :func:`assign_canonical` of the returned centroids —
an index's membership rule is reproducible from its centroids alone,
the property the index test suite pins down.

The canonical rule: a vector belongs to the centroid maximizing
``score = 2·(x·c) − |c|²`` (monotone in negative squared distance),
ties broken toward the **lowest centroid id** — i.e. the argmin centroid
under the ``(-score, id)`` order used everywhere else in the codebase.

Scores are computed centroid-major, ``centroids @ data.T``: the same
float64 products as ``data @ centroids.T`` (BLAS accumulates each
element over the feature axis in an order fixed by the feature count,
however it splits rows and columns across blocks or threads), at about
a third of the host time.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class IndexError_(ValueError):
    """Raised for invalid index-training parameters."""


#: data rows scored per GEMM in :func:`assign_canonical`, so a block's
#: ``(k, rows)`` score table stays cache-resident for its argmax
_BLOCK_ROWS = 4096


def _scores_by_centroid(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(k, n)`` canonical scores of float64 rows, scaled in place."""
    scores = centroids @ data.T
    scores *= 2.0
    scores -= (centroids * centroids).sum(axis=1)[:, None]
    return scores


def centroid_scores(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(n, k)`` canonical scores: ``2·(x·c) − |c|²`` in float64."""
    return _scores_by_centroid(
        np.asarray(data, dtype=np.float64), np.asarray(centroids, dtype=np.float64)
    ).T


def assign_canonical(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Argmax-score centroid per row, ties to the lowest centroid id.

    ``np.argmax`` returns the first occurrence of the maximum, which is
    exactly the ``(-score, id)`` tie-break.  Rows are scored in blocks
    of at least ``_BLOCK_ROWS`` (one block below that).
    """
    data = np.asarray(data, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    n = len(data)
    blocks = max(1, n // _BLOCK_ROWS)
    bounds = [n * b // blocks for b in range(blocks + 1)]
    out = np.empty(n, dtype=np.int64)
    for lo, hi in zip(bounds, bounds[1:]):
        out[lo:hi] = np.argmax(_scores_by_centroid(data[lo:hi], centroids), axis=0)
    return out


def train_kmeans(
    data: np.ndarray, n_lists: int, iterations: int = 8, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic Lloyd's k-means; returns ``(centroids, assignments)``.

    The returned assignments are the canonical assignment of the
    returned centroids (a closing re-assignment pass runs after the last
    centroid update).  Empty clusters are re-seeded from the densest
    cluster's members, deterministically in ``seed``.
    """
    data = np.asarray(data, dtype=np.float32)
    if data.ndim != 2 or len(data) == 0:
        raise IndexError_("training data must be a non-empty (N, dim) array")
    if n_lists <= 0 or n_lists > len(data):
        raise IndexError_(f"n_lists={n_lists} invalid for {len(data)} vectors")
    if iterations <= 0:
        raise IndexError_("iterations must be positive")
    rng = np.random.default_rng(seed)
    centroids = data[rng.choice(len(data), size=n_lists, replace=False)].astype(
        np.float64
    )
    # one float64 copy feeds every scoring pass, the closing one included
    data64 = data.astype(np.float64)
    # member means gather float32 rows and sum them in float64: the
    # conversion is exact and an axis-0 sum adds rows in row order, as
    # the float64 mean does.  A single column is summed pairwise, and
    # the float32 cast would cut that into buffer-sized pieces.
    members_of = data if data.shape[1] > 1 else data64
    for _ in range(iterations):
        assignments = assign_canonical(data64, centroids)
        counts = np.bincount(assignments, minlength=n_lists)
        # each list's members, contiguous and in ascending row order
        order = np.argsort(assignments, kind="stable")
        ends = np.cumsum(counts)
        for j in range(n_lists):
            if counts[j]:
                members = members_of[order[ends[j] - counts[j] : ends[j]]]
                centroids[j] = members.sum(axis=0, dtype=np.float64) / counts[j]
            else:
                pool = np.flatnonzero(assignments == int(counts.argmax()))
                centroids[j] = data64[pool[int(rng.integers(0, len(pool)))]]
    centroids32 = centroids.astype(np.float32)
    return centroids32, assign_canonical(data64, centroids32)
