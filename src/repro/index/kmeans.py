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
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class IndexError_(ValueError):
    """Raised for invalid index-training parameters."""


def centroid_scores(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(n, k)`` canonical scores: ``2·(x·c) − |c|²`` in float64."""
    data = np.asarray(data, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    dots = data @ centroids.T
    norms = (centroids * centroids).sum(axis=1)
    return 2.0 * dots - norms


def assign_canonical(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Argmax-score centroid per row, ties to the lowest centroid id.

    ``np.argmax`` returns the first occurrence of the maximum, which is
    exactly the ``(-score, id)`` tie-break.
    """
    return np.argmax(centroid_scores(data, centroids), axis=1).astype(np.int64)


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
    # one float64 copy for every pass and member mean: the operands a
    # per-pass conversion would make, converted once
    data = data.astype(np.float64)
    for _ in range(iterations):
        assignments = assign_canonical(data, centroids)
        for j in range(n_lists):
            members = data[assignments == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
            else:
                biggest = int(
                    np.bincount(assignments, minlength=n_lists).argmax()
                )
                pool = np.flatnonzero(assignments == biggest)
                centroids[j] = data[pool[int(rng.integers(0, len(pool)))]]
    centroids32 = centroids.astype(np.float32)
    return centroids32, assign_canonical(data, centroids32)
