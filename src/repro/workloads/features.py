"""Synthetic feature databases.

The paper extracts feature vectors from real datasets; the evaluation
depends on their *geometry* — per-vector size, database size, and the
existence of semantically similar clusters (queries and their matching
items share an underlying "intent").  We generate clustered Gaussians:
``n_intents`` centroids, each feature a centroid plus noise.  Retrieval
quality examples plant known neighbors and check they come back in the
top-K.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class FeatureDatasetSpec:
    """Shape of a synthetic feature database."""

    n_features: int
    dim: int
    n_intents: int = 64
    noise: float = 0.35
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_features <= 0 or self.dim <= 0 or self.n_intents <= 0:
            raise ValueError("dataset dimensions must be positive")
        if self.noise < 0:
            raise ValueError("noise cannot be negative")

    def centroids(self) -> np.ndarray:
        """The intent centroids (deterministic for a given seed)."""
        rng = np.random.default_rng(self.seed)
        return rng.normal(0.0, 1.0, (self.n_intents, self.dim)).astype(np.float32)


def make_clustered_features(
    spec: FeatureDatasetSpec,
) -> Tuple[np.ndarray, np.ndarray]:
    """Materialize the full database: (features, intent labels)."""
    rng = np.random.default_rng(spec.seed + 1)
    centroids = spec.centroids()
    labels = rng.integers(0, spec.n_intents, spec.n_features)
    noise = rng.normal(0.0, spec.noise, (spec.n_features, spec.dim))
    features = (centroids[labels] + noise).astype(np.float32)
    return features, labels



def plant_neighbors(
    features: np.ndarray,
    query: np.ndarray,
    k: int,
    noise: float = 0.05,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Overwrite ``k`` random rows with near-copies of ``query``.

    Returns (modified features, planted indices).  Used by retrieval
    quality tests/examples: a correct end-to-end query must return the
    planted indices in its top-K.
    """
    if k <= 0 or k > len(features):
        raise ValueError(f"cannot plant {k} neighbors in {len(features)} rows")
    rng = np.random.default_rng(seed)
    planted = rng.choice(len(features), size=k, replace=False)
    out = features.copy()
    out[planted] = query[None, :] + rng.normal(0.0, noise, (k, query.size)).astype(
        np.float32
    )
    return out, np.sort(planted)
