"""Dataset partitioning across cluster shards.

Three strategies, all deterministic:

* ``range`` — contiguous slices, balanced to within one feature.  The
  layout an append-mostly ingest naturally produces; preserves insert
  order inside a shard, so per-shard flash extents stay sequential.
* ``hash`` — a multiplicative hash of the feature id (Knuth's
  fractional constant), decorrelating shard load from insert order.
  What a key-value-style ingest produces.
* ``locality`` — similar features co-shard: features are assigned to
  the nearest of ``n_shards`` seeded random hyperplane buckets over
  their embeddings.  NCAM-style near-data ANN deployments do this so a
  narrowed search can skip shards entirely; for the exact full-scan
  query it changes *which* shard finds the winners, never the winners.

Every strategy yields a :class:`ShardPlacement`: per-shard arrays of
**global** feature ids, in ascending order, exactly partitioning
``range(n_features)``.  With one shard, every strategy degenerates to
the identity layout — the property the differential parity suite leans
on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

#: 2**64 / golden ratio, the classic multiplicative-hash constant
_KNUTH_64 = 0x9E3779B97F4A7C15
_MASK_64 = (1 << 64) - 1


@dataclass(frozen=True)
class ShardPlacement:
    """An exact partition of ``n_features`` global ids into shards."""

    strategy: str
    n_features: int
    #: ``owners[s]`` = ascending global ids shard ``s`` stores
    owners: Tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        total = sum(len(ids) for ids in self.owners)
        if total != self.n_features:
            raise ValueError(
                f"placement covers {total} of {self.n_features} features"
            )

    @property
    def n_shards(self) -> int:
        return len(self.owners)

    @property
    def shard_sizes(self) -> Tuple[int, ...]:
        return tuple(len(ids) for ids in self.owners)

    @property
    def imbalance(self) -> float:
        """Largest shard over the perfectly balanced size (>= 1.0)."""
        sizes = self.shard_sizes
        if not sizes or self.n_features == 0:
            return 1.0
        ideal = self.n_features / self.n_shards
        return max(sizes) / ideal if ideal > 0 else 1.0

    def non_empty_shards(self) -> List[int]:
        """Shards owning at least one feature (the scatter set)."""
        return [s for s, ids in enumerate(self.owners) if len(ids) > 0]


def _owners_from_assignment(
    assignment: np.ndarray, n_shards: int
) -> Tuple[np.ndarray, ...]:
    """Per-shard ascending global-id arrays from an assignment vector.

    The argsort is stable, so each shard's slice of ``order`` already
    lists its ids in ascending order; the shards are views of one array.
    """
    order = np.argsort(assignment, kind="stable").astype(np.int64, copy=False)
    bounds = np.searchsorted(assignment[order], np.arange(n_shards + 1))
    return tuple(order[bounds[s] : bounds[s + 1]] for s in range(n_shards))


def _range_cuts(n_features: int, n_shards: int) -> np.ndarray:
    """Range placement's cuts: shard ``s`` owns ids ``cuts[s]:cuts[s + 1]``."""
    if n_features < 0:
        raise ValueError("n_features cannot be negative")
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    return np.linspace(0, n_features, n_shards + 1).astype(np.int64)


def range_placement(n_features: int, n_shards: int) -> ShardPlacement:
    """Contiguous slices, sized to within one feature of each other."""
    cuts = _range_cuts(n_features, n_shards)
    owners = tuple(
        np.arange(cuts[s], cuts[s + 1], dtype=np.int64)
        for s in range(n_shards)
    )
    return ShardPlacement("range", n_features, owners)


def hash_placement(
    n_features: int, n_shards: int, seed: int = 0
) -> ShardPlacement:
    """Multiplicative-hash assignment of ids to shards."""
    if n_features < 0:
        raise ValueError("n_features cannot be negative")
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    ids = np.arange(n_features, dtype=np.uint64)
    mixed = (ids + np.uint64((seed * 2 + 1) & _MASK_64)) * np.uint64(_KNUTH_64)
    assignment = (mixed & np.uint64(_MASK_64)) % np.uint64(n_shards)
    return ShardPlacement(
        "hash", n_features, _owners_from_assignment(assignment.astype(np.int64), n_shards)
    )


def locality_placement(
    n_features: int,
    n_shards: int,
    features: Optional[np.ndarray] = None,
    seed: int = 0,
) -> ShardPlacement:
    """Embedding-aware assignment: nearest seeded hyperplane bucket.

    Each shard gets a random unit direction; a feature goes to the
    shard whose direction it projects onto most strongly, with a
    balance correction (shards over ``2x`` the ideal size spill to the
    next-best direction).  Without embeddings (metadata-only sizing)
    this falls back to a block-cyclic layout that keeps neighbouring
    ids co-sharded.
    """
    if n_features < 0:
        raise ValueError("n_features cannot be negative")
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    if features is None:
        # block-cyclic: runs of ids stay together, blocks round-robin
        block = max(1, n_features // (n_shards * 8) or 1)
        assignment = (np.arange(n_features, dtype=np.int64) // block) % n_shards
        return ShardPlacement(
            "locality", n_features, _owners_from_assignment(assignment, n_shards)
        )
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 2 or features.shape[0] != n_features:
        raise ValueError("features must be an (n_features, dim) array")
    rng = np.random.default_rng([seed, 104729])
    directions = rng.normal(0.0, 1.0, (n_shards, features.shape[1]))
    directions /= np.maximum(
        np.linalg.norm(directions, axis=1, keepdims=True), 1e-12
    )
    scores = features @ directions.T.astype(np.float32)  # (N, n_shards)
    preference = np.argsort(-scores, axis=1, kind="stable")
    cap = max(1, int(np.ceil(2.0 * n_features / n_shards)))
    sizes = [0] * n_shards
    assignment = np.empty(n_features, dtype=np.int64)
    for i in range(n_features):
        for choice in preference[i]:
            if sizes[choice] < cap:
                assignment[i] = choice
                sizes[choice] += 1
                break
        else:  # pragma: no cover - caps sum to >= 2N, unreachable
            assignment[i] = int(np.argmin(sizes))
            sizes[assignment[i]] += 1
    return ShardPlacement(
        "locality", n_features, _owners_from_assignment(assignment, n_shards)
    )


def make_placement(
    strategy: str,
    n_features: int,
    n_shards: int,
    features: Optional[np.ndarray] = None,
    seed: int = 0,
) -> ShardPlacement:
    """Build a placement by strategy name."""
    if strategy == "range":
        return range_placement(n_features, n_shards)
    if strategy == "hash":
        return hash_placement(n_features, n_shards, seed=seed)
    if strategy == "locality":
        return locality_placement(
            n_features, n_shards, features=features, seed=seed
        )
    raise ValueError(f"unknown placement strategy {strategy!r}")


def placement_sizes(
    strategy: str, n_features: int, n_shards: int, seed: int = 0
) -> List[int]:
    """Per-shard feature counts of :func:`make_placement`.

    Exactly ``list(make_placement(strategy, n_features, n_shards,
    seed=seed).shard_sizes)``.  The cost models need only the counts:
    ``range`` takes them straight off its cuts in O(shards), with no
    per-feature id array (hundreds of MB at tens of millions of
    features); ``hash`` and ``locality`` still build the placement.
    """
    if strategy == "range":
        return np.diff(_range_cuts(n_features, n_shards)).tolist()
    placement = make_placement(strategy, n_features, n_shards, seed=seed)
    return list(placement.shard_sizes)
