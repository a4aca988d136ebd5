"""Cluster configuration and the coordinator's cost constants.

A cluster is ``n_shards`` dataset partitions, each stored on
``n_replicas`` independent simulated DeepStore SSDs, fronted by a
host-side coordinator that scatters queries and gathers per-shard
top-K lists.  :class:`ClusterConfig` is everything that defines one
such deployment; :class:`CoordinatorCosts` is the host-side analogue of
:class:`~repro.core.engine.EngineCosts` — the (small, explicit) serial
costs the coordinator itself adds.

**Degenerate-case invariant.**  A 1-shard, 1-replica cluster must cost
*exactly* what the single SSD costs: the scatter charge is per shard
*beyond the first* and the gather charge is per heap comparison of the
K-way merge (zero comparisons for one list), so both vanish when the
cluster degenerates to one device.  The differential parity suite
holds the layer to this bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Tuple, Union

from repro.core.api import check_counts, is_count, is_real
from repro.core.engine import DispatchPolicy
from repro.core.placement import LEVELS

if TYPE_CHECKING:  # imported lazily to avoid a module cycle
    from repro.cluster.breaker import BreakerConfig
    from repro.cluster.brownout import BrownoutConfig
    from repro.cluster.retry import RetryPolicy

#: placement strategies :func:`repro.cluster.placement.make_placement` knows
PLACEMENT_STRATEGIES = ("range", "hash", "locality")


class ClusterError(RuntimeError):
    """Raised for unservable cluster states (e.g. a shard with no live
    replica) and malformed requests."""


def normalize_fail_shards(
    fail_shards: Tuple[Union[int, Tuple[int, int]], ...],
    n_shards: int,
    n_replicas: int,
    error: Callable[[str], Exception] = ClusterError,
) -> Tuple[Tuple[int, int], ...]:
    """Normalize dead-replica specs to sorted (shard, replica) pairs.

    A bare shard id kills that shard's replica 0 (its primary copy);
    an explicit pair kills one specific replica.  Every entry must be
    an integer id, or a pair of them, inside the ``n_shards`` x
    ``n_replicas`` deployment; anything else raises ``error``.
    """
    if not isinstance(fail_shards, (tuple, list)):
        raise error(f"fail_shards must be a tuple, got {fail_shards!r}")
    dead = set()
    for spec in fail_shards:
        pair = spec if isinstance(spec, tuple) else (spec, 0)
        if not (
            len(pair) == 2
            and is_count(pair[0]) and pair[0] < n_shards
            and is_count(pair[1]) and pair[1] < n_replicas
        ):
            raise error(
                f"fail_shards entry {spec!r} must be a shard id or a "
                f"(shard, replica) pair of integers in [0, {n_shards}) "
                f"x [0, {n_replicas})"
            )
        dead.add((int(pair[0]), int(pair[1])))
    return tuple(sorted(dead))


@dataclass(frozen=True)
class CoordinatorCosts:
    """Host-side serial costs of one scatter-gather round."""

    #: issuing one shard request beyond the first (NVMe submission +
    #: host driver work); the first shard rides the query's own setup
    scatter_per_shard_seconds: float = 5e-6
    #: one heap comparison of the streaming K-way merge on the host
    merge_per_comparison_seconds: float = 0.05e-6

    def __post_init__(self) -> None:
        if self.scatter_per_shard_seconds < 0:
            raise ValueError("scatter_per_shard_seconds cannot be negative")
        if self.merge_per_comparison_seconds < 0:
            raise ValueError("merge_per_comparison_seconds cannot be negative")

    def scatter_seconds(self, n_contacted: int) -> float:
        """Serial fan-out cost of contacting ``n_contacted`` shards."""
        if n_contacted <= 0:
            raise ValueError("n_contacted must be positive")
        return self.scatter_per_shard_seconds * (n_contacted - 1)

    def gather_seconds(self, comparisons: int) -> float:
        """Host merge cost for ``comparisons`` heap comparisons."""
        if comparisons < 0:
            raise ValueError("comparisons cannot be negative")
        return self.merge_per_comparison_seconds * comparisons


@dataclass(frozen=True)
class ClusterConfig:
    """One sharded, replicated DeepStore deployment."""

    #: dataset partitions (each a full simulated SSD per replica)
    n_shards: int = 4
    #: copies of every shard (R-way replication)
    n_replicas: int = 1
    #: partition strategy: ``range`` / ``hash`` / ``locality``
    placement: str = "range"
    #: accelerator placement level inside every shard SSD
    level: str = "channel"
    #: deterministic seed (read spread, stragglers, locality centroids)
    seed: int = 0
    #: hedge a shard request onto the next replica once the primary has
    #: been outstanding ``hedge_fraction`` x the expected shard latency;
    #: ``None`` disables hedging
    hedge_fraction: Optional[float] = None
    #: spread of the deterministic per-replica straggler factors: each
    #: replica runs at ``1 + straggler_spread * u(seed, shard, replica)``
    #: times its healthy latency (0 = every replica healthy)
    straggler_spread: float = 0.0
    #: dead replicas: bare shard ids (replica 0) or (shard, replica);
    #: normalized to sorted, distinct (shard, replica) pairs
    fail_shards: Tuple = ()
    #: detection ladder paid per dead replica before failing over
    dispatch_policy: DispatchPolicy = field(default_factory=DispatchPolicy)
    #: host-side serial costs
    costs: CoordinatorCosts = field(default_factory=CoordinatorCosts)
    #: failover retry ladder (capped backoff + seeded jitter + per-query
    #: budget); ``None`` keeps the legacy unlimited zero-pause walk
    #: bit-identical
    retry_policy: Optional["RetryPolicy"] = None
    #: per-replica circuit breakers; ``None`` disables them (legacy)
    breaker: Optional["BreakerConfig"] = None
    #: stepped brownout degradation; ``None`` disables it (legacy)
    brownout: Optional["BrownoutConfig"] = None

    def __post_init__(self) -> None:
        from repro.cluster.breaker import BreakerConfig
        from repro.cluster.brownout import BrownoutConfig
        from repro.cluster.retry import RetryPolicy

        check_counts(
            self, (("n_shards", 1), ("n_replicas", 1), ("seed", 0)), ClusterError
        )
        for name, kind in (("dispatch_policy", DispatchPolicy), ("retry_policy", RetryPolicy),
                           ("breaker", BreakerConfig), ("brownout", BrownoutConfig)):
            value = getattr(self, name)
            if not isinstance(value, kind) and (value is not None or kind is DispatchPolicy):
                raise ClusterError(f"{name} must be a {kind.__name__}, got {value!r}")
        if self.placement not in PLACEMENT_STRATEGIES:
            raise ClusterError(
                f"unknown placement {self.placement!r}; "
                f"choose from {PLACEMENT_STRATEGIES}"
            )
        if self.level not in tuple(LEVELS):
            raise ClusterError(
                f"unknown level {self.level!r}; choose from {tuple(LEVELS)}"
            )
        if self.hedge_fraction is not None and not (
            is_real(self.hedge_fraction, 0.0) and self.hedge_fraction < math.inf
        ):
            raise ClusterError(
                "hedge_fraction must be a finite positive number (or None), "
                f"got {self.hedge_fraction!r}"
            )
        if not (
            is_real(self.straggler_spread)
            and 0 <= self.straggler_spread < math.inf
        ):
            raise ClusterError(
                "straggler_spread must be a finite non-negative number, "
                f"got {self.straggler_spread!r}"
            )
        object.__setattr__(
            self, "fail_shards",
            normalize_fail_shards(self.fail_shards, self.n_shards, self.n_replicas),
        )

    # ------------------------------------------------------------------
    def live_replicas(self, shard: int) -> Tuple[int, ...]:
        """Replica indices of ``shard`` still in service."""
        dead = set(self.fail_shards)
        return tuple(
            r for r in range(self.n_replicas) if (shard, r) not in dead
        )

    def replica_slowdown(self, shard: int, replica: int) -> float:
        """Deterministic straggler factor of one replica (>= 1.0).

        Drawn from ``(seed, shard, replica)`` so the same deployment
        always stutters in the same places — which is what lets the
        hedge-win counters be drift-gated like every other number.
        """
        if self.straggler_spread == 0.0:
            return 1.0
        import numpy as np

        rng = np.random.default_rng([self.seed, 7919, shard, replica])
        return 1.0 + self.straggler_spread * float(rng.random())

    def describe(self) -> str:
        """One-line human summary used by reports and the CLI."""
        parts = [
            f"{self.n_shards} shard(s) x {self.n_replicas} replica(s)",
            f"{self.placement} placement",
            f"{self.level}-level accelerators",
        ]
        if self.fail_shards:
            parts.append(f"{len(self.fail_shards)} dead replica(s)")
        if self.hedge_fraction is not None:
            parts.append(f"hedge @ {self.hedge_fraction:g}x")
        if self.straggler_spread:
            parts.append(f"stragglers <= {1 + self.straggler_spread:g}x")
        return ", ".join(parts)
