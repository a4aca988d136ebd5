"""Cluster-aware batch cost model for the query server.

:class:`ClusterBatchCostModel` presents the exact duck-typed interface
:class:`~repro.serving.batcher.BatchCostModel` gives the server —
``max_batch`` / ``service_seconds(n)`` / ``best_batch()`` /
``saturation_qps(n)`` — but prices each batch as one scatter-gather
round over the sharded deployment instead of one device scan:

    service(n) = scatter + max_shard( shard_batch(n) x straggle
                                      + failover ladders ) + gather

The per-shard batch table is a real :class:`BatchCostModel` over that
shard's slice of the database, so shared-scan amortization, degraded
accelerators, and event-calibrated fidelity all keep working per
shard.  The shard barrier (``max``) is what batching buys back: one
slow shard stalls every query in the batch, which is why the scaling
curve flattens as stragglers grow — visible in ``bench_ext_cluster``.

Planning-time estimate: the table prices each shard at its query-0
read-spread primary (the rotation-averaged figure differs only when
replicas straggle asymmetrically, inside the drift gates).  A 1-shard,
1-replica cluster yields the single-device table exactly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster.config import ClusterConfig, ClusterError
from repro.cluster.model import steady_merge_stats
from repro.cluster.placement import placement_sizes
from repro.core.deepstore import DeepStoreSystem
from repro.core.engine import DispatchPolicy
from repro.serving.batcher import BatchCostModel, BatchPolicy
from repro.ssd.ftl import DatabaseMetadata
from repro.workloads.apps import AppSpec


class ClusterBatchCostModel:
    """Scatter-gather batch pricing, duck-typing ``BatchCostModel``."""

    def __init__(
        self,
        app: AppSpec,
        meta: DatabaseMetadata,
        cluster: Optional[ClusterConfig] = None,
        system: Optional[DeepStoreSystem] = None,
        policy: Optional[BatchPolicy] = None,
        failed_accels: Tuple[int, ...] = (),
        dispatch_policy: Optional[DispatchPolicy] = None,
        fidelity: str = "analytic",
    ) -> None:
        self.app = app
        self.meta = meta
        self.cluster = cluster or ClusterConfig(n_shards=1)
        self.system = system or DeepStoreSystem.at_level(self.cluster.level)
        self.policy = policy or BatchPolicy()
        cfg = self.cluster
        sizes = placement_sizes(
            cfg.placement, meta.feature_count, cfg.n_shards, seed=cfg.seed
        )
        shards = [s for s, size in enumerate(sizes) if size > 0]
        if not shards:
            raise ClusterError("cluster database has no populated shard")
        self.n_contacted = len(shards)
        detect = (dispatch_policy or cfg.dispatch_policy).give_up_seconds()

        # one per-shard batch table per distinct slice size (balanced
        # placements collapse to at most two sizes)
        tables: dict = {}
        k = self.system.k
        # per-leg (straggle factor, failover ladder seconds, table)
        legs: List[Tuple[float, float, BatchCostModel]] = []
        for shard in shards:
            size = sizes[shard]
            table = tables.get(size)
            if table is None:
                shard_meta = DatabaseMetadata(
                    db_id=meta.db_id,
                    feature_bytes=meta.feature_bytes,
                    feature_count=size,
                    page_bytes=meta.page_bytes,
                )
                table = BatchCostModel(
                    app,
                    shard_meta,
                    system=self.system,
                    policy=self.policy,
                    failed_accels=failed_accels,
                    dispatch_policy=dispatch_policy,
                    fidelity=fidelity,
                )
                tables[size] = table
            live = cfg.live_replicas(shard)
            if not live:
                raise ClusterError(
                    f"shard {shard} has no live replica to serve"
                )
            # query-0 read spread: rotate the intended primary, pay one
            # detection ladder per dead replica ahead of the first live
            intended = shard % cfg.n_replicas
            ladder = 0.0
            primary = intended
            for j in range(cfg.n_replicas):
                candidate = (intended + j) % cfg.n_replicas
                if candidate in live:
                    primary = candidate
                    break
                ladder += detect
            legs.append(
                (cfg.replica_slowdown(shard, primary), ladder, table)
            )
        self.scatter_s = cfg.costs.scatter_seconds(self.n_contacted)
        self.gather_s = cfg.costs.gather_seconds(
            steady_merge_stats(self.n_contacted, k).comparisons
        )
        # a result DMA happens per shard leg inside the device table
        # already; the coordinator adds only its own serial costs
        #: service seconds per batch size: the barrier depends only on
        #: the size, so each dispatch is one lookup
        self._table: List[float] = [
            self.scatter_s
            + max(
                ladder + slow * table.service_seconds(n)
                for slow, ladder, table in legs
            )
            + self.gather_s
            for n in range(1, self.max_batch + 1)
        ]

    # ------------------------------------------------------------------
    @property
    def max_batch(self) -> int:
        return self.policy.max_batch

    def service_seconds(self, batch_size: int) -> float:
        """One scatter-gather round serving a ``batch_size`` batch."""
        if not 1 <= batch_size <= self.max_batch:
            raise ValueError(
                f"batch_size {batch_size} outside 1..{self.max_batch}"
            )
        return self._table[batch_size - 1]

    def best_batch(self) -> Tuple[int, float]:
        """Batch size with the highest cluster queries-per-second."""
        best_n, best_qps = 1, 1.0 / self._table[0]
        for n in range(2, self.max_batch + 1):
            qps = n / self._table[n - 1]
            if qps > best_qps:
                best_n, best_qps = n, qps
        return best_n, best_qps

    def saturation_qps(self, n_servers: int = 1) -> float:
        """Peak sustainable throughput with perfect batching."""
        if n_servers <= 0:
            raise ValueError("n_servers must be positive")
        return n_servers * self.best_batch()[1]
