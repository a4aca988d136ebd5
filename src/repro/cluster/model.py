"""Analytic cluster model: scaling curves without feature arrays.

The functional :class:`~repro.cluster.coordinator.DeepStoreCluster`
really stores and scans data — exactly right for correctness tests,
too heavy for an 8-point shard-scaling sweep over 10M-feature
databases.  :class:`ClusterModel` keeps the *timing* half only: the
per-shard latency comes from the closed-form
:meth:`~repro.core.deepstore.DeepStoreSystem.latency_for` over each
shard's slice size, and the scatter leg reuses the same hedged
scatter DES as the functional path (:func:`repro.cluster.scatter.run_scatter`),
so failover ladders, stragglers, hedge wins, and cancellation behave
identically in both.

The gather charge uses the steady-state merge shape: ``L``-way heapify
plus K pops each refilled by a push (every per-shard list holds K
candidates, so refills only run dry on the last entries — the exact
functional stats differ by at most ``L`` heap ops, inside the CI
drift gate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.config import ClusterConfig, ClusterError
from repro.cluster.placement import make_placement, range_shard_sizes
from repro.cluster.scatter import (
    ReplicaAttempt,
    ScatterResult,
    ShardJob,
    run_scatter,
)
from repro.core.deepstore import DeepStoreSystem
from repro.core.topk import KWayMergeStats
from repro.sim import fastpath
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.ssd.ftl import DatabaseMetadata
from repro.ssd.timing import SsdConfig
from repro.workloads.apps import AppSpec


@dataclass
class ClusterEstimate:
    """One modelled cluster query: cost breakdown + event counters."""

    app: str
    n_features: int
    k: int
    #: end-to-end: scatter + slowest shard + gather
    seconds: float
    scatter_seconds: float
    gather_seconds: float
    makespan_seconds: float
    #: what one unsharded SSD would take over the same dataset
    single_ssd_seconds: float
    n_contacted: int
    merge: KWayMergeStats
    failovers: int
    hedges_launched: int
    hedge_wins: int
    #: per-shard completion seconds, shard-ordered
    shard_seconds: List[float]

    @property
    def speedup_vs_single(self) -> float:
        """Scaling headline: one SSD over the sharded deployment."""
        if self.seconds <= 0:
            return 1.0
        return self.single_ssd_seconds / self.seconds

    @property
    def utilization(self) -> float:
        """Mean shard busy time over the gather barrier (<= 1.0)."""
        if not self.shard_seconds or self.makespan_seconds <= 0:
            return 1.0
        mean = sum(self.shard_seconds) / len(self.shard_seconds)
        return mean / self.makespan_seconds


class ClusterModel:
    """Timing-only cluster over one application's SCN."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        ssd: Optional[SsdConfig] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config or ClusterConfig()
        self.ssd = ssd or SsdConfig()
        self.tracer = tracer
        self.metrics = metrics
        self._systems: Dict[str, DeepStoreSystem] = {}

    def _system(self, k: int) -> DeepStoreSystem:
        key = f"{self.config.level}-k{k}"
        system = self._systems.get(key)
        if system is None:
            system = DeepStoreSystem.at_level(
                self.config.level, ssd=self.ssd, k=k
            )
            self._systems[key] = system
        return system

    # ------------------------------------------------------------------
    def shard_seconds(self, app: AppSpec, shard_features: int, k: int) -> float:
        """Healthy host-visible latency of one shard over its slice."""
        if shard_features <= 0:
            raise ClusterError("shard_features must be positive")
        system = self._system(k)
        meta = DatabaseMetadata(
            db_id=0,
            feature_bytes=app.feature_bytes,
            feature_count=shard_features,
            page_bytes=self.ssd.geometry.page_bytes,
        )
        # one estimate calls this per shard plus once for the
        # single-SSD anchor; rebuilding + re-initializing the graph
        # each time both costs the init and defeats the profile memo
        graph = fastpath.scn_graph(app, seed=self.config.seed)
        latency = system.latency_for(
            graph, meta, feature_bytes=app.feature_bytes, name=app.name
        )
        transfer = system.engine.result_transfer_seconds(k, app.feature_bytes)
        return latency.total_seconds + transfer

    def estimate(
        self, app: AppSpec, n_features: int, k: int = 10
    ) -> ClusterEstimate:
        """Model one query over ``n_features`` spread across the cluster."""
        if n_features <= 0:
            raise ClusterError("n_features must be positive")
        if k <= 0:
            raise ClusterError("K must be positive")
        cfg = self.config
        if cfg.placement == "range":
            # the analytic model consumes only shard *sizes*; skip
            # materializing one arange of ids per shard (hundreds of MB
            # at sweep scale) and take the counts straight off the cuts
            sizes = range_shard_sizes(n_features, cfg.n_shards)
            shards = [s for s, size in enumerate(sizes) if size > 0]
        else:
            placement = make_placement(
                cfg.placement, n_features, cfg.n_shards, seed=cfg.seed
            )
            sizes = [len(ids) for ids in placement.owners]
            shards = placement.non_empty_shards()
        dead = set(cfg.dead_replicas())
        detect = cfg.dispatch_policy.give_up_seconds()

        jobs: List[ShardJob] = []
        for shard in shards:
            healthy = self.shard_seconds(app, sizes[shard], k)
            primary = shard % cfg.n_replicas  # single-query read spread
            attempts = []
            for j in range(cfg.n_replicas):
                replica = (primary + j) % cfg.n_replicas
                seconds = healthy * cfg.replica_slowdown(shard, replica)
                attempts.append(
                    ReplicaAttempt(
                        replica=replica,
                        alive=(shard, replica) not in dead,
                        run=(lambda s=seconds: (s, None)),
                    )
                )
            hedge_delay = (
                cfg.hedge_fraction * healthy
                if cfg.hedge_fraction is not None and cfg.n_replicas > 1
                else None
            )
            jobs.append(
                ShardJob(
                    shard=shard,
                    attempts=tuple(attempts),
                    detect_seconds=detect,
                    hedge_delay=hedge_delay,
                )
            )
        scatter: ScatterResult = run_scatter(
            jobs, tracer=self.tracer, metrics=self.metrics
        )

        merge = self._merge_stats(len(shards), k)
        scatter_s = cfg.costs.scatter_seconds(len(shards))
        gather_s = cfg.costs.gather_seconds(merge.comparisons)
        single = self.shard_seconds(app, n_features, k)
        return ClusterEstimate(
            app=app.name,
            n_features=n_features,
            k=k,
            seconds=scatter_s + scatter.makespan_s + gather_s,
            scatter_seconds=scatter_s,
            gather_seconds=gather_s,
            makespan_seconds=scatter.makespan_s,
            single_ssd_seconds=single,
            n_contacted=len(shards),
            merge=merge,
            failovers=scatter.failovers,
            hedges_launched=scatter.hedges_launched,
            hedge_wins=scatter.hedge_wins,
            shard_seconds=[o.done_s for o in scatter.outcomes],
        )

    @staticmethod
    def _merge_stats(lists: int, k: int) -> KWayMergeStats:
        """Steady-state K-way merge shape over full K-entry partials."""
        offered = lists * k
        popped = min(k, offered)
        if lists <= 1:
            # heapify of one head + k pops, no cross-list comparisons
            heap_ops = min(1, lists) + popped
        else:
            # heapify + each pop refilled by a push from the same list
            heap_ops = lists + 2 * popped
        return KWayMergeStats(
            lists=lists,
            entries_offered=offered,
            entries_popped=popped,
            heap_ops=heap_ops,
        )
