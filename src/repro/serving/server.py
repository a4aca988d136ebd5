"""The discrete-event query server.

:class:`QueryServer` turns the per-query cost models into a *service*:
an open-loop arrival schedule plays against a bounded admission queue,
a batch former, and ``n_servers`` scan backends (one DeepStore device
each), all on one :class:`~repro.sim.Simulator` timeline.  The life of
a query:

1. **arrive** — the arrival event fires at its scheduled time;
2. **cache lookup** (when a query cache is configured and the arrival
   carries a QFV) — the similarity lookup costs
   ``entries × lookup_seconds_per_entry``; a hit re-ranks the cached
   top-K and completes **without ever touching the admission queue**
   (the paper's Algorithm-1 fast path, which is what makes the cache a
   capacity multiplier and not just a latency win);
3. **admission** — a miss is offered to the bounded queue (a one-tenant
   weighted-fair queue); the configured policy decides who is shed;
4. **batch + scan** — on the :class:`~repro.serving.plane.BatchPlane`,
   an idle backend pops the head-of-line batch (same-app prefix run,
   FIFO within priority class) and holds the device for the
   shared-scan service time;
5. **complete** — per-query latency is arrival-to-completion; the
   result is inserted into the cache so later similar queries hit.

The server prices read queries only, each batch one exhaustive shared
scan on a device or one scatter-gather round on a cluster.  Write
traffic reaches the same :class:`~repro.serving.plane.BatchPlane`
through :class:`~repro.tenancy.server.MultiTenantServer`, which prices
its write ops itself; IVF-routed scans are priced in
:mod:`repro.index`.

An optional :class:`~repro.obs.Tracer` records queue depth and sheds as
instants and backend occupancy as spans; an optional
:class:`~repro.obs.MetricsRegistry` gets the run's ``serving.*``
instruments from its ledger.  Neither perturbs simulated time.  With
the same config, arrivals, and seed the result is bit-identical across
runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.api import check_counts, is_count, is_real
from repro.core.deepstore import DeepStoreSystem
from repro.core.engine import DispatchPolicy
from repro.core.query_cache import EmbeddingComparator, QueryCache
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serving.admission import (
    POLICIES,
    QueuedQuery,
    TenantQueueSpec,
    WeightedFairQueue,
)
from repro.serving.arrivals import INGEST_COMPAT, ArrivalEvent, offered_qps_of
from repro.serving.batcher import BatchCostModel, BatchPolicy
from repro.serving.plane import BatchPlane
from repro.sim import Simulator, fastpath
from repro.ssd import Ssd
from repro.workloads.apps import ALL_APPS, APP_NAMES, AppSpec, get_app

#: per-entry QCN lookup cost (paper §6.5: 0.3 ms for a 1 K-entry cache)
CACHE_LOOKUP_SECONDS_PER_ENTRY = 0.3e-6

#: the one tenant a single-tenant server's weighted-fair queue holds
TENANT = "serving"


@dataclass
class ServingConfig:
    """Everything that defines one serving scenario."""

    app: str = "tir"
    #: database size in feature vectors
    features: int = 1_000_000
    #: admission-queue bound (queries)
    queue_bound: int = 64
    #: shedding policy: ``reject`` / ``drop-oldest`` / ``deadline``
    policy: str = "reject"
    #: staleness bound for the ``deadline`` policy
    deadline_s: Optional[float] = None
    #: largest shared-scan batch
    max_batch: int = 8
    #: independent scan backends (devices)
    n_servers: int = 1
    #: query-cache entries; 0 disables the cache
    cache_entries: int = 0
    #: Algorithm-1 error threshold for the cache
    cache_threshold: float = 0.10
    #: dead channel accelerators (degraded-mode remapping)
    failed_accels: Tuple[int, ...] = ()
    #: batch cost fidelity: ``analytic`` or ``event``-calibrated
    fidelity: str = "analytic"
    #: cluster sharding: >1 prices each batch as one scatter-gather
    #: round over a sharded deployment (see repro.cluster.serving)
    n_shards: int = 1
    #: replicas per shard in the sharded deployment
    n_replicas: int = 1
    #: cluster placement strategy (range / hash / locality)
    shard_placement: str = "range"
    #: dead cluster replicas: shard ids or (shard, replica) pairs
    fail_shards: Tuple = ()

    def __post_init__(self) -> None:
        # every knob combination is validated here, up front, so a bad
        # config fails at construction with a clear message instead of
        # deep inside a sweep (where the same ValueError used to
        # surface from AdmissionQueue or the batcher mid-run)
        check_counts(self, (
            ("features", 1), ("queue_bound", 1), ("max_batch", 1),
            ("n_servers", 1), ("cache_entries", 0), ("n_shards", 1),
            ("n_replicas", 1),
        ))
        # lazy import: repro.cluster imports this package's batcher
        from repro.cluster.config import (
            PLACEMENT_STRATEGIES,
            normalize_fail_shards,
        )

        normalize_fail_shards(self.fail_shards, self.n_shards, self.n_replicas, ValueError)
        if not (
            isinstance(self.failed_accels, tuple)
            and all(is_count(i) for i in self.failed_accels)
        ):
            raise ValueError(
                f"failed_accels must be a tuple of integers >= 0, "
                f"got {self.failed_accels!r}"
            )
        if not isinstance(self.app, str) or self.app.lower() not in ALL_APPS:
            raise ValueError(
                f"unknown app {self.app!r}; expected one of {APP_NAMES}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; expected one of {POLICIES}"
            )
        if self.policy == "deadline" and not is_real(self.deadline_s, 0.0):
            raise ValueError(
                f"deadline policy needs a positive deadline_s, "
                f"got {self.deadline_s!r}"
            )
        if self.policy != "deadline" and self.deadline_s is not None:
            raise ValueError("deadline_s only applies to the deadline policy")
        if self.cache_entries > 0 and not (
            is_real(self.cache_threshold, 0.0) and self.cache_threshold < 1.0
        ):
            raise ValueError(
                "cache_threshold must be in (0, 1) when the cache is enabled, "
                f"got {self.cache_threshold!r}"
            )
        if self.fidelity not in ("analytic", "event"):
            raise ValueError(
                f"unknown fidelity {self.fidelity!r}; "
                f"expected 'analytic' or 'event'"
            )
        if self.shard_placement not in PLACEMENT_STRATEGIES:
            raise ValueError(
                f"unknown shard_placement {self.shard_placement!r}; "
                f"expected 'range', 'hash', or 'locality'"
            )

    @property
    def clustered(self) -> bool:
        """Whether batches are priced against a sharded deployment."""
        return self.n_shards > 1 or self.n_replicas > 1 or bool(self.fail_shards)


@dataclass
class ServingResult:
    """Measured outcome of one serving run at one offered load."""

    app: str
    offered_qps: float
    achieved_qps: float
    duration_s: float
    arrived: int
    admitted: int
    completed: int
    cache_hits: int
    rejected: int
    evicted: int
    expired: int
    mean_latency_s: float
    p50_s: float
    p99_s: float
    p999_s: float
    max_latency_s: float
    mean_wait_s: float
    mean_batch: float
    utilization: float
    queue_peak: int

    @property
    def shed(self) -> int:
        """Queries offered but never served."""
        return self.rejected + self.evicted + self.expired

    @property
    def shed_rate(self) -> float:
        return self.shed / self.arrived if self.arrived else 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.arrived if self.arrived else 0.0

    @property
    def goodput_fraction(self) -> float:
        """Completed / offered — 1.0 below saturation."""
        return self.completed / self.arrived if self.arrived else 0.0

    @property
    def conserved(self) -> bool:
        """Every arrival is accounted for exactly once."""
        return self.arrived == self.completed + self.shed

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (stable keys, scalar values)."""
        return {
            "app": self.app,
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "duration_s": self.duration_s,
            "arrived": self.arrived,
            "admitted": self.admitted,
            "completed": self.completed,
            "cache_hits": self.cache_hits,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "mean_latency_s": self.mean_latency_s,
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
            "p999_s": self.p999_s,
            "mean_wait_s": self.mean_wait_s,
            "mean_batch": self.mean_batch,
            "utilization": self.utilization,
            "queue_peak": self.queue_peak,
        }


class QueryServer:
    """Open-loop serving simulation over one device configuration."""

    def __init__(
        self,
        config: ServingConfig,
        system: Optional[DeepStoreSystem] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        dispatch_policy: Optional[DispatchPolicy] = None,
    ) -> None:
        self.config = config
        self.app: AppSpec = get_app(config.app)
        self.system = system or DeepStoreSystem.at_level("channel")
        self.metrics = metrics
        self.tracer = tracer
        self.meta = Ssd(self.system.ssd).ftl.create_database(
            self.app.feature_bytes, config.features
        )
        # sweeps construct one server per point; the SCN build (and the
        # graph-keyed accelerator profile) is identical every time
        self.graph = fastpath.scn_graph(self.app)
        if config.clustered:
            # lazy import: repro.cluster.serving itself imports the
            # batcher, so the edge must only exist at instance time
            from repro.cluster.config import ClusterConfig
            from repro.cluster.serving import ClusterBatchCostModel

            self.cost = ClusterBatchCostModel(
                self.app,
                self.meta,
                cluster=ClusterConfig(
                    n_shards=config.n_shards,
                    n_replicas=config.n_replicas,
                    placement=config.shard_placement,
                    level=self.system.placement.level,
                    fail_shards=config.fail_shards,
                ),
                system=self.system,
                policy=BatchPolicy(config.max_batch),
                failed_accels=config.failed_accels,
                dispatch_policy=dispatch_policy,
                fidelity=config.fidelity,
            )
        else:
            self.cost = BatchCostModel(
                self.app,
                self.meta,
                system=self.system,
                policy=BatchPolicy(config.max_batch),
                graph=self.graph,
                failed_accels=config.failed_accels,
                dispatch_policy=dispatch_policy,
                fidelity=config.fidelity,
            )
        # cache fast path: per-entry QCN lookup plus a top-K re-rank on
        # the SCN, all without occupying a scan backend
        self.cache: Optional[QueryCache] = None
        if config.cache_entries > 0:
            self.cache = QueryCache(
                capacity=config.cache_entries,
                comparator=EmbeddingComparator(),
                qcn_accuracy=self.app.qcn_accuracy,
                threshold=config.cache_threshold,
            )
        k = self.system.k
        accel = self.system.accelerator_for(self.graph)
        self.hit_seconds = (
            k * accel.compute_seconds_per_feature(max(1, k))
            + self.system.engine.query_overhead_seconds(1, k)
        )
        self.lookup_seconds_per_entry = CACHE_LOOKUP_SECONDS_PER_ENTRY

    # ------------------------------------------------------------------
    def saturation_qps(self) -> float:
        """Peak sustainable scan throughput (cache hits excluded)."""
        return self.cost.saturation_qps(self.config.n_servers)

    # ------------------------------------------------------------------
    def _service(self, tenant: str, batch: List[QueuedQuery]) -> float:
        """Price one read batch on a backend (one shared scan)."""
        return self.cost.service_seconds(len(batch))

    def _cache_results(self, batch: List[QueuedQuery]) -> None:
        """Insert a completed read batch's results so similar queries hit."""
        assert self.cache is not None
        for query in batch:
            if query.qfv is not None:
                self.cache.insert(
                    query.qfv,
                    np.zeros(self.system.k, dtype=np.float32),
                    np.arange(self.system.k, dtype=np.int64),
                )

    def run(
        self,
        arrivals: Sequence[ArrivalEvent],
        tracer: Optional[Tracer] = None,
    ) -> ServingResult:
        """Play an arrival schedule to completion; return the measures.

        ``tracer`` overrides the server's tracer for this run (each run
        restarts simulated time at zero, so timelines from separate
        runs should not share one tracer).
        """
        if not arrivals:
            raise ValueError("empty arrival schedule")
        if any(event.compat == INGEST_COMPAT for event in arrivals):
            # the plane would ledger them as writes, never as completions
            raise ValueError(
                f"compat {INGEST_COMPAT!r} is reserved for ingest writes"
            )
        config = self.config
        tracer = tracer if tracer is not None else self.tracer
        sim = Simulator(tracer=tracer)
        wfq = WeightedFairQueue([TenantQueueSpec(
            TENANT, bound=config.queue_bound, policy=config.policy,
            deadline_s=config.deadline_s,
        )])
        plane = BatchPlane(
            sim, wfq, config.n_servers, self.cost.max_batch, self._service,
            tracer=tracer,
            on_read_batch=(
                self._cache_results if self.cache is not None else None
            ),
        )
        hits = queue_peak = 0

        def admit(event: ArrivalEvent, qid: int, penalty_s: float) -> None:
            nonlocal queue_peak
            query = QueuedQuery(
                qid=qid,
                arrival_s=sim.now - penalty_s,
                priority=event.priority,
                compat=event.compat,
                intent=event.intent,
                qfv=event.qfv,
            )
            admitted = wfq.offer(TENANT, query, sim.now)
            plane.note_queue()
            # only an offer can raise the depth
            queue_peak = max(queue_peak, wfq.depth)
            if admitted:
                plane.dispatch()

        def arrive(event: ArrivalEvent, qid: int) -> None:
            if self.cache is None or event.qfv is None:
                admit(event, qid, 0.0)
                return
            lookup = self.cache.lookup(event.qfv)
            lookup_s = lookup.entries_scanned * self.lookup_seconds_per_entry
            if lookup.hit:
                # Algorithm-1 fast path: re-rank the cached top-K, never
                # touching the admission queue or a backend
                def hit_done() -> None:
                    nonlocal hits
                    hits += 1
                    plane.served(TENANT, lookup_s + self.hit_seconds)

                sim.schedule_after(
                    lookup_s + self.hit_seconds, hit_done, label="cache-hit"
                )
                return
            # the miss pays the lookup before it can join the queue
            sim.schedule_after(
                lookup_s, lambda: admit(event, qid, lookup_s), label="admit"
            )

        # bulk-schedule the whole (already time-sorted) arrival schedule:
        # identical events and sequence numbers to N schedule() calls,
        # but one heap build instead of N sifts
        sim.schedule_bulk(
            [event.time_s for event in arrivals],
            [
                (lambda event=event, qid=qid: arrive(event, qid))
                for qid, event in enumerate(arrivals)
            ],
            label="arrival",
        )
        sim.run()

        completed = len(plane.reads[TENANT])
        span = max(plane.last_completion - arrivals[0].time_s, 0.0)
        counters = wfq.counters(TENANT)
        result = ServingResult(
            app=self.app.name,
            offered_qps=offered_qps_of(list(arrivals)),
            achieved_qps=completed / span if span > 0 else 0.0,
            duration_s=span,
            arrived=len(arrivals),
            admitted=counters.admitted,
            completed=completed,
            cache_hits=hits,
            rejected=counters.rejected,
            evicted=counters.evicted,
            expired=counters.expired,
            **plane.summary(TENANT),
            mean_batch=plane.mean_batch,
            utilization=(
                plane.busy_s / (config.n_servers * span) if span > 0 else 0.0
            ),
            queue_peak=queue_peak,
        )
        if self.metrics is not None:
            _record_metrics(self.metrics, plane, result)
        return result


def _record_metrics(
    metrics: MetricsRegistry, plane: BatchPlane, result: ServingResult
) -> None:
    """Emit one run's ``serving.*`` instruments from its ledger.

    Every observation lands in the order the loop made it (completion
    order for latencies, dispatch order for waits and batch sizes), so
    the histograms' float totals match per-event recording bit for bit;
    an instrument is only created once it has something to count.
    """
    reads = plane.reads[TENANT]
    for name, count in (
        ("arrived", result.arrived),
        ("admitted", result.admitted),
        ("cache_hits", result.cache_hits),
        ("completed", result.completed),
        ("shed", result.shed),
        ("shed_rejected", result.rejected),
        ("shed_evicted", result.evicted),
        ("shed_expired", result.expired),
    ):
        if count:
            metrics.counter(f"serving.{name}").inc(count)
    for name, values, bounds in (
        ("latency_s", reads, None),
        ("wait_s", plane.waits[TENANT], None),
        ("batch_size", plane.batch_sizes, list(range(1, plane.max_batch + 1))),
    ):
        if values:
            histogram = metrics.histogram(f"serving.{name}", bounds=bounds)
            for value in values:
                histogram.observe(value)
    if result.arrived > result.cache_hits:
        # every offer and pop set the gauge: its peak is the queue's
        # peak and its value the depth the last pop left (zero)
        gauge = metrics.gauge("serving.queue_depth")
        gauge.set(float(result.queue_peak))
        gauge.set(float(plane.wfq.depth))
