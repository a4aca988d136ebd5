"""The sharded cluster: N partitions x R replica SSDs + a coordinator.

:class:`DeepStoreCluster` is the multi-device analogue of
:class:`~repro.core.api.DeepStoreDevice`: functional (real numpy
retrieval over partitioned feature arrays) *and* timed (every query
carries the modelled scatter/compute/gather cost).  Each (shard,
replica) pair is a full simulated DeepStore SSD running its existing
SCN pipeline; the coordinator:

1. **scatters** the query to every non-empty shard, picking each
   shard's primary replica by read-spread rotation and failing over
   (one detection ladder per corpse) when replicas are dead;
2. optionally **hedges**: a backup replica launches when the primary
   has been outstanding ``hedge_fraction`` x its healthy latency, and
   the first completion wins (the loser is cancelled, never merged).
   Both replicas hold the same rows, so the backup's scan is a hit in
   the process-wide scan memo (:func:`repro.sim.fastpath.scan_topk`);
   each still runs its own cache and latency model;
3. **gathers** the per-shard top-K lists into the exact global top-K
   with the streaming K-way merge of :mod:`repro.core.topk`.

**Parity contract**: a 1-shard, 1-replica cluster returns bit-identical
ids/scores to a standalone device over the same features, and its
end-to-end seconds equal the device's ``seconds_to_host`` exactly —
the scatter charge (per shard beyond the first), the gather charge
(per heap comparison), and the straggler factor all degenerate to
zero/identity.  The differential suite enforces this per accelerator
level, with and without the query cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.breaker import BreakerState, CircuitBreaker
from repro.cluster.brownout import BrownoutController
from repro.cluster.config import ClusterConfig, ClusterError
from repro.cluster.placement import ShardPlacement, make_placement
from repro.cluster.retry import RetryLadder
from repro.cluster.scatter import (
    ReplicaAttempt,
    ShardJob,
    ShardOutcome,
    run_scatter,
)
from repro.core.api import DeepStoreDevice, QueryResult
from repro.core.topk import KWayMergeStats, kway_merge_topk, topk_select
from repro.nn import Graph
from repro.obs.dtrace import QueryTraceContext, TraceCollector
from repro.obs.metrics import MetricsRegistry
from repro.ssd.timing import SsdConfig


@dataclass(frozen=True)
class ShardReport:
    """One shard's share of a cluster query."""

    shard: int
    #: replica whose result was merged (``-1`` when unavailable)
    replica: int
    #: completion time of this shard's leg (detection + compute + DMA)
    seconds: float
    detect_seconds: float
    failovers: int
    hedged: bool
    hedge_won: bool
    cache_hit: bool
    #: retry-ladder pause seconds charged to this leg
    retry_pause_seconds: float = 0.0
    #: no live replica answered within the retry budget — the global
    #: top-K is partial and this shard contributed nothing
    unavailable: bool = False
    # -- critical-path attribution inputs (NOT in to_dict: the perf
    # gate's scorecard leaves must stay byte-identical) ---------------
    #: the winning replica's own run time (the exact float it returned)
    service_seconds: float = 0.0
    #: hedge delay on the latency path (nonzero only when hedge won)
    hedge_wait_seconds: float = 0.0
    #: time the winning hedge saved vs the primary's planned finish
    hedge_saved_seconds: float = 0.0
    #: replicas the circuit breakers refused at dispatch time
    breaker_rejections: int = 0


@dataclass
class ClusterQueryResult:
    """Global top-K plus the full scatter-gather cost breakdown."""

    feature_ids: np.ndarray  # global ids into the cluster dataset
    scores: np.ndarray  # best first
    #: end-to-end: scatter + slowest shard + gather
    seconds: float
    scatter_seconds: float
    gather_seconds: float
    #: completion time of the slowest shard leg
    makespan_seconds: float
    n_contacted: int
    merge: KWayMergeStats
    shards: List[ShardReport]

    @property
    def k(self) -> int:
        return len(self.feature_ids)

    @property
    def cache_hit(self) -> bool:
        """True when every contacted shard answered from its cache."""
        return bool(self.shards) and all(s.cache_hit for s in self.shards)

    @property
    def hedges_launched(self) -> int:
        return sum(1 for s in self.shards if s.hedged)

    @property
    def hedge_wins(self) -> int:
        return sum(1 for s in self.shards if s.hedge_won)

    @property
    def failovers(self) -> int:
        return sum(s.failovers for s in self.shards)

    @property
    def unavailable_shards(self) -> int:
        """Shards that answered with *unavailable* instead of a list."""
        return sum(1 for s in self.shards if s.unavailable)

    @property
    def partial(self) -> bool:
        """True when at least one shard could not be served — the
        top-K covers only the shards that answered."""
        return self.unavailable_shards > 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (stable key order via sort_keys dumps)."""
        return {
            "feature_ids": [int(i) for i in self.feature_ids],
            "scores": [round(float(s), 6) for s in self.scores],
            "seconds": self.seconds,
            "scatter_seconds": self.scatter_seconds,
            "gather_seconds": self.gather_seconds,
            "makespan_seconds": self.makespan_seconds,
            "n_contacted": self.n_contacted,
            "merge_comparisons": self.merge.comparisons,
            "failovers": self.failovers,
            "hedges_launched": self.hedges_launched,
            "hedge_wins": self.hedge_wins,
            "cache_hit": self.cache_hit,
            "partial": self.partial,
            "unavailable_shards": self.unavailable_shards,
            "shards": [
                {
                    "shard": s.shard,
                    "replica": s.replica,
                    "seconds": s.seconds,
                    "failovers": s.failovers,
                    "hedged": s.hedged,
                    "hedge_won": s.hedge_won,
                    "cache_hit": s.cache_hit,
                    "unavailable": s.unavailable,
                }
                for s in self.shards
            ],
        }


def trace_leg(
    dtrace: TraceCollector,
    shard_ctx: QueryTraceContext,
    job: ShardJob,
    outcome: ShardOutcome,
    base_s: float,
) -> None:
    """Render one scatter leg's spans under its open shard span.

    Leg times are local (every leg launches at scatter time 0), so
    ``base_s`` anchors them on the query's clock.  The spans: a
    zero-length one per breaker rejection, the failover detection (or the
    unavailable verdict), each cancelled hedge loser (ending when the
    winner landed), the winning attempt and its device run.  Closing
    ``shard_ctx`` at the leg's completion ends the leg.
    """
    track = f"cluster/shard {job.shard}"
    for replica, state in job.breaker_rejected:
        dtrace.add_span(
            shard_ctx, f"breaker reject r{replica}", base_s, base_s,
            kind="cluster.breaker", track=track,
            status="rejected", replica=replica, state=state,
        )
    done = base_s + outcome.done_s
    if outcome.unavailable:
        dtrace.add_span(
            shard_ctx, "unavailable", base_s, done,
            kind="cluster.detect", track=track,
            status="unavailable", failovers=outcome.failovers,
            retry_pause_s=outcome.retry_pause_s,
        )
        dtrace.end_span(
            shard_ctx, done, status="unavailable",
            failovers=outcome.failovers,
        )
        return
    # the primary launched once detection and retry pauses were paid
    launch = outcome.detect_s + outcome.retry_pause_s
    if launch > 0.0:
        dtrace.add_span(
            shard_ctx, f"failover detect x{outcome.failovers}",
            base_s, base_s + launch,
            kind="cluster.detect", track=track,
            failovers=outcome.failovers,
            retry_pause_s=outcome.retry_pause_s,
        )
    for replica, start in outcome.cancelled:
        # a loser's span ends when it was cancelled, not at its
        # planned completion: that work never happened
        dtrace.add_span(
            shard_ctx, f"attempt r{replica} (hedge loser)",
            base_s + start, done,
            kind="cluster.attempt", track=track,
            status="cancelled", replica=replica,
        )
    name = f"attempt r{outcome.replica}"
    if outcome.hedge_won:
        name += " (hedge winner)"
    dtrace.add_span(
        shard_ctx, name, base_s + outcome.start_s, done,
        kind="cluster.attempt", track=track,
        replica=outcome.replica, hedged=outcome.hedged,
        hedge_won=outcome.hedge_won,
    )
    # device execution as a leaf of the shard leg: the winning
    # replica's simulated SSD run (or cache hit)
    dtrace.add_span(
        shard_ctx, f"device s{job.shard}r{outcome.replica}",
        base_s + outcome.start_s, done,
        kind="device.query", track="device",
        **outcome.payload.span_args(),
    )
    dtrace.end_span(
        shard_ctx, done,
        replica=outcome.replica,
        failovers=outcome.failovers,
        hedged=outcome.hedged,
        hedge_won=outcome.hedge_won,
    )


class DeepStoreCluster:
    """N shards x R replicas of simulated DeepStore SSDs, coordinated."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        ssd: Optional[SsdConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config or ClusterConfig()
        self.metrics = metrics
        cfg = self.config
        self.devices: Dict[Tuple[int, int], DeepStoreDevice] = {
            (shard, replica): DeepStoreDevice(
                ssd=ssd, level=cfg.level, seed=cfg.seed
            )
            for shard in range(cfg.n_shards)
            for replica in range(cfg.n_replicas)
        }
        #: cluster db id -> placement
        self._placements: Dict[int, ShardPlacement] = {}
        #: cluster db id -> {(shard, replica): device db id}
        self._db_map: Dict[int, Dict[Tuple[int, int], int]] = {}
        #: cluster model id -> {(shard, replica): device model id}
        self._model_map: Dict[int, Dict[Tuple[int, int], int]] = {}
        self._next_db_id = 1
        self._next_model_id = 1
        self._query_seq = 0
        #: runtime outages (chaos kills/restarts), on top of the
        #: config's static ``fail_shards``
        self._down: set = set()
        #: per-replica circuit breakers (only when configured)
        self.breakers: Dict[Tuple[int, int], CircuitBreaker] = {}
        if cfg.breaker is not None:
            self.breakers = {
                key: CircuitBreaker(cfg.breaker) for key in self.devices
            }
        #: stepped brownout controller (only when configured)
        self.brownout: Optional[BrownoutController] = (
            BrownoutController(cfg.brownout)
            if cfg.brownout is not None
            else None
        )

    # ------------------------------------------------------------------
    # runtime outages (the chaos harness's kill/restart surface)
    # ------------------------------------------------------------------
    def set_replica_down(self, shard: int, replica: int) -> None:
        """Take one replica out of service at runtime."""
        if (shard, replica) not in self.devices:
            raise ClusterError(f"unknown replica ({shard}, {replica})")
        self._down.add((shard, replica))

    def set_replica_up(self, shard: int, replica: int) -> None:
        """Return one replica to service (restart complete)."""
        self._down.discard((shard, replica))

    # ------------------------------------------------------------------
    # ingest / models / cache
    # ------------------------------------------------------------------
    def write_db(self, features: np.ndarray) -> int:
        """Partition an (N, dim) feature array across the shards.

        Every replica of a shard stores an identical copy of that
        shard's slice; empty shards (more shards than features) simply
        hold no database and are never contacted.
        """
        features = np.asarray(features, dtype=np.float32)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ClusterError("features must be a non-empty (N, dim) array")
        placement = make_placement(
            self.config.placement,
            features.shape[0],
            self.config.n_shards,
            features=features if self.config.placement == "locality" else None,
            seed=self.config.seed,
        )
        db_id = self._next_db_id
        self._next_db_id += 1
        per_device: Dict[Tuple[int, int], int] = {}
        for shard, owners in enumerate(placement.owners):
            if len(owners) == 0:
                continue
            slice_ = np.ascontiguousarray(features[owners])
            for replica in range(self.config.n_replicas):
                per_device[(shard, replica)] = self.devices[
                    (shard, replica)
                ].write_db(slice_)
        self._placements[db_id] = placement
        self._db_map[db_id] = per_device
        return db_id

    def placement_of(self, db_id: int) -> ShardPlacement:
        """The shard placement of one cluster database."""
        placement = self._placements.get(db_id)
        if placement is None:
            raise ClusterError(f"unknown cluster database id {db_id}")
        return placement

    def load_graph(self, graph: Graph) -> int:
        """Register a model on every replica SSD."""
        model_id = self._next_model_id
        self._next_model_id += 1
        self._model_map[model_id] = {
            key: device.load_graph(graph)
            for key, device in self.devices.items()
        }
        return model_id

    def set_qc(self, threshold: float, **kwargs: Any) -> None:
        """``setQC`` on every replica SSD (per-device caches)."""
        for device in self.devices.values():
            device.set_qc(threshold, **kwargs)

    def fail_accelerator(self, index: int, shard: Optional[int] = None) -> None:
        """Hard-fail one in-SSD accelerator (all shards, or just one)."""
        for (s, _r), device in self.devices.items():
            if shard is None or s == shard:
                device.fail_accelerator(index)

    # ------------------------------------------------------------------
    # query
    # ------------------------------------------------------------------
    def query(
        self,
        qfv: np.ndarray,
        k: int,
        model_id: int,
        db_id: int,
        now_s: float = 0.0,
        dtrace: Optional[TraceCollector] = None,
    ) -> ClusterQueryResult:
        """Scatter one query, gather the exact global top-K.

        ``now_s`` is the wall-clock of the surrounding simulation; it
        clocks the circuit breakers and the brownout controller.  With
        neither configured it is inert and the legacy path is
        bit-identical.

        ``dtrace`` records the query's causal span tree (root, fan-out,
        per-shard legs with every attempt, gather) as one trace.
        Recording is pure bookkeeping: results and timings are
        bit-identical with it on or off.

        A shard whose replicas are all dead (or retry-budget-exhausted)
        resolves as a structured *unavailable* leg: the returned top-K
        is flagged ``partial`` and covers the shards that answered.
        Only when *no* shard answers does the query raise
        :class:`ClusterError`.
        """
        if k <= 0:
            raise ClusterError("K must be positive")
        placement = self.placement_of(db_id)
        models = self._model_map.get(model_id)
        if models is None:
            raise ClusterError(f"unknown cluster model id {model_id}")
        dbs = self._db_map[db_id]
        shards = placement.non_empty_shards()
        seq = self._query_seq
        self._query_seq += 1

        costs = self.config.costs
        scatter_s = costs.scatter_seconds(len(shards))
        root_ctx: Optional[QueryTraceContext] = None
        shard_ctxs: Optional[Dict[int, QueryTraceContext]] = None
        if dtrace is not None:
            root_ctx = dtrace.start_trace(
                f"cluster query {seq}", now_s,
                kind="cluster.query", track="cluster/coordinator", k=k,
            )
            dtrace.add_span(
                root_ctx, f"scatter fan-out x{len(shards)}",
                now_s, now_s + scatter_s,
                kind="cluster.scatter", track="cluster/coordinator",
            )
            shard_ctxs = {}
            for shard in shards:
                ctx = dtrace.start_span(
                    root_ctx, f"shard {shard} leg", now_s + scatter_s,
                    kind="cluster.shard", track=f"cluster/shard {shard}",
                )
                shard_ctxs[shard] = ctx
                dtrace.flow(root_ctx, ctx)

        jobs: List[ShardJob] = []
        for shard in shards:
            jobs.append(
                self._shard_job(shard, seq, qfv, k, models, dbs, now_s)
            )
        scatter = run_scatter(jobs, metrics=self.metrics)
        job_by_shard = {job.shard: job for job in jobs}

        partials: List[List[Tuple[float, int]]] = []
        reports: List[ShardReport] = []
        for outcome in scatter.outcomes:
            job = job_by_shard[outcome.shard]
            self._record_breakers(job, outcome, now_s)
            if dtrace is not None and shard_ctxs is not None:
                trace_leg(
                    dtrace, shard_ctxs[outcome.shard], job, outcome,
                    now_s + scatter_s,
                )
            if outcome.unavailable:
                reports.append(
                    ShardReport(
                        shard=outcome.shard,
                        replica=-1,
                        seconds=outcome.done_s,
                        detect_seconds=outcome.detect_s,
                        failovers=outcome.failovers,
                        hedged=False,
                        hedge_won=False,
                        cache_hit=False,
                        retry_pause_seconds=outcome.retry_pause_s,
                        unavailable=True,
                        breaker_rejections=len(job.breaker_rejected),
                    )
                )
                continue
            result: QueryResult = outcome.payload
            owners = placement.owners[outcome.shard]
            pairs = [
                (float(score), int(owners[int(local)]))
                for score, local in zip(result.scores, result.feature_ids)
            ]
            partials.append(pairs)
            reports.append(
                ShardReport(
                    shard=outcome.shard,
                    replica=outcome.replica,
                    seconds=outcome.done_s,
                    detect_seconds=outcome.detect_s,
                    failovers=outcome.failovers,
                    hedged=outcome.hedged,
                    hedge_won=outcome.hedge_won,
                    cache_hit=result.cache_hit,
                    retry_pause_seconds=outcome.retry_pause_s,
                    service_seconds=outcome.service_s,
                    hedge_wait_seconds=outcome.hedge_wait_s,
                    hedge_saved_seconds=outcome.hedge_saved_s,
                    breaker_rejections=len(job.breaker_rejected),
                )
            )
        if len(partials) > 1:
            # the K-way merge needs canonically ordered partials; for a
            # single shard the device's own order *is* the answer (the
            # parity contract), so it passes through untouched
            partials = [topk_select(p, k) for p in partials]
        merged, stats = kway_merge_topk(partials, k)

        gather_s = costs.gather_seconds(stats.comparisons)
        total = scatter_s + scatter.makespan_s + gather_s
        if self.metrics is not None:
            self.metrics.histogram("cluster.query_seconds").observe(total)
            self.metrics.histogram("cluster.scatter_overhead_s").observe(
                scatter_s
            )
            self.metrics.histogram("cluster.gather_overhead_s").observe(
                gather_s
            )
            for report in reports:
                self.metrics.counter(
                    f"cluster.shard{report.shard}.queries"
                ).inc()
                self.metrics.histogram("cluster.shard_busy_s").observe(
                    report.seconds
                )
        if self.brownout is not None:
            # pressure = fraction of shard legs that struggled (failed
            # over or went unavailable) — fed back so the controller
            # can degrade the *next* query's fidelity
            stressed = sum(
                1 for r in reports if r.unavailable or r.failovers > 0
            )
            self.brownout.observe(now_s, stressed / len(reports))
        if dtrace is not None and root_ctx is not None:
            dtrace.add_span(
                root_ctx, f"K-way gather ({stats.comparisons} cmp)",
                now_s + scatter_s + scatter.makespan_s, now_s + total,
                kind="cluster.gather", track="cluster/coordinator",
                comparisons=stats.comparisons,
            )
            unavailable = sum(1 for r in reports if r.unavailable)
            dtrace.end_span(
                root_ctx, now_s + total,
                status="partial" if unavailable else "ok",
                hedges_launched=scatter.hedges_launched,
                hedge_wins=scatter.hedge_wins,
                failovers=scatter.failovers,
                unavailable_shards=unavailable,
                brownout_level=(
                    self.brownout.level if self.brownout is not None else 0
                ),
            )
        return ClusterQueryResult(
            feature_ids=np.asarray([fid for _s, fid in merged], dtype=np.int64),
            scores=np.asarray([s for s, _fid in merged], dtype=np.float32),
            seconds=total,
            scatter_seconds=scatter_s,
            gather_seconds=gather_s,
            makespan_seconds=scatter.makespan_s,
            n_contacted=len(shards),
            merge=stats,
            shards=reports,
        )

    # ------------------------------------------------------------------
    def _record_breakers(self, job: ShardJob, outcome, now_s: float) -> None:
        """Feed one scatter leg's attempt outcomes into the breakers."""
        if not self.breakers:
            return
        # the first ``failovers`` attempts are exactly the dead replicas
        # the coordinator paid a detection ladder for, in walk order
        for attempt in job.attempts[: outcome.failovers]:
            self.breakers[(job.shard, attempt.replica)].record_failure(now_s)
        if not outcome.unavailable:
            self.breakers[(job.shard, outcome.replica)].record_success(now_s)

    def _shard_job(
        self,
        shard: int,
        seq: int,
        qfv: np.ndarray,
        k: int,
        models: Dict[Tuple[int, int], int],
        dbs: Dict[Tuple[int, int], int],
        now_s: float = 0.0,
    ) -> ShardJob:
        cfg = self.config
        #: read-spread: rotate the primary replica per query *and* per
        #: shard, so replicas share load instead of replica 0 taking all
        primary = (seq + shard) % cfg.n_replicas
        order = [
            (primary + j) % cfg.n_replicas for j in range(cfg.n_replicas)
        ]
        dead = set(cfg.fail_shards)
        dead.update(self._down)
        rejected: List[Tuple[int, str]] = []
        if self.breakers:
            # an open breaker is skipped at zero detection cost — that
            # is the entire point of remembering failures.  A half-open
            # one spends its probe budget here (at dispatch time), but
            # only while no live replica precedes it in the walk: a
            # probe the failover walk would never reach must not burn
            # budget it cannot resolve.
            admitted = []
            seen_live = False
            for r in order:
                breaker = self.breakers[(shard, r)]
                state = breaker.state(now_s)
                if seen_live and state is not BreakerState.CLOSED:
                    rejected.append((r, state.name.lower()))
                    continue
                if not breaker.allow(now_s):
                    rejected.append((r, state.name.lower()))
                    continue
                admitted.append(r)
                if (shard, r) not in dead:
                    seen_live = True
            order = admitted

        def runner(replica: int):
            def run() -> Tuple[float, QueryResult]:
                key = (shard, replica)
                device = self.devices[key]
                result = device.get_results(
                    device.query(qfv, k=k, model_id=models[key], db_id=dbs[key])
                )
                seconds = result.seconds_to_host * cfg.replica_slowdown(
                    shard, replica
                )
                return seconds, result

            return run

        attempts: List[ReplicaAttempt] = []
        hedge_delay: Optional[float] = None
        first_live: Optional[int] = None
        for replica in order:
            alive = (shard, replica) not in dead
            if alive and first_live is None:
                first_live = replica
            attempts.append(
                ReplicaAttempt(replica=replica, alive=alive, run=runner(replica))
            )
        backoff_delays: Optional[Tuple[float, ...]] = None
        if cfg.retry_policy is not None:
            backoff_delays = tuple(
                RetryLadder(
                    cfg.retry_policy, cfg.seed, seq, shard
                ).all_delays()
            )
        hedging_on = (
            cfg.hedge_fraction is not None
            and cfg.n_replicas > 1
            and not (
                self.brownout is not None and self.brownout.hedging_disabled
            )
        )
        if first_live is None:
            # no live (or breaker-admitted) replica: the scatter leg
            # resolves as a structured unavailable outcome
            return ShardJob(
                shard=shard,
                attempts=tuple(attempts),
                detect_seconds=cfg.dispatch_policy.give_up_seconds(),
                hedge_delay=None,
                backoff_delays=backoff_delays,
                breaker_rejected=tuple(rejected),
            )
        if hedging_on:
            # the hedge deadline keys off the shard's *healthy* latency,
            # so a replica straggling beyond hedge_fraction x healthy
            # gets hedged and a healthy one never does.  The primary's
            # query runs eagerly here (it runs unconditionally anyway)
            # to learn that healthy figure; the result is memoized so
            # the scatter leg charges it exactly once.
            seconds, result = runner(first_live)()
            healthy = seconds / cfg.replica_slowdown(shard, first_live)
            hedge_delay = cfg.hedge_fraction * healthy
            memoized = (seconds, result)
            attempts = [
                ReplicaAttempt(
                    replica=a.replica,
                    alive=a.alive,
                    run=(lambda m=memoized: m)
                    if a.replica == first_live
                    else a.run,
                )
                for a in attempts
            ]
        return ShardJob(
            shard=shard,
            attempts=tuple(attempts),
            detect_seconds=cfg.dispatch_policy.give_up_seconds(),
            hedge_delay=hedge_delay,
            backoff_delays=backoff_delays,
            breaker_rejected=tuple(rejected),
        )
