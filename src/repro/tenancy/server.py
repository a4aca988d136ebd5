"""The multi-tenant discrete-event serving plane.

:class:`MultiTenantServer` plays a :mod:`repro.tenancy.trace` day
against the shared sharded backend: per-tenant bounded queues under
:class:`~repro.tenancy.admission.WeightedFairQueue` dispatch, a
dynamic pool of scan backends the burn-rate
:class:`~repro.tenancy.autoscale.Autoscaler` grows and shrinks (with
actuation latency priced on the DES), a scripted shard-replica failure
that swaps every app's cost model to its degraded twin for the outage
window, and live ingest routed through a
:class:`~repro.cluster.ingest.ShardIngestTracker` whose rebalance
plans are priced as maintenance jobs that occupy a backend.

The batch-service loop is :class:`~repro.serving.plane.BatchPlane`,
the one :class:`~repro.serving.server.QueryServer` drives too, and the
read cost models *are* ``QueryServer``'s (one per SCN app, built through
the same ``ServingConfig`` path).  Write ops are priced here, the one
place they are served: each holds a backend for the host-write time of
:data:`WRITE_ROWS_PER_OP` rows.  With one tenant, no bursts, no failure
and the autoscaler off, the plane is the single-tenant server batch for
batch: the parity test pins every aggregate of
:class:`~repro.serving.server.ServingResult` against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List

from repro.cluster.ingest import RebalancePlan, ShardIngestTracker
from repro.obs.slo import BurnRateRule, SloMonitor, SloSpec
from repro.serving.admission import QueuedQuery
from repro.serving.arrivals import INGEST_COMPAT
from repro.serving.plane import BatchPlane
from repro.serving.server import QueryServer, ServingConfig
from repro.sim import Simulator
from repro.ssd import Ssd
from repro.tenancy.admission import TenantQueueSpec, WeightedFairQueue
from repro.tenancy.autoscale import Autoscaler, ScalingAction
from repro.tenancy.spec import TenancyConfig, TenantSpec
from repro.tenancy.trace import TenantArrival

#: SLO evaluation boundaries per day (288 = one every 5 min on a 24h day)
SAMPLE_BOUNDARIES_PER_DAY = 288

#: minimum events in a burn window before a tenant's rule may alert or
#: the autoscaler may act on the tenant's burn.  With a 1% error budget
#: a window needs ~100 events before one unlucky tail query stops
#: looking like a 10x burn — below this the signal is noise.
BURN_MIN_EVENTS = 100

#: rows one ingest write op streams through the host-write path (sizes
#: the op's service time)
WRITE_ROWS_PER_OP = 32


@dataclass
class TenantDayResult:
    """One tenant's measured day on the shared plane."""

    tenant: str
    offered: int
    admitted: int
    completed: int
    rejected: int
    evicted: int
    expired: int
    writes_offered: int
    writes_completed: int
    mean_latency_s: float
    p50_s: float
    p99_s: float
    p999_s: float
    max_latency_s: float
    mean_wait_s: float
    #: fraction of completed queries inside the tenant's latency SLO
    slo_attainment: float
    #: completed / offered
    goodput_fraction: float
    #: both conservation identities held bit-exactly all day
    conserved: bool

    @property
    def shed(self) -> int:
        """Offered but never served."""
        return self.rejected + self.evicted + self.expired

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready per-tenant scorecard row (stable keys)."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": self.shed,
            "writes_offered": self.writes_offered,
            "writes_completed": self.writes_completed,
            "mean_latency_s": self.mean_latency_s,
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
            "p999_s": self.p999_s,
            "mean_wait_s": self.mean_wait_s,
            "slo_attainment": self.slo_attainment,
            "goodput_fraction": self.goodput_fraction,
            "conserved": int(self.conserved),
        }


@dataclass
class DayResult:
    """The whole plane's measured day."""

    duration_s: float
    tenants: Dict[str, TenantDayResult]
    ledger: Dict[str, Dict[str, int]]
    actions: List[ScalingAction]
    alerts: int
    first_alert_s: float
    peak_backends: int
    final_backends: int
    rebalances: int
    rebalance_rows_moved: int
    mean_batch: float
    utilization: float

    @property
    def conserved(self) -> bool:
        """Every tenant's ledger balanced bit-exactly."""
        return all(t.conserved for t in self.tenants.values())

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready scorecard fragment (stable keys)."""
        return {
            "duration_s": self.duration_s,
            "tenants": {
                name: result.as_dict()
                for name, result in sorted(self.tenants.items())
            },
            "scale_ups": sum(
                1 for a in self.actions if a.kind == "scale_up"
            ),
            "scale_downs": sum(
                1 for a in self.actions if a.kind == "scale_down"
            ),
            "alerts": self.alerts,
            "first_alert_s": self.first_alert_s,
            "peak_backends": self.peak_backends,
            "final_backends": self.final_backends,
            "rebalances": self.rebalances,
            "rebalance_rows_moved": self.rebalance_rows_moved,
            "mean_batch": self.mean_batch,
            "utilization": self.utilization,
            "conserved": int(self.conserved),
        }


class MultiTenantServer:
    """Weighted-fair, autoscaled serving of a multi-tenant day trace."""

    def __init__(self, config: TenancyConfig) -> None:
        self.config = config
        #: per-app healthy cost models, borrowed from QueryServer so the
        #: tenancy plane prices batches through the identical path
        self._healthy: Dict[str, QueryServer] = {}
        self._degraded: Dict[str, QueryServer] = {}
        #: per-app service seconds of one write op: the measured
        #: host-write time of WRITE_ROWS_PER_OP rows on the app's SSD
        self._write_op_seconds: Dict[str, float] = {}
        for app in config.distinct_apps():
            # reads are priced over range placement's near-even shard
            # sizes, which come straight off its cuts: O(shards), no
            # per-feature id array (placement_sizes; hash would build
            # one).  Ingest routing still hashes, via the
            # ShardIngestTracker.
            base = dict(
                app=app,
                features=config.features,
                max_batch=config.max_batch,
                n_shards=config.n_shards,
                n_replicas=config.n_replicas,
                shard_placement="range",
            )
            healthy = self._healthy[app] = QueryServer(ServingConfig(**base))
            ssd = Ssd(healthy.system.ssd)
            self._write_op_seconds[app] = ssd.database_write_seconds(
                ssd.ftl.create_database(
                    healthy.app.feature_bytes, WRITE_ROWS_PER_OP
                )
            )
            if config.failure is not None:
                self._degraded[app] = QueryServer(ServingConfig(
                    **base,
                    fail_shards=(
                        (config.failure.shard, config.failure.replica),
                    ),
                ))

    # ------------------------------------------------------------------
    def saturation_qps(self, backends: int = 1) -> float:
        """Peak sustainable read rate of ``backends`` healthy scan units
        (first-declared tenant's first app — the capacity-planning
        anchor, not a mixed-workload promise)."""
        app = self.config.tenants[0].apps[0][0]
        return self._healthy[app].cost.saturation_qps(backends)

    def build_monitor(self) -> SloMonitor:
        """A fresh per-tenant SLO monitor for one day run."""
        config = self.config
        specs = [
            SloSpec(
                spec.slo_name,
                target=spec.slo_target,
                latency_threshold_s=spec.latency_slo_s,
            )
            for spec in config.tenants
        ]
        rules = [
            BurnRateRule(
                f"{spec.name}-fast-burn",
                spec.slo_name,
                window_s=config.autoscaler.window_s,
                burn_threshold=config.autoscaler.scale_up_threshold,
                min_events=BURN_MIN_EVENTS,
            )
            for spec in config.tenants
        ]
        return SloMonitor(
            specs, rules,
            sample_interval_s=config.day_s / SAMPLE_BOUNDARIES_PER_DAY,
        )

    # ------------------------------------------------------------------
    def run(
        self, arrivals: List[TenantArrival], autoscale: bool = True
    ) -> DayResult:
        """Play one day trace to completion and measure every tenant.

        ``autoscale=False`` pins capacity at ``initial_backends`` for
        the whole day regardless of the config's autoscaler — the
        paired noisy-neighbor runs use this so the isolation ratio
        measures contention, not the scaler reacting to the aggressor.
        """
        if not arrivals:
            raise ValueError("empty day trace")
        config = self.config
        specs: Dict[str, TenantSpec] = {
            t.name: t for t in config.tenants
        }
        for a in arrivals:
            if a.tenant not in specs:
                raise ValueError(f"arrival for unknown tenant {a.tenant!r}")
        sim = Simulator()
        wfq = WeightedFairQueue(
            [
                TenantQueueSpec(
                    name=t.name,
                    weight=t.weight,
                    bound=t.queue_bound,
                    policy=t.queue_policy,
                    deadline_s=t.queue_deadline_s,
                )
                for t in config.tenants
            ],
            quantum=config.quantum,
        )
        monitor = self.build_monitor()
        scaler = Autoscaler(config.autoscaler, config.initial_backends)
        tracker = ShardIngestTracker(
            config.n_shards,
            skew_threshold=config.skew_threshold,
            min_inserts=config.min_inserts,
            seed=config.seed,
        )
        degraded = False
        rebalance_rows = 0
        writes_offered = dict.fromkeys(specs, 0)

        def service_seconds(tenant: str, batch: List[QueuedQuery]) -> float:
            if batch[0].compat == INGEST_COMPAT:
                # a write batch holds a backend for each op, serially
                app = specs[tenant].apps[0][0]
                return self._write_op_seconds[app] * len(batch)
            models = self._degraded if degraded else self._healthy
            return models[batch[0].compat].cost.service_seconds(len(batch))

        plane = BatchPlane(
            sim, wfq, config.initial_backends, config.max_batch,
            service_seconds, monitor=monitor,
            slo_names={t.name: t.slo_name for t in config.tenants},
        )

        def on_plan(plan: RebalancePlan) -> None:
            # a rebalance holds a backend for the priced move
            nonlocal rebalance_rows
            rebalance_rows += plan.rows_moved
            plane.hold(plan.rows_moved * config.rebalance_row_seconds)

        tracker.on_rebalance = on_plan

        def arrive(a: TenantArrival, qid: int) -> None:
            is_write = a.kind == "ingest"
            query = QueuedQuery(
                qid=qid,
                arrival_s=sim.now,
                priority=1 if is_write else 0,
                compat=INGEST_COMPAT if is_write else a.app,
                intent=a.intent,
            )
            admitted = wfq.offer(a.tenant, query, sim.now)
            if is_write:
                writes_offered[a.tenant] += 1
                if admitted:
                    tracker.record_routed(a.key, rows=WRITE_ROWS_PER_OP)
            plane.note_queue()
            if admitted:
                plane.dispatch()

        def set_degraded(flag: bool) -> None:
            nonlocal degraded
            degraded = flag

        def autoscale_tick() -> None:
            burns: Dict[str, float] = {}
            for t in config.tenants:
                bad, total = monitor.window_counts(
                    t.slo_name, sim.now, config.autoscaler.window_s
                )
                if total < BURN_MIN_EVENTS:
                    burns[t.name] = 0.0
                else:
                    budget = monitor.specs[t.slo_name].budget
                    burns[t.name] = (bad / total) / budget
            action = scaler.evaluate(sim.now, burns)
            if action is not None:
                sim.schedule(
                    action.effective_s,
                    plane.grow if action.kind == "scale_up" else plane.retire,
                    label="actuate",
                )

        # -- schedule the day ----------------------------------------------
        sim.schedule_bulk(
            [a.time_s for a in arrivals],
            [partial(arrive, a, qid) for qid, a in enumerate(arrivals)],
            label="arrival",
        )
        failure = config.failure
        if failure is not None:
            sim.schedule(
                failure.at_fraction * config.day_s,
                partial(set_degraded, True), label="shard-fail",
            )
            if failure.heal_fraction is not None:
                sim.schedule(
                    failure.heal_fraction * config.day_s,
                    partial(set_degraded, False), label="shard-heal",
                )
        if autoscale and config.autoscaler.enabled:
            interval = config.autoscaler.evaluate_interval_s
            n_ticks = int(config.day_s // interval)
            sim.schedule_bulk(
                [interval * (k + 1) for k in range(n_ticks)],
                [autoscale_tick] * n_ticks,
                label="autoscale",
            )
        sim.run()
        monitor.finish(plane.last_completion)
        plane.resize(0)

        # -- measure -------------------------------------------------------
        ledger = wfq.ledger()
        tenants: Dict[str, TenantDayResult] = {}
        for t in config.tenants:
            lat = plane.reads[t.name]
            row = ledger[t.name]
            writes_completed = len(plane.writes[t.name])
            completed = len(lat) + writes_completed
            within = sum(1 for v in lat if v <= t.latency_slo_s)
            tenants[t.name] = TenantDayResult(
                tenant=t.name,
                offered=row["offered"],
                admitted=row["admitted"],
                completed=completed,
                rejected=row["rejected"],
                evicted=row["evicted"],
                expired=row["expired"],
                writes_offered=writes_offered[t.name],
                writes_completed=writes_completed,
                **plane.summary(t.name),
                slo_attainment=within / len(lat) if lat else 1.0,
                goodput_fraction=(
                    completed / row["offered"] if row["offered"] else 0.0
                ),
                conserved=wfq.counters(t.name).conserved(row["depth"]),
            )
        first_alert = monitor.first_alert_at()
        span = max(plane.last_completion - arrivals[0].time_s, 0.0)
        return DayResult(
            duration_s=span,
            tenants=tenants,
            ledger=ledger,
            actions=list(scaler.actions),
            alerts=len(monitor.alerts),
            first_alert_s=first_alert if first_alert is not None else -1.0,
            peak_backends=plane.peak_backends,
            final_backends=plane.n_backends,
            rebalances=tracker.rebalances,
            rebalance_rows_moved=rebalance_rows,
            mean_batch=plane.mean_batch,
            utilization=(
                plane.busy_s / plane.capacity_integral
                if plane.capacity_integral > 0
                else 0.0
            ),
        )
