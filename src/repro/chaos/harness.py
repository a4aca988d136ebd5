"""The chaos harness: a scripted production day, measured.

Two tracks, both driven by a deterministic
:class:`~repro.chaos.schedule.ChaosSchedule`:

* :func:`run_durability_chaos` — a :class:`~repro.recovery.DurableStore`
  ingests (bursts included) while crash events hit at arbitrary
  simulated times, possibly mid-mutation.  Every crash recovers by
  checkpoint + WAL replay and is verified **bit-exactly** against a
  shadow copy maintained at ack time: visible ids, row bytes, and
  canonical top-K must all match, so ``durability`` is a measured 1.0
  or the run fails loudly.  MTTR is the measured recovery time.
* :func:`run_cluster_chaos` — a hardened
  :class:`~repro.cluster.DeepStoreCluster` (retry ladder, breakers,
  brownout) serves a query train while correlated replica kills and
  restarts play out.  Restarted replicas pay a measured WAL resync
  (:func:`repro.recovery.plan_resync`); recall is scored against a
  healthy twin cluster answering the same queries.

The reports roll up into the recovery scorecard — the perf gate's
fifth leg.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.chaos.schedule import ChaosError, ChaosEvent, ChaosSchedule
from repro.cluster import (
    BreakerConfig,
    BrownoutConfig,
    ClusterConfig,
    ClusterError,
    DeepStoreCluster,
    RetryPolicy,
)
from repro.ingest.store import oracle_topk
from repro.obs.slo import SloMonitor, default_chaos_monitor
from repro.recovery import (
    CheckpointPolicy,
    DurableStore,
    plan_resync,
    recover,
)
from repro.workloads.apps import get_app


@dataclass(frozen=True)
class ChaosConfig:
    """One scripted production day (both tracks)."""

    seed: int = 0
    duration_s: float = 1.0
    k: int = 10
    # -- durability track ------------------------------------------------
    dim: int = 16
    n_base: int = 128
    mutations: int = 36
    rows_per_insert: int = 4
    delete_every: int = 3
    #: compaction points, as fractions of the day
    compact_at: Tuple[float, ...] = (0.45, 0.85)
    crashes: int = 3
    checkpoint_interval_s: float = 0.08
    checkpoint_min_epochs: int = 4
    probe_queries: int = 4
    # -- availability track ----------------------------------------------
    app: str = "tir"
    cluster_rows: int = 180
    n_shards: int = 3
    n_replicas: int = 2
    queries: int = 24
    kills: int = 4
    correlated: int = 2
    outage_s: float = 0.25
    bursts: int = 8
    burst_rows: int = 8

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ChaosError("duration_s must be positive")
        if self.mutations < 1 or self.queries < 1:
            raise ChaosError("mutations and queries must be positive")


# ======================================================================
# durability track
# ======================================================================
@dataclass
class CrashOutcome:
    """One crash-restart, measured and verified."""

    at_s: float
    recovered_epoch: int
    records_replayed: int
    mttr_s: float
    bit_equal: bool


@dataclass
class DurabilityReport:
    """What the durability track measured."""

    crashes: List[CrashOutcome] = field(default_factory=list)
    mutations_acked: int = 0
    mutations_lost_unacked: int = 0
    checkpoints_taken: int = 0
    wal_records: int = 0
    wal_bytes_logged: int = 0
    wal_write_amplification: float = 1.0
    #: acked-mutation survival fraction across all crashes (must be 1.0)
    durability: float = 1.0
    #: every crash recovered bit-equal to the shadow (ids, rows, top-K)
    all_bit_equal: bool = True
    #: recall of clustered-only (delta-skipped) top-K vs the full top-K
    #: — the bounded recall loss brownout step 2 trades for load
    delta_skip_recall: float = 1.0

    @property
    def mttr_s(self) -> List[float]:
        return [c.mttr_s for c in self.crashes]

    def to_dict(self) -> Dict[str, object]:
        """Flat scorecard block (every leaf drift-gated by CI)."""
        mttrs = self.mttr_s
        return {
            "crashes": len(self.crashes),
            "mutations_acked": self.mutations_acked,
            "mutations_lost_unacked": self.mutations_lost_unacked,
            "checkpoints": self.checkpoints_taken,
            "wal_records": self.wal_records,
            "wal_bytes_logged": self.wal_bytes_logged,
            "wal_write_amplification": self.wal_write_amplification,
            "records_replayed": sum(c.records_replayed for c in self.crashes),
            "mttr_ms_mean": (
                1e3 * sum(mttrs) / len(mttrs) if mttrs else 0.0
            ),
            "mttr_ms_max": 1e3 * max(mttrs) if mttrs else 0.0,
            "durability": self.durability,
            "bit_equal": 1 if self.all_bit_equal else 0,
            "delta_skip_recall": self.delta_skip_recall,
        }


class _Shadow:
    """Independent copy of the acked state (dict-of-rows, set-of-dead).

    Deliberately nothing like the store's vectorized bookkeeping — the
    same role :func:`repro.ingest.store.oracle_replay` plays, but
    carrying row payloads so recovered *content* is checkable too.
    """

    def __init__(self, base: np.ndarray):
        self.rows: Dict[int, np.ndarray] = {
            i: np.array(r, dtype=np.float32) for i, r in enumerate(base)
        }
        self.dead: set = set()

    def insert(self, ids, payload: np.ndarray) -> None:
        for i, row in zip(ids, payload):
            self.rows[int(i)] = np.array(row, dtype=np.float32)

    def delete(self, ids) -> None:
        self.dead.update(int(i) for i in ids)

    def visible(self) -> List[int]:
        return sorted(i for i in self.rows if i not in self.dead)

    def dense(self, dim: int) -> np.ndarray:
        n = max(self.rows) + 1 if self.rows else 0
        arr = np.zeros((n, dim), dtype=np.float32)
        for i, row in self.rows.items():
            arr[i] = row
        return arr


def _store_matches_shadow(
    store, shadow: _Shadow, probes: np.ndarray, k: int
) -> bool:
    """Bit-exact: visible ids, row bytes, and canonical top-K."""
    visible = sorted(int(i) for i in store.visible_ids())
    if visible != shadow.visible():
        return False
    rows = store.features()
    dense = shadow.dense(rows.shape[1])
    if rows.shape != dense.shape:
        return False
    if not all(np.array_equal(rows[i], dense[i]) for i in visible):
        return False
    for q in probes:
        scores = rows @ q
        shadow_scores = dense @ q
        if oracle_topk(rows, visible, scores, k) != oracle_topk(
            dense, visible, shadow_scores, k
        ):
            return False
    return True


def run_durability_chaos(
    config: Optional[ChaosConfig] = None,
) -> DurabilityReport:
    """Ingest through crash events; verify every recovery bit-exactly."""
    cfg = config or ChaosConfig()
    rng = np.random.default_rng(cfg.seed)
    base = rng.standard_normal((cfg.n_base, cfg.dim)).astype(np.float32)
    probes = rng.standard_normal((cfg.probe_queries, cfg.dim)).astype(
        np.float32
    )
    store = DurableStore(
        base,
        policy=CheckpointPolicy(
            interval_s=cfg.checkpoint_interval_s,
            min_epochs=cfg.checkpoint_min_epochs,
        ),
    )
    shadow = _Shadow(base)
    report = DurabilityReport()

    # the day's script: evenly spaced mutations + compactions, with the
    # schedule's crash times merged in; payloads are drawn up front so
    # the stream is identical whatever the crash pattern does
    ops: List[Tuple[float, str, object]] = []
    for i in range(cfg.mutations):
        at = cfg.duration_s * (i + 1) / (cfg.mutations + 2)
        if cfg.delete_every and i % cfg.delete_every == cfg.delete_every - 1:
            ops.append((at, "delete", int(rng.integers(1 << 30))))
        else:
            payload = rng.standard_normal(
                (cfg.rows_per_insert, cfg.dim)
            ).astype(np.float32)
            ops.append((at, "insert", payload))
    for fraction in cfg.compact_at:
        ops.append((cfg.duration_s * fraction, "compact", None))
    schedule = ChaosSchedule.generate(
        cfg.seed, cfg.duration_s, crashes=cfg.crashes
    )
    for event in schedule.of_kind("crash"):
        ops.append((event.at_s, "crash", None))
    ops.sort(key=lambda op: op[0])

    checkpoints = 0
    wal_bytes = 0
    wal_records = 0

    def crash_now(at_s: float, image) -> DurableStore:
        nonlocal store, checkpoints, wal_bytes
        checkpoints += store.checkpoints_taken
        wal_bytes += store.wal.bytes_logged
        recovered, rec_report = recover(
            image, ssd=store.ssd, policy=store.policy
        )
        ok = _store_matches_shadow(recovered.store, shadow, probes, cfg.k)
        report.crashes.append(
            CrashOutcome(
                at_s=at_s,
                recovered_epoch=rec_report.recovered_epoch,
                records_replayed=rec_report.records_replayed,
                mttr_s=rec_report.seconds,
                bit_equal=ok,
            )
        )
        return recovered

    consumed_crashes: set = set()
    for at, kind, payload in ops:
        if kind == "crash":
            if at in consumed_crashes:
                continue  # this crash already landed mid-mutation
            store = crash_now(at, store.crash_image())
            continue
        if kind == "compact":
            store.mark_compacted(store.store.snapshot(), now_s=at)
            wal_records += 1
            continue
        image_before = store.crash_image()
        next_crash = next(
            (
                t
                for t, op_kind, _ in ops
                if op_kind == "crash" and t > at and t not in consumed_crashes
            ),
            None,
        )
        if kind == "insert":
            pending = store.begin_insert(payload)
        else:
            visible = sorted(int(i) for i in store.store.visible_ids())
            victim = visible[int(payload) % len(visible)]
            pending = store.begin_delete([victim])
        wal_records += 1
        done_at = at + pending.write.seconds
        if next_crash is not None and done_at > next_crash:
            # the crash lands inside this mutation's WAL program: the
            # record never became durable and the client got no ack
            report.mutations_lost_unacked += 1
            consumed_crashes.add(next_crash)
            store = crash_now(next_crash, image_before)
            continue
        store.apply_pending(pending)
        if pending.record.op == "insert":
            shadow.insert(pending.record.ids, pending.record.payload)
        else:
            shadow.delete(pending.record.ids)
        report.mutations_acked += 1
        store.maybe_checkpoint(done_at)

    # final accounting over the last life
    checkpoints += store.checkpoints_taken
    wal_bytes += store.wal.bytes_logged
    report.checkpoints_taken = checkpoints
    report.wal_bytes_logged = wal_bytes
    report.wal_records = wal_records
    report.wal_write_amplification = store.wal.write_amplification
    report.all_bit_equal = all(c.bit_equal for c in report.crashes)
    report.durability = 1.0 if report.all_bit_equal else 0.0

    # brownout step 2's bounded recall loss: clustered-only vs full view
    rows = store.store.features()
    clustered = [int(i) for i in store.store.clustered_ids]
    visible = [int(i) for i in store.store.visible_ids()]
    if clustered and visible:
        hits = 0
        for q in probes:
            scores = rows @ q
            full = {fid for _s, fid in oracle_topk(rows, visible, scores, cfg.k)}
            skim = {
                fid for _s, fid in oracle_topk(rows, clustered, scores, cfg.k)
            }
            hits += len(full & skim)
        report.delta_skip_recall = hits / (len(probes) * cfg.k)
    return report


# ======================================================================
# availability track
# ======================================================================
@dataclass
class OutageOutcome:
    """One replica outage healed: kill → restart → resync."""

    shard: int
    replica: int
    killed_at_s: float
    restarted_at_s: float
    resync_records: int
    resync_seconds: float
    full_snapshot: bool

    @property
    def mttr_s(self) -> float:
        return (self.restarted_at_s - self.killed_at_s) + self.resync_seconds


@dataclass
class ClusterChaosReport:
    """What the availability track measured."""

    queries: int = 0
    served: int = 0
    shed: int = 0
    failed: int = 0
    partial: int = 0
    outages: List[OutageOutcome] = field(default_factory=list)
    #: mean |answered ∩ healthy-twin| / k over served queries
    recall_mean: float = 1.0
    retry_pause_s: float = 0.0
    failovers: int = 0
    breaker_transitions: int = 0
    max_brownout_level: int = 0
    brownout_transitions: List[Tuple[float, int, int]] = field(
        default_factory=list
    )
    # SLO telemetry — NOT in to_dict: the perf gate's scorecard leaves
    # must stay byte-identical whether or not monitoring is attached
    alerts: List[object] = field(default_factory=list)
    first_fault_s: Optional[float] = None
    first_alert_s: Optional[float] = None
    alert_latency_s: Optional[float] = None
    slo: Dict[str, object] = field(default_factory=dict)

    @property
    def availability(self) -> float:
        """Fraction of offered queries that got an answer."""
        if self.queries == 0:
            return 1.0
        return self.served / self.queries

    def to_dict(self) -> Dict[str, object]:
        """Flat scorecard block (every leaf drift-gated by CI)."""
        mttrs = [o.mttr_s for o in self.outages]
        return {
            "queries": self.queries,
            "served": self.served,
            "shed": self.shed,
            "failed": self.failed,
            "partial": self.partial,
            "availability": self.availability,
            "recall_mean": self.recall_mean,
            "outages": len(self.outages),
            "mttr_ms_mean": (
                1e3 * sum(mttrs) / len(mttrs) if mttrs else 0.0
            ),
            "mttr_ms_max": 1e3 * max(mttrs) if mttrs else 0.0,
            "resync_records": sum(o.resync_records for o in self.outages),
            "retry_pause_ms": 1e3 * self.retry_pause_s,
            "failovers": self.failovers,
            "breaker_transitions": self.breaker_transitions,
            "max_brownout_level": self.max_brownout_level,
            "brownout_transitions": len(self.brownout_transitions),
        }


#: a served query is "slow" when it takes this many times the healthy
#: twin's latency for the same query — the latency SLO's bad threshold
SLOW_FACTOR = 3.0


def run_cluster_chaos(
    config: Optional[ChaosConfig] = None,
    monitor: Optional[SloMonitor] = None,
) -> ClusterChaosReport:
    """Serve a query train through correlated kills and restarts.

    Every offered query feeds two SLOs on the attached ``monitor``
    (defaulting to :func:`~repro.obs.slo.default_chaos_monitor`):
    *availability* (bad = shed, failed, partial, or failed-over) and
    *latency* (bad = served slower than ``SLOW_FACTOR`` × the healthy
    twin's time for the same query).  The report's ``alert_latency_s``
    is how long after the first kill the first burn-rate alert fired —
    the chaos day's detection-time metric.  Monitoring reads the run;
    it never schedules events or touches the RNG, so the scorecard
    block is byte-identical with or without it.
    """
    cfg = config or ChaosConfig()
    app = get_app(cfg.app)
    rng = np.random.default_rng(cfg.seed + 1)
    features = rng.normal(0, 1, (cfg.cluster_rows, app.feature_floats)).astype(
        np.float32
    )
    graph = app.build_scn(seed=cfg.seed)
    queries = rng.normal(0, 1, (cfg.queries, app.feature_floats)).astype(
        np.float32
    )

    hardened = ClusterConfig(
        n_shards=cfg.n_shards,
        n_replicas=cfg.n_replicas,
        seed=cfg.seed,
        retry_policy=RetryPolicy(),
        breaker=BreakerConfig(
            window=8, min_samples=2, failure_threshold=0.5,
            open_seconds=cfg.outage_s / 2,
        ),
        brownout=BrownoutConfig(
            window=4, dwell_s=cfg.duration_s / (4 * cfg.queries),
            step_up_pressure=0.3, step_down_pressure=0.1,
        ),
    )
    cluster = DeepStoreCluster(hardened)
    db = cluster.write_db(features)
    model = cluster.load_graph(graph)
    twin = DeepStoreCluster(
        ClusterConfig(
            n_shards=cfg.n_shards, n_replicas=cfg.n_replicas, seed=cfg.seed
        )
    )
    twin_db = twin.write_db(features)
    twin_model = twin.load_graph(graph)

    # the mutable side whose WAL restarted replicas resync from: ingest
    # bursts advance its epochs across the day
    side_store = DurableStore(
        rng.standard_normal((cfg.n_base, cfg.dim)).astype(np.float32),
        policy=CheckpointPolicy(
            interval_s=cfg.checkpoint_interval_s,
            min_epochs=cfg.checkpoint_min_epochs,
        ),
    )

    schedule = ChaosSchedule.generate(
        cfg.seed,
        cfg.duration_s,
        n_shards=cfg.n_shards,
        n_replicas=cfg.n_replicas,
        kills=cfg.kills,
        correlated=cfg.correlated,
        outage_s=cfg.outage_s,
        bursts=cfg.bursts,
        burst_rows=cfg.burst_rows,
    )
    report = ClusterChaosReport()
    down_epochs: Dict[Tuple[int, int], Tuple[float, int]] = {}
    recalls: List[float] = []
    slo = monitor if monitor is not None else default_chaos_monitor(
        cfg.duration_s
    )

    def play(event: ChaosEvent) -> None:
        if event.kind == "burst":
            side_store.insert(
                rng.standard_normal((event.rows, cfg.dim)).astype(np.float32),
                now_s=event.at_s,
            )
        elif event.kind == "kill":
            cluster.set_replica_down(event.shard, event.replica)
            down_epochs[(event.shard, event.replica)] = (
                event.at_s,
                side_store.store.epoch,
            )
        elif event.kind == "restart":
            cluster.set_replica_up(event.shard, event.replica)
            outage = down_epochs.pop((event.shard, event.replica), None)
            if outage is None:
                return  # overlapping storms: an earlier restart healed it
            killed_at, down_epoch = outage
            resync = plan_resync(
                side_store.wal,
                side_store.last_checkpoint,
                side_store.ssd,
                down_epoch=down_epoch,
                current_epoch=side_store.store.epoch,
            )
            report.outages.append(
                OutageOutcome(
                    shard=event.shard,
                    replica=event.replica,
                    killed_at_s=killed_at,
                    restarted_at_s=event.at_s,
                    resync_records=resync.records,
                    resync_seconds=resync.seconds,
                    full_snapshot=resync.full_snapshot,
                )
            )

    cursor = 0.0
    for i in range(cfg.queries):
        now = cfg.duration_s * (i + 1) / (cfg.queries + 1)
        for event in schedule.due(cursor, now):
            play(event)
        cursor = now
        report.queries += 1
        low_priority = i % 4 == 3
        brownout = cluster.brownout
        if (
            low_priority
            and brownout is not None
            and brownout.shed_low_priority
        ):
            report.shed += 1
            slo.record("availability", now, good=False)
            continue
        try:
            result = cluster.query(
                queries[i], k=cfg.k, model_id=model, db_id=db, now_s=now,
            )
        except ClusterError:
            report.failed += 1
            slo.record("availability", now, good=False)
            continue
        report.served += 1
        if result.partial:
            report.partial += 1
        report.retry_pause_s += sum(
            s.retry_pause_seconds for s in result.shards
        )
        report.failovers += result.failovers
        reference = twin.query(
            queries[i], k=cfg.k, model_id=twin_model, db_id=twin_db
        )
        slo.record(
            "availability", now,
            good=not (result.partial or result.failovers > 0),
        )
        slo.record(
            "latency", now,
            good=result.seconds <= SLOW_FACTOR * reference.seconds,
        )
        truth = set(int(x) for x in reference.feature_ids)
        got = set(int(x) for x in result.feature_ids)
        recalls.append(len(truth & got) / max(1, len(truth)))

    # heal anything still down after the last query (late restarts)
    for event in schedule.due(cursor, cfg.duration_s):
        play(event)

    report.recall_mean = (
        sum(recalls) / len(recalls) if recalls else 1.0
    )
    report.breaker_transitions = sum(
        len(b.transitions) for b in cluster.breakers.values()
    )
    if cluster.brownout is not None:
        report.brownout_transitions = list(cluster.brownout.transitions)
        report.max_brownout_level = max(
            [t[2] for t in cluster.brownout.transitions], default=0
        )

    # SLO rollup: detection time relative to the first injected kill
    slo.finish(cfg.duration_s)
    report.alerts = list(slo.alerts)
    report.slo = slo.report()
    kills = [e.at_s for e in schedule.of_kind("kill")]
    report.first_fault_s = min(kills) if kills else None
    if report.first_fault_s is not None:
        report.first_alert_s = slo.first_alert_at(report.first_fault_s)
    else:
        report.first_alert_s = slo.first_alert_at(0.0)
    if report.first_alert_s is not None and report.first_fault_s is not None:
        report.alert_latency_s = report.first_alert_s - report.first_fault_s
    return report
