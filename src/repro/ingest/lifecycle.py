"""The end-to-end data-lifecycle loop, deterministically.

:func:`run_lifecycle` drives one
:class:`~repro.index.device.IndexedDevice` database through the whole
story the subsystem exists to tell:

1. **Staleness** — rounds of inserts (a slice of them near-duplicates
   of current winners, so they *belong* in the exact top-K), deletes,
   and updates; after each round the device's probed query over the
   stale index is scored against the exact snapshot top-K.  Recall
   drifts down as the delta fraction grows; scanning the delta too
   (``include_delta``) buys it back at measured latency cost.
2. **Compaction** — a :class:`CompactionJob` runs on a DES timeline
   while exhaustive foreground queries preempt its chunks, and
   re-indexes the device when it finishes — a from-scratch build over
   the rows it clustered, so its recall is also the fresh baseline.
3. **Interference** — a sweep of background ingest load (scaled by the
   *measured* write amplification) through the host-I/O interference
   model, yielding the query-slowdown-vs-write-pressure curve.

Everything is seeded and event-driven, so the report is bit-stable for
a given config — which is what lets the perf gate diff it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.ingest.compaction import (
    CompactionJob,
    CompactionPolicy,
    CompactionReport,
)
from repro.core.api import check_counts, is_real
from repro.ingest.store import IngestError
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.workloads import get_app
from repro.workloads.apps import ALL_APPS, APP_NAMES

if TYPE_CHECKING:  # repro.index imports this package: no runtime cycle
    from repro.index.device import IndexedDevice


@dataclass(frozen=True)
class LifecycleConfig:
    """One lifecycle experiment, fully specified."""

    app: str = "textqa"
    n_base: int = 1024
    rounds: int = 4
    #: per round: rows copied (with noise) from current exact winners
    planted_per_round: int = 96
    #: per round: unrelated random rows
    random_per_round: int = 64
    deletes_per_round: int = 32
    updates_per_round: int = 8
    probe_queries: int = 8
    k: int = 10
    n_clusters: int = 16
    n_probe: int = 4
    compaction: CompactionPolicy = field(default_factory=CompactionPolicy)
    #: raw ingest bus fractions swept in the interference phase
    interference_loads: tuple = (0.0, 0.25, 0.5, 0.75)
    #: ingest-region size (erase blocks x pages); small enough that GC
    #: genuinely fires at benchmark scale
    region_blocks: int = 8
    region_pages_per_block: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        # every count the loop slices, sizes or divides by; a round
        # must delete and insert something or its batches are empty
        check_counts(self, (
            ("n_base", 1), ("rounds", 0), ("planted_per_round", 0),
            ("random_per_round", 1), ("deletes_per_round", 1),
            ("updates_per_round", 0), ("probe_queries", 1), ("k", 1),
            ("n_clusters", 1), ("n_probe", 1), ("region_blocks", 1),
            ("region_pages_per_block", 1), ("seed", 0),
        ), IngestError)
        if not isinstance(self.app, str) or self.app.lower() not in ALL_APPS:
            raise IngestError(
                f"unknown app {self.app!r}; expected one of {APP_NAMES}"
            )
        if not isinstance(self.compaction, CompactionPolicy):
            raise IngestError(
                f"compaction must be a CompactionPolicy, got {self.compaction!r}"
            )
        if self.n_clusters > self.n_base:
            raise IngestError(
                f"n_clusters must be at most n_base={self.n_base}, "
                f"got {self.n_clusters!r}"
            )
        if self.n_probe > self.n_clusters:
            raise IngestError(
                f"n_probe must be at most n_clusters={self.n_clusters}, "
                f"got {self.n_probe!r}"
            )
        if not (
            isinstance(self.interference_loads, tuple)
            and all(
                is_real(load) and 0 <= load <= 1  # NaN fails the range
                for load in self.interference_loads
            )
        ):
            raise IngestError(
                f"interference_loads must be a tuple of numbers in [0, 1], "
                f"got {self.interference_loads!r}"
            )


@dataclass
class StalenessPoint:
    """One round's staleness measurement.

    The ``*_scan_seconds`` fields are the probed queries' priced
    seconds, routing included.
    """

    round: int
    delta_fraction: float
    stale_recall: float
    with_delta_recall: float
    stale_scan_seconds: float
    with_delta_scan_seconds: float


@dataclass
class InterferencePoint:
    """Query cost under one background ingest load."""

    raw_load: float
    offered_load: float
    query_seconds: float
    slowdown: float


@dataclass
class LifecycleReport:
    """Everything :func:`run_lifecycle` measured."""

    config: LifecycleConfig
    staleness: List[StalenessPoint]
    compaction: CompactionReport
    post_compaction_recall: float
    fresh_baseline_recall: float
    interference: List[InterferencePoint]
    write_amplification: float
    host_writes: int
    gc_relocations: int
    gc_erases: int
    mutations: int
    tombstones_reclaimed: int
    metrics: Dict[str, object]

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready scorecard fragment (sorted, scalar leaves)."""
        return {
            "staleness": {
                "initial_recall": self.staleness[0].stale_recall,
                "final_recall": self.staleness[-1].stale_recall,
                "final_delta_fraction": self.staleness[-1].delta_fraction,
                "final_with_delta_recall": self.staleness[-1].with_delta_recall,
            },
            "compaction": {
                "duration_s": self.compaction.duration_s,
                "rows_rewritten": self.compaction.rows_rewritten,
                "reclaimed_rows": self.compaction.reclaimed_rows,
                "preemptions": self.compaction.preemptions,
                "post_recall": self.post_compaction_recall,
                "baseline_recall": self.fresh_baseline_recall,
            },
            "writepath": {
                "write_amplification": self.write_amplification,
                "host_writes": self.host_writes,
                "gc_relocations": self.gc_relocations,
                "gc_erases": self.gc_erases,
            },
            "interference": {
                f"slowdown_at_{point.raw_load:g}": point.slowdown
                for point in self.interference
            },
            "mutations": self.mutations,
        }


def _exact_topk(
    device: "IndexedDevice", db: int, model: int, qfv: np.ndarray, k: int
) -> np.ndarray:
    """Ground truth: exact top-K over every visible row.

    Scored by the device's canonical scan, not ``query``, so the oracle
    moves no query counter.
    """
    visible = device.lifecycle(db).store.visible_ids()
    return device._scan_ids(
        device._models[model], qfv, device._store(db), visible, k
    )[0]


def _measure_recall(
    device: "IndexedDevice",
    db: int,
    model: int,
    probes: np.ndarray,
    k: int,
    n_probe: int,
    include_delta: bool,
) -> Tuple[float, float]:
    """Mean probed recall (and priced query seconds) over the probe set."""
    recalls = []
    seconds = []
    for qfv in probes:
        exact = set(_exact_topk(device, db, model, qfv, k).tolist())
        result = device.get_results(
            device.query(
                qfv, k, model, db, nprobe=n_probe, include_delta=include_delta
            )
        )
        got = set(result.feature_ids.tolist())
        recalls.append(len(got & exact) / len(exact) if exact else 1.0)
        seconds.append(result.seconds)
    return float(np.mean(recalls)), float(np.mean(seconds))


def run_lifecycle(
    config: Optional[LifecycleConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> LifecycleReport:
    """Run the staleness → compaction → interference loop."""
    from repro.index.device import IndexedDevice, query_exhaustive

    config = config or LifecycleConfig()
    app = get_app(config.app)
    rng = np.random.default_rng(config.seed)
    dim = app.feature_floats

    device = IndexedDevice(metrics=metrics)
    base = rng.normal(0, 1, (config.n_base, dim)).astype(np.float32)
    db = device.write_db(base)
    model = device.load_graph(app.build_scn(seed=config.seed + 1))
    device.enable_ingest(
        db,
        region_blocks=config.region_blocks,
        region_pages_per_block=config.region_pages_per_block,
    )
    state = device.lifecycle(db)
    # every insert and update takes a fresh row slot, and the loop
    # compacts only after its rounds, so the rows must all fit up front
    planted = max(1, config.planted_per_round // config.probe_queries)
    planted *= config.probe_queries
    rows = config.n_base + config.rounds * (
        planted + config.random_per_round + config.updates_per_round
    )
    capacity = state.writepath.ftl.logical_pages * state.writepath.rows_per_page
    if rows > capacity:
        raise IngestError(
            f"n_base={config.n_base} + rounds={config.rounds} x "
            f"(planted_per_round={config.planted_per_round} -> {planted} + "
            f"random_per_round={config.random_per_round} + "
            f"updates_per_round={config.updates_per_round}) = {rows} rows, "
            f"but region_blocks x region_pages_per_block = "
            f"{config.region_blocks} x {config.region_pages_per_block} "
            f"holds {capacity} rows"
        )
    device.build_index(db, model, n_lists=config.n_clusters, seed=config.seed)
    probes = rng.normal(0, 1, (config.probe_queries, dim)).astype(np.float32)

    # ------------------------------------------------------------ phase 1
    staleness: List[StalenessPoint] = []
    measure = functools.partial(
        _measure_recall, device, db, model, probes, config.k, config.n_probe
    )
    recall0, seconds0 = measure(include_delta=False)
    staleness.append(
        StalenessPoint(0, state.store.delta_fraction(), recall0, recall0,
                       seconds0, seconds0)
    )
    for rnd in range(1, config.rounds + 1):
        # plant near-duplicates of current winners: they belong in the
        # exact top-K but the stale layout cannot reach them
        planted = []
        per_probe = max(1, config.planted_per_round // config.probe_queries)
        for qfv in probes:
            winners = _exact_topk(device, db, model, qfv, per_probe)
            rows = state.store.rows(winners)
            planted.append(
                rows + rng.normal(0, 1e-3, rows.shape).astype(np.float32)
            )
        device.insert_db(db, np.concatenate(planted, axis=0))
        device.insert_db(
            db,
            rng.normal(0, 1, (config.random_per_round, dim)).astype(np.float32),
        )
        visible = state.store.visible_ids()
        victims = visible[visible < state.store.clustered_rows]
        # once every clustered row is dead there is nothing to delete
        if len(victims):
            doomed = rng.choice(
                victims, size=min(config.deletes_per_round, len(victims)),
                replace=False,
            )
            device.delete_db_rows(db, [int(i) for i in doomed])
        for _ in range(config.updates_per_round):
            alive = state.store.visible_ids()
            target = int(alive[int(rng.integers(0, len(alive)))])
            device.update_db_row(
                db, target, rng.normal(0, 1, dim).astype(np.float32)
            )
        stale_r, stale_s = measure(include_delta=False)
        with_r, with_s = measure(include_delta=True)
        staleness.append(
            StalenessPoint(
                round=rnd,
                delta_fraction=state.store.delta_fraction(),
                stale_recall=stale_r,
                with_delta_recall=with_r,
                stale_scan_seconds=stale_s,
                with_delta_scan_seconds=with_s,
            )
        )

    # ------------------------------------------------------------ phase 2
    sim = Simulator()
    job = CompactionJob(device, db, policy=config.compaction)
    job.start(sim, on_done=lambda _: device.reindex(db))
    # exhaustive foreground queries land mid-compaction and preempt
    # pending chunks
    for i, offset in enumerate((0.0005, 0.001, 0.0015)):
        def fire(qfv=probes[i % len(probes)]) -> None:
            result = query_exhaustive(device, qfv, config.k, model, db)
            job.preempt(sim.now + result.seconds)

        sim.schedule(offset, fire, label="fg-query")
    sim.run()
    report = job.report
    assert report is not None  # run() drains the job to completion
    post_recall, _ = measure(include_delta=False)
    # the fresh baseline (the recovery target) needs no build of its
    # own: the re-index above is one, from scratch, with the same
    # visible rows, config and seed, so its recall is the baseline's
    baseline_recall = post_recall

    # ------------------------------------------------------------ phase 3
    interference: List[InterferencePoint] = []
    isolated_seconds = 0.0
    for raw in config.interference_loads:
        offered = state.writepath.offered_load(raw)
        device.set_background_write_load(offered, policy="share")
        seconds = query_exhaustive(device, probes[0], config.k, model, db).seconds
        if raw == 0.0 or isolated_seconds == 0.0:
            isolated_seconds = seconds if raw == 0.0 else isolated_seconds
        slowdown = seconds / isolated_seconds if isolated_seconds else 1.0
        interference.append(
            InterferencePoint(
                raw_load=float(raw),
                offered_load=offered,
                query_seconds=seconds,
                slowdown=slowdown,
            )
        )
    device.set_background_write_load(0.0)

    stats = state.writepath.stats
    return LifecycleReport(
        config=config,
        staleness=staleness,
        compaction=report,
        post_compaction_recall=post_recall,
        fresh_baseline_recall=baseline_recall,
        interference=interference,
        write_amplification=stats.write_amplification,
        host_writes=stats.host_writes,
        gc_relocations=stats.relocations,
        gc_erases=stats.erases,
        mutations=state.store.epoch,
        tombstones_reclaimed=device.metrics.counter(
            "ingest.reclaimed_rows"
        ).value,
        metrics=device.metrics.snapshot(),
    )
