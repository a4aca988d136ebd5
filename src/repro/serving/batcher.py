"""Batch formation policy and the shared-scan batch cost model.

Compatible queries (same app, hence same SCN weights) coalesce into one
flash pass: each DFV page streams off flash once and is scored against
every query in the batch (:mod:`repro.core.scheduler`'s shared-scan
model).  I/O-bound apps get near-free batching; compute-bound apps pay
linearly but still amortize dispatch/setup.  The server asks this
module two questions: *which queued queries may share a scan* (policy)
and *how long will that scan take* (cost model).

The cost table is precomputed once per server — ``service_seconds(n)``
for every batch size up to the cap — because every batch against one
database has the same cost structure.  Fault integration happens here
too: with dead channel accelerators, the surviving channels adopt the
orphaned stripes (:func:`~repro.core.scheduler.plan_degraded_scan`), so
every batch slows by the plan's load factor plus the engine's one-time
timeout ladder for declaring the dead accelerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.deepstore import DeepStoreSystem
from repro.core.engine import DispatchPolicy
from repro.core.scheduler import MultiQueryScheduler, plan_degraded_scan
from repro.nn.graph import Graph
from repro.sim import fastpath
from repro.ssd.ftl import DatabaseMetadata
from repro.workloads.apps import AppSpec


@dataclass(frozen=True)
class BatchPolicy:
    """How many compatible queries one scan may serve."""

    max_batch: int = 8

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")


class BatchCostModel:
    """Precomputed service times for batches of 1..max_batch queries.

    ``fidelity="event"`` calibrates the analytic table against the
    event-driven stripe execution
    (:meth:`~repro.core.deepstore.DeepStoreSystem.query_latency` with
    ``fidelity="event"``): the single-query event/analytic ratio scales
    the whole table, so queueing behaviour reflects the measured flash
    feed rate rather than the closed-form one.
    """

    def __init__(
        self,
        app: AppSpec,
        meta: DatabaseMetadata,
        system: Optional[DeepStoreSystem] = None,
        policy: Optional[BatchPolicy] = None,
        graph: Optional[Graph] = None,
        failed_accels: Sequence[int] = (),
        dispatch_policy: Optional[DispatchPolicy] = None,
        fidelity: str = "analytic",
    ) -> None:
        if fidelity not in ("analytic", "event"):
            raise ValueError(f"unknown fidelity {fidelity!r}")
        self.app = app
        self.meta = meta
        self.system = system or DeepStoreSystem.at_level("channel")
        self.policy = policy or BatchPolicy()
        # the shared seed-0 SCN: per-shard tables across servers reuse
        # one build and hit one graph-keyed profile memo
        self.graph = graph or fastpath.scn_graph(app)
        self.failed_accels = tuple(sorted(set(failed_accels)))
        scheduler = MultiQueryScheduler(self.system)

        calibration = 1.0
        if fidelity == "event":
            analytic = self.system.query_latency(app, meta, graph=self.graph)
            event = self.system.query_latency(
                app, meta, graph=self.graph, fidelity="event"
            )
            if analytic.total_seconds > 0:
                calibration = event.total_seconds / analytic.total_seconds
        self.calibration = calibration

        # degraded mode: survivors adopt the dead accelerators' stripes,
        # stretching every scan by the load factor; the engine also pays
        # one timeout/backoff ladder per dead accelerator to detect them
        load_factor = 1.0
        ladder_s = 0.0
        if self.failed_accels:
            count = self.system.placement.count(self.system.ssd)
            plan = plan_degraded_scan(
                meta.feature_count, count, self.failed_accels
            )
            load_factor = plan.load_factor
            dispatch_policy = dispatch_policy or DispatchPolicy()
            ladder_s = self.system.engine.degraded_dispatch_seconds(
                count, len(self.failed_accels), dispatch_policy
            ) - self.system.engine.dispatch_seconds(
                count - len(self.failed_accels)
            )
        self.load_factor = load_factor
        self.degraded_ladder_s = ladder_s

        self._table: List[float] = []
        for n in range(1, self.policy.max_batch + 1):
            report = scheduler.shared_scan(app, meta, n, graph=self.graph)
            self._table.append(
                report.scan_seconds * calibration * load_factor + ladder_s
            )

    # ------------------------------------------------------------------
    @property
    def max_batch(self) -> int:
        return self.policy.max_batch

    def service_seconds(self, batch_size: int) -> float:
        """Scan time of one batch (sizes above the cap are an error)."""
        if not 1 <= batch_size <= self.max_batch:
            raise ValueError(
                f"batch_size {batch_size} outside 1..{self.max_batch}"
            )
        return self._table[batch_size - 1]

    def best_batch(self) -> Tuple[int, float]:
        """The batch size with the highest queries-per-second, and that
        throughput (per server)."""
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
