"""Recall-vs-latency Pareto sweeps across the accelerator hierarchy.

For each accelerator level, :func:`sweep_pareto` measures the routed
probe at every ``nprobe`` against that level's exhaustive scan —
recall@K of the ids the probe returns, modelled seconds (routing
included), and the speedup the probe buys.  :func:`des_validation`
re-measures the channel-level point on the event-driven timeline:
the same probe expressed as ``page_offsets`` handed to
:class:`repro.core.event_query.EventQuerySimulator`, so the claimed
speedup survives queueing, bus contention, and cross-channel skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.event_query import EventQuerySimulator
from repro.index.device import IndexedDevice, query_exhaustive
from repro.ssd.ftl import DatabaseMetadata
from repro.workloads.apps import AppSpec


@dataclass(frozen=True)
class ParetoPoint:
    """One (level, nprobe) point of the recall/latency frontier."""

    level: str
    nprobe: int
    recall_at_k: float
    seconds: float
    routing_seconds: float
    probed_rows: float
    #: exhaustive-scan seconds at the same level / ivf seconds
    speedup: float


@dataclass(frozen=True)
class DesValidation:
    """Channel-level DES measurement of one routed probe."""

    nprobe: int
    full_seconds: float
    probed_seconds: float
    full_pages: int
    probed_pages: int

    @property
    def speedup(self) -> float:
        return self.full_seconds / self.probed_seconds


def sweep_pareto(
    device: IndexedDevice,
    db_id: int,
    model_id: int,
    queries: Sequence[np.ndarray],
    k: int = 10,
    nprobes: Sequence[int] = (1, 2, 4, 8),
    levels: Sequence[str] = ("ssd", "channel", "chip"),
) -> List[ParetoPoint]:
    """The full frontier: every (level, nprobe) averaged over queries."""
    points: List[ParetoPoint] = []
    for level in levels:
        exact = [
            query_exhaustive(device, qfv, k, model_id, db_id, level)
            for qfv in queries
        ]
        exact_ids = [set(r.feature_ids.tolist()) for r in exact]
        exact_seconds = float(np.mean([r.seconds for r in exact]))
        for nprobe in nprobes:
            recalls, seconds, routing, probed = [], [], [], []
            for qfv, truth in zip(queries, exact_ids):
                res = device.get_results(
                    device.query(
                        qfv, k, model_id, db_id,
                        accel_level=level, nprobe=nprobe,
                    )
                )
                recalls.append(
                    len(set(res.feature_ids.tolist()) & truth) / len(truth)
                )
                seconds.append(res.seconds)
                routing.append(res.routing_seconds)
                probed.append(res.probed_rows)
            mean_seconds = float(np.mean(seconds))
            points.append(
                ParetoPoint(
                    level=level,
                    nprobe=int(nprobe),
                    recall_at_k=float(np.mean(recalls)),
                    seconds=mean_seconds,
                    routing_seconds=float(np.mean(routing)),
                    probed_rows=float(np.mean(probed)),
                    speedup=exact_seconds / mean_seconds,
                )
            )
    return points


def des_validation(
    device: IndexedDevice,
    db_id: int,
    app: AppSpec,
    qfv: np.ndarray,
    model_id: int,
    nprobe: int,
    meta: Optional[DatabaseMetadata] = None,
) -> DesValidation:
    """Replay one routed probe on the event-driven channel timeline.

    Routes exactly as the query path does, converts the probed lists to
    db page offsets of the built layout, and runs the whole-device DES
    twice: full scan vs probed pages.  The event-time ratio is the
    speedup claim the acceptance gate checks.
    """
    index = device.index_for(db_id)
    meta = meta if meta is not None else device.ssd.ftl.get(db_id)
    graph = device._models[model_id]
    from repro.index.router import CentroidRouter

    router = CentroidRouter(
        index.centroids, device._system("ssd"), graph,
        feature_bytes=meta.feature_bytes, page_bytes=meta.page_bytes,
    )
    decision = router.route(qfv, nprobe, device._score_features)
    offsets = index.lists.probed_page_offsets(decision.list_ids, meta)
    sim = EventQuerySimulator(device.ssd.config)
    full = sim.run(app, meta, graph=graph)
    probed = sim.run(app, meta, graph=graph, page_offsets=offsets)
    return DesValidation(
        nprobe=int(decision.nprobe),
        full_seconds=full.total_seconds,
        probed_seconds=probed.total_seconds,
        full_pages=full.pages,
        probed_pages=probed.pages,
    )
