"""Centroid probe routing, scored by the SCN at the SSD level.

The SCN is a learned, non-metric comparator, so geometric
nearest-centroid routing would be uncorrelated with the ranking the
scan actually produces.  The router therefore scores the **centroid
table with the query's own SCN** and probes the ``nprobe`` best lists
under the canonical ``(-score, list_id)`` order.  The one probed search,
:meth:`repro.index.device.IndexedDevice.query`, routes through it.

Cost model: the centroid table is tiny and lives in SSD DRAM next to
the database metadata, so routing is priced as an SSD-level accelerator
pass over ``n_lists`` features.  At ``nprobe >= n_lists`` routing is a
no-op — every list is probed regardless of centroid order — and costs
exactly ``0.0`` seconds, which is what keeps the full-probe path
bit-identical to the exhaustive scan.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.deepstore import DeepStoreSystem
from repro.nn.graph import Graph


def is_nprobe(value: object) -> bool:
    """Whether ``value`` is a valid probe count: a whole number >= 1.

    ``2`` and ``2.0`` are both two lists; ``2.5``, NaN, inf and bools
    are caller bugs.  :meth:`repro.index.device.IndexedDevice.query`
    checks ``nprobe`` with this before routing; the router clamps an
    ``nprobe`` above ``n_lists`` to a full probe.
    """
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and value >= 1
        and float(value).is_integer()
    )


@dataclass(frozen=True)
class RoutingDecision:
    """Which lists one query probes, and what deciding cost."""

    list_ids: np.ndarray
    nprobe: int
    routing_seconds: float
    #: SCN scores of every centroid (``None`` on the full-probe shortcut)
    centroid_scores: Optional[np.ndarray] = None


class CentroidRouter:
    """Route queries to inverted lists via SCN-scored centroids."""

    def __init__(
        self,
        centroids: np.ndarray,
        system: DeepStoreSystem,
        graph: Graph,
        feature_bytes: int,
        page_bytes: int = 16 * 1024,
    ):
        self.centroids = np.asarray(centroids, dtype=np.float32)
        self.system = system
        self.graph = graph
        self.feature_bytes = feature_bytes
        self.page_bytes = page_bytes

    @property
    def n_lists(self) -> int:
        return len(self.centroids)

    def routing_seconds(self) -> float:
        """SSD-level accelerator pass over the centroid table."""
        return self.system.pass_seconds(
            self.graph, self.n_lists, self.feature_bytes, self.page_bytes
        )

    def route(
        self,
        qfv: np.ndarray,
        nprobe: int,
        score_fn: Callable[[Graph, np.ndarray, np.ndarray], np.ndarray],
    ) -> RoutingDecision:
        """Pick ``nprobe`` lists for one query.

        ``score_fn(graph, qfv, rows)`` is the device's SCN scorer, so
        centroids are ranked by exactly the comparator the scan uses.
        """
        nprobe = max(1, min(int(nprobe), self.n_lists))
        if nprobe >= self.n_lists:
            return RoutingDecision(
                list_ids=np.arange(self.n_lists, dtype=np.int64),
                nprobe=self.n_lists,
                routing_seconds=0.0,
            )
        scores = np.asarray(score_fn(self.graph, qfv, self.centroids))
        # stable sort on -score = canonical (-score, list_id) tie-break
        order = np.argsort(-scores, kind="stable")[:nprobe]
        return RoutingDecision(
            list_ids=np.sort(order).astype(np.int64),
            nprobe=nprobe,
            routing_seconds=self.routing_seconds(),
            centroid_scores=scores,
        )
