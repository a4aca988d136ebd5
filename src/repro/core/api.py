"""The DeepStore programming API (paper Table 2).

:class:`DeepStoreDevice` is a functional stand-in for a DeepStore SSD: it
implements ``readDB`` / ``writeDB`` / ``appendDB`` / ``loadModel`` /
``query`` / ``getResults`` / ``setQC`` with real behaviour (feature data
is stored, models execute in numpy, top-K results are genuinely the
highest-scoring features) *and* simulated cost (every query carries the
:class:`~repro.core.deepstore.QueryLatency` the hardware model predicts).

This is the public surface examples and downstream users program against:

>>> device = DeepStoreDevice()                      # doctest: +SKIP
>>> db = device.write_db(features)                  # doctest: +SKIP
>>> model = device.load_model(graph_to_bytes(scn))  # doctest: +SKIP
>>> handle = device.query(qfv, k=10, model_id=model, db_id=db)
>>> result = device.get_results(handle)             # doctest: +SKIP

Method names follow Python conventions; each maps 1:1 to a Table-2 call
(``write_db`` = ``writeDB``, etc.).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.deepstore import DeepStoreSystem, QueryLatency
from repro.core.placement import LEVELS
from repro.core.query_cache import EmbeddingComparator, QueryCache
from repro.core.topk import topk_order
from repro.nn import Graph, graph_from_bytes
from repro.sim import fastpath
from repro.ssd.ftl import DatabaseMetadata
from repro.ssd.ssd import Ssd
from repro.ssd.timing import SsdConfig


class DeepStoreApiError(RuntimeError):
    """Raised for invalid handles or malformed requests."""


def is_count(value: object, low: int = 0) -> bool:
    """Whether ``value`` is an integer of at least ``low``.

    Floats (even whole ones), NaN and bools are not counts: a size that
    arrives as ``2.5`` or ``True`` is a caller bug, not a request.
    """
    return (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and value >= low
    )


def check_counts(
    config: object,
    counts: Iterable[Tuple[str, int]],
    error: Callable[[str], Exception] = ValueError,
) -> None:
    """Raise ``error`` naming the first ``(field, low)`` that is not a count."""
    for name, low in counts:
        value = getattr(config, name)
        if not is_count(value, low):
            raise error(f"{name} must be an integer >= {low}, got {value!r}")


def is_real(value: object, low: float = -math.inf) -> bool:
    """Whether ``value`` is a real number greater than ``low``.

    Bools and NaN are not: like :func:`is_count`, this rejects a size
    or time that arrives as ``True`` or ``nan`` instead of letting it
    fail deep inside a run.
    """
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and value > low
    )


@dataclass
class QueryHandle:
    """Opaque handle returned by ``query`` (the paper's query_id)."""

    query_id: int


@dataclass
class QueryResult:
    """Top-K results plus the modelled execution cost."""

    query_id: int
    feature_ids: np.ndarray  # indices into the database
    scores: np.ndarray  # SCN similarity scores, best first
    object_ids: np.ndarray  # physical flash addresses of the features
    latency: QueryLatency
    cache_hit: bool = False
    #: DMA time for getResults to copy the top-K (feature vectors +
    #: ObjectIDs) to host memory (paper §4.2)
    transfer_seconds: float = 0.0
    #: index-layer annotations (zero on the exhaustive-scan path):
    #: centroid-routing time already included in the latency's engine
    #: share, rows the probe actually scanned, and the nprobe used
    routing_seconds: float = 0.0
    probed_rows: int = 0
    nprobe: int = 0

    @property
    def k(self) -> int:
        return len(self.feature_ids)

    @property
    def seconds(self) -> float:
        return self.latency.total_seconds

    @property
    def seconds_to_host(self) -> float:
        """Query latency plus the result DMA."""
        return self.latency.total_seconds + self.transfer_seconds

    def span_args(self) -> Dict[str, object]:
        """Small args dict for a distributed-trace leaf span."""
        return {
            "query_id": self.query_id,
            "k": self.k,
            "cache_hit": self.cache_hit,
            "seconds_to_host": self.seconds_to_host,
        }


@dataclass(frozen=True)
class PlannedScan:
    """The top-K a query plan scored and the rows the query is charged.

    The charge can exceed the rows scored: tombstones still cost reads.
    """

    ids: np.ndarray
    scores: np.ndarray
    charged_rows: int
    #: stretch the scan by background writes (a mutated database)
    interfered: bool = False
    #: index annotations copied onto the :class:`QueryResult`
    routing_seconds: float = 0.0
    probed_rows: int = 0
    nprobe: int = 0


class DeepStoreDevice:
    """A DeepStore-enabled SSD, functional + timed."""

    #: features scored per numpy chunk during a functional scan
    SCAN_CHUNK = 8192

    def __init__(
        self,
        ssd: Optional[SsdConfig] = None,
        level: str = "channel",
        seed: int = 0,
    ):
        if level not in LEVELS:
            raise DeepStoreApiError(f"unknown accelerator level {level!r}")
        self.ssd = Ssd(ssd)
        self.level = level
        self._systems: Dict[str, DeepStoreSystem] = {}
        #: per-database rows, ``buffer[:n]`` of the matching entry in
        #: ``_feature_buffers`` (rows are never rewritten in place)
        self._feature_store: Dict[int, np.ndarray] = {}
        #: per-database float32 backing arrays with bounded append slack
        self._feature_buffers: Dict[int, np.ndarray] = {}
        self._models: Dict[int, Graph] = {}
        self._next_model_id = 1
        self._next_query_id = 1
        self._results: Dict[int, QueryResult] = {}
        self._cache: Optional[QueryCache] = None
        self._cache_lookup_seconds_per_entry = 0.0
        #: per-database mutation epoch; query-cache entries are tagged
        #: ``(db_id, epoch)`` so results cached before a mutation can
        #: never satisfy queries issued after it
        self._db_epochs: Dict[int, int] = {}
        self._failed_accels: set = set()
        self.seed = seed
        #: (db_id, start, end) -> sha256 of those stored rows, made on
        #: the range's first full scan (stored rows never change)
        self._row_digests: Dict[Tuple[int, int, int], bytes] = {}

    # ------------------------------------------------------------------
    # reliability controls
    # ------------------------------------------------------------------
    def fail_accelerator(self, index: int) -> None:
        """Hard-fail one accelerator of the device's placement level.

        Subsequent queries run in degraded mode: the dead accelerator's
        stripe is remapped onto the survivors, so results are unchanged
        but the modelled latency reflects the detection timeouts and
        the survivors' extra load.
        """
        if index < 0:
            raise DeepStoreApiError("accelerator index cannot be negative")
        self._failed_accels.add(index)

    # ------------------------------------------------------------------
    # database management (writeDB / appendDB / readDB)
    # ------------------------------------------------------------------
    def write_db(self, features: np.ndarray) -> int:
        """``writeDB``: create a database from an (N, dim) feature array."""
        features = self._check_features(features)
        meta = self.ssd.ftl.create_database(
            feature_bytes=features.shape[1] * 4, feature_count=features.shape[0]
        )
        buffer = features.copy()
        self._feature_buffers[meta.db_id] = buffer
        self._feature_store[meta.db_id] = buffer
        self.ssd.dram.allocate(f"db{meta.db_id}-metadata", meta.METADATA_BYTES)
        self._db_epochs[meta.db_id] = 0
        return meta.db_id

    def append_db(self, db_id: int, features: np.ndarray) -> None:
        """``appendDB``: append features to an existing database.

        Amortized O(rows added): the rows land in the database's backing
        buffer, which grows geometrically (slack ``max(rows, n // 8)``)
        only when full.  Rows already stored are never rewritten, so an
        array taken from the store before an append keeps its rows.
        """
        features = self._check_features(features)
        meta = self.ssd.ftl.get(db_id)
        if features.shape[1] * 4 != meta.feature_bytes:
            raise DeepStoreApiError(
                f"feature size {features.shape[1] * 4} does not match "
                f"database {db_id}'s {meta.feature_bytes} bytes"
            )
        self.ssd.ftl.append(db_id, features.shape[0])
        n, added = len(self._feature_store[db_id]), features.shape[0]
        buffer = self._feature_buffers[db_id]
        if n + added > len(buffer):
            grown = np.empty(
                (n + added + max(added, (n + added) // 8), buffer.shape[1]),
                dtype=np.float32,
            )
            grown[:n] = buffer[:n]
            buffer = self._feature_buffers[db_id] = grown
        buffer[n : n + added] = features
        self._feature_store[db_id] = buffer[: n + added]
        self._note_mutation(db_id)

    def read_db(self, db_id: int, start: int = 0, num: Optional[int] = None) -> np.ndarray:
        """``readDB``: read ``num`` features starting at ``start``."""
        store = self._store(db_id)
        if num is None:
            num = len(store) - start
        if start < 0 or num < 0 or start + num > len(store):
            raise DeepStoreApiError(
                f"range [{start}, {start + num}) out of bounds for db {db_id}"
            )
        return store[start : start + num].copy()

    def db_epoch(self, db_id: int) -> int:
        """The database's mutation epoch (0 = never mutated)."""
        self.ssd.ftl.get(db_id)  # validate the handle
        return self._db_epochs.get(db_id, 0)

    def _note_mutation(self, db_id: int) -> None:
        """Advance the epoch and drop now-stale query-cache entries."""
        self._db_epochs[db_id] = self._db_epochs.get(db_id, 0) + 1
        if self._cache is not None:
            self._cache.invalidate_tag_prefix((db_id,))

    # ------------------------------------------------------------------
    # models (loadModel)
    # ------------------------------------------------------------------
    def load_model(self, blob: bytes) -> int:
        """``loadModel``: register an ONNX-format model blob."""
        graph = graph_from_bytes(blob)
        model_id = self._next_model_id
        self._next_model_id += 1
        self._models[model_id] = graph
        self.ssd.dram.allocate(f"model{model_id}", len(blob))
        return model_id

    def load_graph(self, graph: Graph) -> int:
        """Convenience: register an in-memory graph directly."""
        model_id = self._next_model_id
        self._next_model_id += 1
        self._models[model_id] = graph
        self.ssd.dram.allocate(f"model{model_id}", graph.weight_bytes())
        return model_id

    # ------------------------------------------------------------------
    # query cache (setQC)
    # ------------------------------------------------------------------
    def set_qc(
        self,
        threshold: float,
        capacity: int = 1024,
        qcn_accuracy: float = 0.98,
        comparator: Optional[EmbeddingComparator] = None,
        lookup_seconds_per_entry: float = 0.3e-6,
    ) -> None:
        """``setQC``: configure the similarity query cache."""
        self._cache = QueryCache(
            capacity=capacity,
            comparator=comparator or EmbeddingComparator(),
            qcn_accuracy=qcn_accuracy,
            threshold=threshold,
        )
        self._cache_lookup_seconds_per_entry = lookup_seconds_per_entry

    @property
    def query_cache(self) -> Optional[QueryCache]:
        return self._cache

    # ------------------------------------------------------------------
    # query / getResults
    # ------------------------------------------------------------------
    def query(
        self,
        qfv: np.ndarray,
        k: int,
        model_id: int,
        db_id: int,
        db_start: int = 0,
        db_end: Optional[int] = None,
        accel_level: Optional[str] = None,
    ) -> QueryHandle:
        """``query``: scan (a sub-range of) a database with one QFV."""
        return self._run_query(
            self._range_plan, qfv, k, model_id, db_id, db_start, db_end,
            accel_level,
        )

    def _run_query(
        self,
        plan: Callable[..., PlannedScan],
        qfv: np.ndarray,
        k: int,
        model_id: int,
        db_id: int,
        db_start: int,
        db_end: Optional[int],
        accel_level: Optional[str],
    ) -> QueryHandle:
        """The one query template every device runs.

        ``plan(graph, qfv, meta, store, db_start, db_end, k)`` picks and
        scores the rows; the checks, the epoch-tagged cache, pricing
        (healthy or degraded) and the result are shared by every plan.
        """
        if not is_count(k, 1):
            raise DeepStoreApiError(f"k must be an integer >= 1, got {k!r}")
        graph = self._models.get(model_id)
        if graph is None:
            raise DeepStoreApiError(f"unknown model id {model_id}")
        store = self._store(db_id)
        meta = self.ssd.ftl.get(db_id)
        db_end = len(store) if db_end is None else db_end
        if not 0 <= db_start < db_end <= len(store):
            raise DeepStoreApiError(f"bad db range [{db_start}, {db_end})")
        level = accel_level or self.level
        system = self._system(level)
        if not system.supports(graph):
            raise DeepStoreApiError(
                f"model {graph.name!r} is not supported at the {level} level"
            )

        qfv = np.asarray(qfv, dtype=np.float32).reshape(-1)
        if qfv.size * 4 != meta.feature_bytes:
            raise DeepStoreApiError(
                f"QFV size {qfv.size * 4} bytes does not match database "
                f"feature size {meta.feature_bytes}"
            )

        cache_tag = (db_id, self._db_epochs.get(db_id, 0))
        if self._cache is not None:
            lookup = self._cache.lookup(qfv, tag=cache_tag)
            if lookup.hit and lookup.entry is not None:
                candidates = lookup.entry.topk_feature_ids
                scores = self._score_features(graph, qfv, store[candidates])
                order = topk_order(candidates, scores, k)
                result = self._build_result(
                    meta, candidates[order], scores[order],
                    self._hit_latency(graph, meta, lookup.entries_scanned, k),
                    cache_hit=True,
                )
                return self._register(result)

        scan = plan(graph, qfv, meta, store, db_start, db_end, k)
        sliced = self._sliced_meta(meta, scan.charged_rows)
        if self._failed_accels:
            # degraded mode: same results, honest (slower) cost model
            count = system.placement.count(system.ssd)
            bad = {i for i in self._failed_accels if i < count}
            if len(bad) >= count:
                raise DeepStoreApiError(
                    "all accelerators failed; no degraded mode possible"
                )
            latency = system.degraded_latency_for(
                graph,
                sliced,
                feature_bytes=meta.feature_bytes,
                failed_accels=bad,
                name=graph.name,
            )
        else:
            latency = system.latency_for(
                graph, sliced, feature_bytes=meta.feature_bytes, name=graph.name
            )
        if scan.interfered:
            latency = self._interfered(latency)
        if scan.routing_seconds > 0.0:
            latency = dataclasses.replace(
                latency,
                engine_seconds=latency.engine_seconds + scan.routing_seconds,
            )
        if self._cache is not None:
            # an empty top-K leaves a later hit nothing to rescore
            if len(scan.ids):
                self._cache.insert(qfv, scan.scores, scan.ids, tag=cache_tag)
            lookup_cost = len(self._cache) * self._cache_lookup_seconds_per_entry
            latency = dataclasses.replace(
                latency, engine_seconds=latency.engine_seconds + lookup_cost
            )
        result = self._build_result(
            meta, scan.ids, scan.scores, latency, cache_hit=False
        )
        result.routing_seconds = scan.routing_seconds
        result.probed_rows = scan.probed_rows
        result.nprobe = scan.nprobe
        return self._register(result)

    def _range_plan(
        self,
        graph: Graph,
        qfv: np.ndarray,
        meta: DatabaseMetadata,
        store: np.ndarray,
        start: int,
        end: int,
        k: int,
    ) -> PlannedScan:
        """Every row of ``[start, end)``, charged in full.

        The top-K comes from the process-wide scan memo
        (:func:`repro.sim.fastpath.scan_topk`), keyed on the rows'
        content: any device holding the same rows (a replica, a twin
        cluster) reuses one scan of them.
        """
        span, step = (meta.db_id, start, end), self.SCAN_CHUNK
        digest = self._row_digests.get(span)
        if digest is None:
            digest = self._row_digests[span] = hashlib.sha256(store[start:end]).digest()
        chunks = (
            (np.arange(lo, min(end, lo + step)), store[lo : min(end, lo + step)])
            for lo in range(start, end, step)
        )
        ids, scores = fastpath.scan_topk(
            graph, qfv, (digest, start, end, k, step),
            lambda: self._scan_chunks(graph, qfv, chunks, k),
        )
        return PlannedScan(ids, scores, charged_rows=end - start)

    def _interfered(self, latency: QueryLatency) -> QueryLatency:
        """A static device has no background writes to slow its scans."""
        return latency

    def get_results(self, handle: QueryHandle) -> QueryResult:
        """``getResults``: fetch a completed query's top-K."""
        result = self._results.get(handle.query_id)
        if result is None:
            raise DeepStoreApiError(f"unknown query id {handle.query_id}")
        return result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _system(self, level: str) -> DeepStoreSystem:
        system = self._systems.get(level)
        if system is None:
            system = DeepStoreSystem(self.ssd.config, placement=LEVELS[level])
            self._systems[level] = system
        return system

    def _store(self, db_id: int) -> np.ndarray:
        store = self._feature_store.get(db_id)
        if store is None:
            raise DeepStoreApiError(f"unknown database id {db_id}")
        return store

    @staticmethod
    def _check_features(features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float32)
        if features.ndim != 2 or features.shape[0] == 0:
            raise DeepStoreApiError("features must be a non-empty (N, dim) array")
        return features

    def _scan_ids(
        self,
        graph: Graph,
        qfv: np.ndarray,
        store: np.ndarray,
        ids: np.ndarray,
        k: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Chunked functional SCN scan over explicit row ids."""
        chunks = (
            (ids[lo : lo + self.SCAN_CHUNK], store[ids[lo : lo + self.SCAN_CHUNK]])
            for lo in range(0, len(ids), self.SCAN_CHUNK)
        )
        return self._scan_chunks(graph, qfv, chunks, k)

    def _scan_chunks(
        self,
        graph: Graph,
        qfv: np.ndarray,
        chunks: Iterable[Tuple[np.ndarray, np.ndarray]],
        k: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Canonical top-K ``(ids, scores)`` over ``(row ids, rows)`` chunks.

        Each chunk keeps its own canonical top-K and the survivors are
        ranked once more, so the answer is the ``(-score, id)`` top-K of
        all rows whatever the chunk size.
        """
        best_ids: List[np.ndarray] = []
        best_scores: List[np.ndarray] = []
        for chunk_ids, rows in chunks:
            scores = self._score_features(graph, qfv, rows)
            top = topk_order(chunk_ids, scores, k)
            best_ids.append(chunk_ids[top])
            best_scores.append(scores[top])
        if not best_ids:
            return np.empty(0, np.int64), np.empty(0, np.float32)
        ids = np.concatenate(best_ids).astype(np.int64)
        scores = np.concatenate(best_scores)
        top = topk_order(ids, scores, k)
        return ids[top], scores[top].astype(np.float32)

    def _score_features(
        self, graph: Graph, qfv: np.ndarray, features: np.ndarray
    ) -> np.ndarray:
        q_id, d_id = graph.input_ids
        n = len(features)
        q_shape = graph.shape_of(q_id)
        d_shape = graph.shape_of(d_id)
        # the query stays one row: every op reads it through a stride-0
        # view, and the ops that hand an input to BLAS copy it first
        q_row = np.asarray(qfv, dtype=np.float32).reshape(q_shape)
        d_batch = features.reshape((n, *d_shape))
        out = graph.forward(
            {
                q_id: np.broadcast_to(q_row, (n, *q_shape)),
                d_id: np.ascontiguousarray(d_batch),
            }
        )
        return out.reshape(-1)

    def _sliced_meta(self, meta: DatabaseMetadata, count: int) -> DatabaseMetadata:
        if count == meta.feature_count:
            return meta
        sliced = DatabaseMetadata(
            db_id=meta.db_id,
            feature_bytes=meta.feature_bytes,
            feature_count=count,
            page_bytes=meta.page_bytes,
        )
        sliced.extents = meta.extents
        return sliced

    def _hit_latency(
        self, graph: Graph, meta: DatabaseMetadata, entries_scanned: int, k: int
    ) -> QueryLatency:
        """Cache-hit cost: QCN lookup + SCN over the cached top-K."""
        system = self._system(self.level)
        tiny = self._sliced_meta(meta, max(1, k))
        latency = system.latency_for(
            graph, tiny, feature_bytes=meta.feature_bytes, name=graph.name
        )
        lookup_cost = entries_scanned * self._cache_lookup_seconds_per_entry
        return dataclasses.replace(
            latency, engine_seconds=latency.engine_seconds + lookup_cost
        )

    def _build_result(
        self,
        meta: DatabaseMetadata,
        ids: np.ndarray,
        scores: np.ndarray,
        latency: QueryLatency,
        cache_hit: bool,
    ) -> QueryResult:
        object_ids = np.asarray(
            [self._object_id(meta, int(i)) for i in ids], dtype=np.int64
        )
        query_id = self._next_query_id
        self._next_query_id += 1
        transfer = self._system(self.level).engine.result_transfer_seconds(
            max(1, len(ids)), meta.feature_bytes
        )
        return QueryResult(
            query_id=query_id,
            feature_ids=np.asarray(ids, dtype=np.int64),
            scores=np.asarray(scores, dtype=np.float32),
            object_ids=object_ids,
            latency=latency,
            cache_hit=cache_hit,
            transfer_seconds=transfer,
        )

    def _object_id(self, meta: DatabaseMetadata, feature_index: int) -> int:
        """Physical byte address of a feature (the paper's ObjectID)."""
        page_offset, _ = meta.feature_page_span(feature_index)
        ppn = meta.page_offset_to_ppn(page_offset)
        if meta.page_aligned:
            in_page = 0
        else:
            in_page = (feature_index % meta.features_per_page) * meta.feature_bytes
        return ppn * meta.page_bytes + in_page

    def _register(self, result: QueryResult) -> QueryHandle:
        self._results[result.query_id] = result
        return QueryHandle(query_id=result.query_id)
