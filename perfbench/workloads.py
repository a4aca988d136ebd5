"""The benchmark's three workloads.

Each workload builds its inputs from the seed in :meth:`setup`, runs one
client op per :meth:`step` (timing only the call into the program), and
checks a fixed sample of its ops against :mod:`oracles` in
:meth:`check`, after the timed phase.

* ``cluster_read`` — closed loop, one client, no think time, against a
  hardened 3x2 ``DeepStoreCluster`` with the query cache on.  Reads
  interleave a trained TIR SCN (Dense) and a seeded ReId SCN (Conv2D).
  Queries come from Zipf streams over a bounded intent set, so work
  repeats and the per-replica caches both hit and evict.
* ``ingest_indexed`` — closed loop, one client, against one
  ``IndexedDevice``: rounds of routed probes from fresh uniform queries
  plus one fixed-composition mutation batch, and a compaction (which
  re-indexes) closing every cycle of rounds.  No cache, no work repeats.
* ``tenant_day`` — the multi-tenant production day, an open loop in
  simulated time; host-side each op is one whole day run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

from oracles import (
    check_exact_topk,
    check_ledgers,
    check_scores_at_ids,
    check_visible,
    recall,
    scn_scores,
)
from repro.cluster import ClusterConfig, DeepStoreCluster, RetryPolicy
from repro.index import IndexedDevice
from repro.ingest.store import oracle_topk
from repro.ingest.writepath import region_blocks_for
from repro.sim import fastpath
from repro.tenancy import MultiTenantServer, default_production_config
from repro.tenancy import trace as tenancy_trace
from repro.workloads import QueryStream, get_app, pretrained, train_scn

K = 10


@dataclass
class Op:
    """One timed client op."""

    latency_s: float
    kind: str
    #: ops this call counts for in ``ops_per_s``
    units: int
    result: object


def _reset_memo_tables() -> None:
    """Forget every in-process memo so each set-up pays first use."""
    fastpath.clear_tables()
    pretrained.clear_cache()


def _digest_arrays(h, *arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())


class ClusterRead:
    """Cached reads on a hardened, sharded, replicated cluster."""

    name = "cluster_read"
    TIR_ROWS = 12_000
    REID_ROWS = 150
    #: model of op ``i`` is ``PATTERN[i % len(PATTERN)]`` (T = TIR, R = ReId)
    PATTERN = "TTR"
    N_INTENTS = 24
    ZIPF_ALPHA = 0.9
    PARAPHRASE_NOISE = 0.15
    CACHE_THRESHOLD = 0.1
    #: entries per replica cache, shared by both models: small enough
    #: that the hit rate settles near 20% within a few dozen reads
    CACHE_CAPACITY = 4
    #: the query trace is the same for every workload seed (the seed
    #: varies the databases and the models), so the hit/miss sequence,
    #: and with it the latency mix, does not change from seed to seed
    STREAM_SEED = 77
    #: reads ``0, ORACLE_EVERY, ...`` below ``ORACLE_LIMIT`` are checked
    ORACLE_EVERY = 4
    ORACLE_LIMIT = 64
    #: the fingerprint covers this many leading reads
    DIGEST_OPS = 40
    STREAM_LENGTH = 512

    def config(self) -> Dict[str, object]:
        """Everything that shapes the inputs, for the provenance hash."""
        return {
            "cluster": repr(self._cluster_config()),
            "tir_rows": self.TIR_ROWS,
            "reid_rows": self.REID_ROWS,
            "pattern": self.PATTERN,
            "intents": self.N_INTENTS,
            "alpha": self.ZIPF_ALPHA,
            "noise": self.PARAPHRASE_NOISE,
            "cache": (self.CACHE_THRESHOLD, self.CACHE_CAPACITY),
            "stream_seed": self.STREAM_SEED,
            "k": K,
        }

    @staticmethod
    def _cluster_config():
        # the bench_ext_obs stress profile: hedging, retries, one dead
        # replica, stragglers
        return ClusterConfig(
            n_shards=3,
            n_replicas=2,
            seed=0,
            hedge_fraction=0.3,
            straggler_spread=0.5,
            fail_shards=((1, 0),),
            retry_policy=RetryPolicy(),
        )

    def setup(self, seed: int) -> None:
        """Inputs, trained TIR SCN, cluster, databases, warm memo tables."""
        _reset_memo_tables()
        rng = np.random.default_rng([seed, 1])
        tir, reid = get_app("tir"), get_app("reid")
        self.features = {
            "T": rng.normal(0, 1, (self.TIR_ROWS, tir.feature_floats)).astype(np.float32),
            "R": rng.normal(0, 1, (self.REID_ROWS, reid.feature_floats)).astype(np.float32),
        }
        self.graphs = {
            "T": train_scn(tir, seed=seed),
            "R": reid.build_scn(seed=seed),
        }
        self.cluster = DeepStoreCluster(self._cluster_config())
        self.db = {m: self.cluster.write_db(f) for m, f in self.features.items()}
        self.model = {m: self.cluster.load_graph(g) for m, g in self.graphs.items()}
        streams = {
            m: QueryStream(
                dim=self.features[m].shape[1],
                n_intents=self.N_INTENTS,
                distribution="zipf",
                alpha=self.ZIPF_ALPHA,
                paraphrase_noise=self.PARAPHRASE_NOISE,
                seed=self.STREAM_SEED + i,
            )
            for i, m in enumerate(self.features)
        }
        self.queries = {
            m: [r.qfv for r in s.generate(self.STREAM_LENGTH)]
            for m, s in streams.items()
        }
        # first use of each model fills the latency model's memo tables;
        # the cache is then re-armed empty so timed reads start cold
        for m in self.features:
            warm = rng.normal(0, 1, self.features[m].shape[1]).astype(np.float32)
            self.cluster.query(warm, K, self.model[m], self.db[m])
        self.cluster.set_qc(self.CACHE_THRESHOLD, capacity=self.CACHE_CAPACITY)
        self.used = {m: 0 for m in self.features}
        self.reads: List[Tuple[str, np.ndarray, object]] = []

    def step(self, i: int) -> Op:
        """One cluster read (query + gather of the global top-K)."""
        m = self.PATTERN[i % len(self.PATTERN)]
        stream = self.queries[m]
        qfv = stream[self.used[m] % len(stream)]
        self.used[m] += 1
        t0 = perf_counter()
        result = self.cluster.query(qfv, K, self.model[m], self.db[m])
        t1 = perf_counter()
        if i < max(self.DIGEST_OPS, self.ORACLE_LIMIT):
            self.reads.append((m, qfv, result))
        return Op(t1 - t0, "read", 1, result)

    def boundary(self, done: int) -> bool:
        """Any op count is a valid place to stop."""
        return True

    def digest(self) -> str:
        """Fingerprint of the leading reads' ids, scores and sim seconds."""
        h = hashlib.sha256()
        for m, _qfv, r in self.reads[: self.DIGEST_OPS]:
            h.update(m.encode())
            _digest_arrays(h, r.feature_ids, r.scores, np.float64(r.seconds))
        return h.hexdigest()

    def check(self) -> Tuple[int, List[str], Dict[str, float]]:
        """Oracles on the sampled reads: (failed reads, failures, stats)."""
        failures: List[str] = []
        failed = 0
        for i in range(0, min(len(self.reads), self.ORACLE_LIMIT), self.ORACLE_EVERY):
            m, qfv, r = self.reads[i]
            graph, features = self.graphs[m], self.features[m]
            problems = check_scores_at_ids(graph, qfv, features, r.feature_ids, r.scores)
            if not any(s.cache_hit for s in r.shards):
                problems += check_exact_topk(graph, qfv, features, r.scores, K)
            failures += [f"read {i} ({m}): {p}" for p in problems]
            failed += bool(problems)
        return failed, failures, {}

    def stats(self, ops: List[Op]) -> Dict[str, float]:
        """Simulated per-layer stats of the timed reads."""
        reads = [op.result for op in ops if op.kind == "read" and op.result is not None]
        n = max(len(reads), 1)
        return {
            "reads": float(len(reads)),
            "cluster.hedge_wins": sum(r.hedge_wins for r in reads) / n,
            "cluster.failovers": sum(r.failovers for r in reads) / n,
        }


class IngestIndexed:
    """Routed IVF reads beside mutation batches and compaction."""

    name = "ingest_indexed"
    ROWS = 40_000
    N_LISTS = 64
    NPROBE = 8
    READS_PER_ROUND = 3
    ROUNDS_PER_CYCLE = 8
    INSERTS = 32
    DELETES = 16
    UPDATES = 4
    ORACLE_EVERY = 4
    ORACLE_LIMIT = 48
    DIGEST_OPS = 40

    def config(self) -> Dict[str, object]:
        """Everything that shapes the inputs, for the provenance hash."""
        return {
            "rows": self.ROWS,
            "n_lists": self.N_LISTS,
            "nprobe": self.NPROBE,
            "reads_per_round": self.READS_PER_ROUND,
            "rounds_per_cycle": self.ROUNDS_PER_CYCLE,
            "mutation": (self.INSERTS, self.DELETES, self.UPDATES),
            "k": K,
        }

    @property
    def cycle_ops(self) -> int:
        """Ops from one compaction to the next, the compaction included."""
        return self.ROUNDS_PER_CYCLE * (self.READS_PER_ROUND + 1) + 1

    def setup(self, seed: int) -> None:
        """Inputs, trained TIR SCN, ingest-enabled device, IVF index."""
        _reset_memo_tables()
        self.rng = np.random.default_rng([seed, 2])
        app = get_app("tir")
        self.dim = app.feature_floats
        base = self.rng.normal(0, 1, (self.ROWS, self.dim)).astype(np.float32)
        self.graph = train_scn(app, seed=seed)
        self.device = IndexedDevice()
        self.db = self.device.write_db(base)
        self.model = self.device.load_graph(self.graph)
        self.device.enable_ingest(
            self.db,
            region_blocks=region_blocks_for(
                rows=self.ROWS,
                feature_bytes=app.feature_bytes,
                page_bytes=self.device.ssd.config.geometry.page_bytes,
                headroom=2.0,
            ),
        )
        self.device.build_index(self.db, self.model, self.N_LISTS, seed=seed)
        warm = self.rng.normal(0, 1, self.dim).astype(np.float32)
        self.device.get_results(
            self.device.query(warm, K, self.model, self.db, nprobe=self.NPROBE)
        )
        #: the benchmark's own copy of every row and of the live id set
        self.rows: List[np.ndarray] = [base]
        self.n_rows = self.ROWS
        self.live: List[int] = list(range(self.ROWS))
        self.n_reads = 0
        self.digest_log: List[Tuple] = []
        self.sample: List[Tuple[np.ndarray, object, np.ndarray]] = []
        self.id_errors: List[str] = []

    def _kind(self, i: int) -> str:
        pos = i % self.cycle_ops
        if pos == self.cycle_ops - 1:
            return "compact"
        return "read" if pos % (self.READS_PER_ROUND + 1) < self.READS_PER_ROUND else "write"

    def step(self, i: int) -> Op:
        """One read, mutation batch or compaction, by schedule position."""
        kind = self._kind(i)
        if kind == "read":
            return self._read(i)
        if kind == "write":
            return self._write(i)
        t0 = perf_counter()
        outcome = self.device.compact_db(self.db)
        t1 = perf_counter()
        if i < self.DIGEST_OPS:
            self.digest_log.append(("compact", outcome))
        return Op(t1 - t0, "compact", 1, outcome)

    def _read(self, i: int) -> Op:
        qfv = self.rng.normal(0, 1, self.dim).astype(np.float32)
        sampled = self.n_reads % self.ORACLE_EVERY == 0 and self.n_reads < self.ORACLE_LIMIT
        if sampled:
            visible = np.sort(np.asarray(self.live, dtype=np.int64))
        t0 = perf_counter()
        handle = self.device.query(
            qfv, K, self.model, self.db, nprobe=self.NPROBE, include_delta=True
        )
        result = self.device.get_results(handle)
        t1 = perf_counter()
        if sampled:
            self.sample.append((qfv, result, visible))
        self.n_reads += 1
        if i < self.DIGEST_OPS:
            self.digest_log.append(("read", result))
        return Op(t1 - t0, "read", 1, result)

    def _write(self, i: int) -> Op:
        rng = self.rng
        inserts = rng.normal(0, 1, (self.INSERTS, self.dim)).astype(np.float32)
        updates = rng.normal(0, 1, (self.UPDATES, self.dim)).astype(np.float32)
        picks = rng.choice(len(self.live), size=self.DELETES + self.UPDATES, replace=False)
        victims = [self.live[p] for p in picks]
        doomed, replaced = victims[: self.DELETES], victims[self.DELETES:]
        t0 = perf_counter()
        new_ids = list(self.device.insert_db(self.db, inserts))
        self.device.delete_db_rows(self.db, doomed)
        for fid, row in zip(replaced, updates):
            new_ids.append(self.device.update_db_row(self.db, fid, row))
        t1 = perf_counter()
        expected = list(range(self.n_rows, self.n_rows + self.INSERTS + self.UPDATES))
        if [int(x) for x in new_ids] != expected:
            self.id_errors.append(f"op {i}: new ids {new_ids[:3]}... != {expected[:3]}...")
        self.rows += [inserts, updates]
        self.n_rows += self.INSERTS + self.UPDATES
        for p in sorted(picks, reverse=True):
            self.live[p] = self.live[-1]
            self.live.pop()
        self.live += expected
        if i < self.DIGEST_OPS:
            self.digest_log.append(("write", np.asarray(new_ids, np.int64)))
        return Op(t1 - t0, "write", 1, new_ids)

    def boundary(self, done: int) -> bool:
        """Stop only after a compaction, so every run ends on a cycle."""
        return done % self.cycle_ops == 0

    def digest(self) -> str:
        """Fingerprint of the leading ops' ids, scores and sim seconds."""
        h = hashlib.sha256()
        for kind, r in self.digest_log:
            h.update(kind.encode())
            if kind == "read":
                _digest_arrays(
                    h, r.feature_ids, r.scores, np.float64(r.seconds),
                    np.int64(r.probed_rows),
                )
            elif kind == "write":
                _digest_arrays(h, r)
            else:
                _digest_arrays(
                    h, np.float64(r.seconds), np.int64(r.reclaimed_rows),
                    np.int64(r.rewritten_rows), np.float64(r.write_amplification),
                )
        return h.hexdigest()

    def check(self) -> Tuple[int, List[str], Dict[str, float]]:
        """Oracles on the sampled reads and the assigned ids: (failed
        ops, failures, recall@10 against the exact visible top-K)."""
        features = np.concatenate(self.rows, axis=0)
        failures = list(self.id_errors)
        failed = len(self.id_errors)
        recalls = []
        for n, (qfv, r, visible) in enumerate(self.sample):
            problems = check_visible(r.feature_ids, visible)
            problems += check_scores_at_ids(
                self.graph, qfv, features, r.feature_ids, r.scores
            )
            failures += [f"sampled read {n}: {p}" for p in problems]
            failed += bool(problems)
            scores = np.full(len(features), -np.inf, dtype=np.float32)
            scores[visible] = scn_scores(self.graph, qfv, features[visible])
            exact = [fid for _s, fid in oracle_topk(features, visible, scores, K)]
            recalls.append(recall(r.feature_ids, exact))
        quality = {"index.recall_at_10": float(np.mean(recalls)) if recalls else 0.0}
        return failed, failures, quality

    def stats(self, ops: List[Op]) -> Dict[str, float]:
        """Simulated per-layer stats of the timed ops."""
        reads = [op.result for op in ops if op.kind == "read" and op.result is not None]
        state = self.device.lifecycle(self.db)
        return {
            "reads": float(len(reads)),
            "index.probed_rows_per_read": (
                sum(r.probed_rows for r in reads) / max(len(reads), 1)
            ),
            "ssd.gc.write_amplification": state.writepath.write_amplification,
        }


class TenantDay:
    """The production day: flash crowd, outage, skewed ingest, autoscaler."""

    name = "tenant_day"
    #: the tenant whose tail latency is reported
    INTERACTIVE = "search"

    def config(self) -> Dict[str, object]:
        """Everything that shapes the inputs, for the provenance hash."""
        return {"tenancy": repr(default_production_config(seed=0))}

    def setup(self, seed: int) -> None:
        """Tenancy config, server (cost models) and the day trace."""
        _reset_memo_tables()
        self.config_ = default_production_config(seed=seed)
        self.server = MultiTenantServer(self.config_)
        self.trace = tenancy_trace.generate_day(self.config_)
        self.days: List[object] = []

    def step(self, i: int) -> Op:
        """Run the whole day once; every arrival counts as an op."""
        t0 = perf_counter()
        result = self.server.run(self.trace)
        t1 = perf_counter()
        self.days.append(result)
        return Op(t1 - t0, "day", len(self.trace), result)

    def boundary(self, done: int) -> bool:
        """Any op count is a valid place to stop."""
        return True

    def digest(self) -> str:
        """Fingerprint of the first day's full report."""
        payload = json.dumps(self.days[0].as_dict(), sort_keys=True) if self.days else ""
        return hashlib.sha256(payload.encode()).hexdigest()

    def check(self) -> Tuple[int, List[str], Dict[str, float]]:
        """Ledger conservation on every day run, every replay identical:
        (failed arrivals, failures, stats)."""
        offered: Dict[str, int] = {}
        for arrival in self.trace:
            offered[arrival.tenant] = offered.get(arrival.tenant, 0) + 1
        failures: List[str] = []
        first = json.dumps(self.days[0].as_dict(), sort_keys=True) if self.days else None
        failed = 0
        for n, day in enumerate(self.days):
            completed = {name: t.completed for name, t in day.tenants.items()}
            problems = check_ledgers(day.ledger, offered, completed)
            if json.dumps(day.as_dict(), sort_keys=True) != first:
                problems.append("day report differs from the first run of the same trace")
            failed += len(self.trace) if problems else 0
            failures += [f"day {n}: {p}" for p in problems]
        return failed, failures, {}

    def stats(self, ops: List[Op]) -> Dict[str, float]:
        """Simulated tenancy stats of the first day."""
        if not self.days:
            return {}
        day = self.days[0]
        offered = sum(t.offered for t in day.tenants.values())
        shed = sum(t.shed for t in day.tenants.values())
        return {
            "reads": 0.0,
            "tenancy.sim_p99_s": day.tenants[self.INTERACTIVE].p99_s,
            "tenancy.shed_frac": shed / offered if offered else 0.0,
            "tenancy.scale_actions": float(len(day.actions)),
        }


WORKLOADS = {w.name: w for w in (ClusterRead, IngestIndexed, TenantDay)}
