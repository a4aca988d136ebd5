"""The one discrete-event batch-service loop both servers drive.

Admitted queries wait in a
:class:`~repro.serving.admission.WeightedFairQueue`; an idle scan
backend pops the next compat-prefix batch, holds for its priced service
time, and completes every member on one scheduled event.
:class:`BatchPlane` owns that loop, the backend pool (grow, drain on
retire, the capacity integral), maintenance holds, and the per-tenant
ledger: read and write latencies, waits, batch sizes and busy time.

:class:`~repro.serving.server.QueryServer` drives it with one tenant,
behind its cache fast path; :class:`~repro.tenancy.server.MultiTenantServer`
with its tenants, autoscaler, failure swap and rebalance holds.  A
caller offers to ``wfq`` itself, then calls ``note_queue()`` and, if
admitted, ``dispatch()``: two calls, so the tenancy plane can route an
admitted write (which may queue a hold and dispatch) in between.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional

from repro.obs.metrics import percentile
from repro.obs.slo import SloMonitor
from repro.obs.tracer import Tracer
from repro.serving.admission import QueuedQuery, WeightedFairQueue
from repro.serving.arrivals import INGEST_COMPAT
from repro.sim import Simulator


class BatchPlane:
    """Backends, dispatch, completion and the per-tenant ledger.

    ``service(tenant, batch)`` prices one batch.  With a ``tracer``
    the plane records queue depth and sheds as instants and backend
    occupancy as spans on ``serving`` tracks; with a ``monitor`` it
    records every read a backend completes or the queue sheds (never a
    write) under ``slo_names[tenant]``.
    ``on_read_batch(batch)`` runs after a read batch completes.
    """

    def __init__(
        self,
        sim: Simulator,
        wfq: WeightedFairQueue,
        backends: int,
        max_batch: int,
        service: Callable[[str, List[QueuedQuery]], float],
        tracer: Optional[Tracer] = None,
        monitor: Optional[SloMonitor] = None,
        slo_names: Optional[Dict[str, str]] = None,
        on_read_batch: Optional[Callable[[List[QueuedQuery]], None]] = None,
    ) -> None:
        self.sim = sim
        self.wfq = wfq
        self.max_batch = max_batch
        self.service = service
        self.tracer = tracer
        self.monitor = monitor
        self.slo_names = slo_names or {}
        self.on_read_batch = on_read_batch
        self.idle: List[int] = list(range(backends))
        self.n_backends = self.peak_backends = self.next_backend = backends
        self.pending_retire = 0
        self.capacity_integral = 0.0
        self.capacity_since = 0.0
        self.maintenance: Deque[float] = deque()
        self.busy_s = 0.0
        self.last_completion = 0.0
        self.batch_sizes: List[int] = []
        self.reads: Dict[str, List[float]] = {t: [] for t in wfq._order}
        self.writes: Dict[str, List[float]] = {t: [] for t in wfq._order}
        self.waits: Dict[str, List[float]] = {t: [] for t in wfq._order}
        if tracer is not None:
            self._queue_track = tracer.track("serving", "queue")
            self._shed_track = tracer.track("serving", "sheds")

    # ------------------------------------------------------------------
    def note_queue(self) -> None:
        """Drain the shed log; call after every offer and pop.  A shed
        read is a bad SLO event.  Nothing shed is the common case: one
        test of the scheduler's pending-shed count."""
        if self.wfq._shed_pending:
            for tenant, query, reason in self.wfq.take_shed():
                if (
                    self.monitor is not None
                    and query.compat != INGEST_COMPAT
                ):
                    self.monitor.record(
                        self.slo_names[tenant], self.sim.now, good=False
                    )
                if self.tracer is not None:
                    self.tracer.instant(
                        self._shed_track, reason, self.sim.now,
                        cat="serving.shed", args={"qid": query.qid},
                    )
        if self.tracer is not None:
            self.tracer.instant(
                self._queue_track, "depth", self.sim.now,
                cat="serving.queue", args={"depth": self.wfq._depth},
            )

    def dispatch(self) -> None:
        """Start batches while a backend is idle: holds first, then the
        scheduler's next batch."""
        idle = self.idle
        while idle and (self.maintenance or self.wfq._depth > 0):
            batch: List[QueuedQuery] = []
            if self.maintenance:
                tenant, service = "", self.maintenance.popleft()
            else:
                now = self.sim.now
                tenant, batch = self.wfq.pop_batch(now, self.max_batch)
                self.note_queue()
                if not batch:
                    return
                service = self.service(tenant, batch)
                self.batch_sizes.append(len(batch))
                waits = self.waits[tenant]
                for query in batch:
                    waits.append(now - query.arrival_s)
                if self.tracer is not None:
                    self.tracer.complete(
                        self.tracer.track("serving", f"server {idle[0]}"),
                        f"batch x{len(batch)}", now, service,
                        cat="serving.batch", args={"n": len(batch)},
                    )
            server = idle.pop(0)
            self.busy_s += service
            self.sim.schedule_after(
                service, partial(self._finish, server, tenant, batch),
                label="batch-done",
            )

    def _finish(
        self, server: int, tenant: str, batch: List[QueuedQuery]
    ) -> None:
        """Complete a batch (or end a hold) and free or retire its backend."""
        now = self.sim.now
        if batch:
            if now > self.last_completion:
                self.last_completion = now
            if batch[0].compat == INGEST_COMPAT:
                writes = self.writes[tenant]
                for query in batch:
                    writes.append(now - query.arrival_s)
            else:
                reads, monitor = self.reads[tenant], self.monitor
                slo = self.slo_names.get(tenant)
                for query in batch:
                    latency = now - query.arrival_s
                    reads.append(latency)
                    if monitor is not None:
                        monitor.record(slo, now, latency_s=latency)
                if self.on_read_batch is not None:
                    self.on_read_batch(batch)
        if self.pending_retire > 0:
            self.pending_retire -= 1
            self.resize(-1)
        else:
            insort(self.idle, server)
        self.dispatch()

    def served(self, tenant: str, latency: float) -> None:
        """Record a read answered without a backend (a cache hit)."""
        self.reads[tenant].append(latency)
        self.last_completion = max(self.last_completion, self.sim.now)

    # ------------------------------------------------------------------
    def hold(self, seconds: float) -> None:
        """Queue a maintenance job that occupies the next idle backend."""
        self.maintenance.append(seconds)
        self.dispatch()

    def resize(self, delta: int) -> None:
        """Change the live backend count, accruing the capacity integral
        up to now (``resize(0)`` closes it at the end of a run)."""
        now = self.sim.now
        self.capacity_integral += (now - self.capacity_since) * self.n_backends
        self.capacity_since = now
        self.n_backends += delta
        self.peak_backends = max(self.peak_backends, self.n_backends)

    def grow(self) -> None:
        """Bring one new backend online and put it to work."""
        self.resize(+1)
        insort(self.idle, self.next_backend)
        self.next_backend += 1
        self.dispatch()

    def retire(self) -> None:
        """Take one backend out: an idle one now, else the next to finish."""
        if self.idle:
            self.idle.pop()
            self.resize(-1)
        else:
            self.pending_retire += 1

    # ------------------------------------------------------------------
    @property
    def mean_batch(self) -> float:
        """Mean query-batch size (maintenance holds excluded)."""
        sizes = self.batch_sizes
        return sum(sizes) / len(sizes) if sizes else 0.0

    def summary(self, tenant: str) -> Dict[str, float]:
        """One tenant's read-latency and wait summary, keyed by the field
        names both result types share."""
        lat, waits = self.reads[tenant], self.waits[tenant]
        return {
            "mean_latency_s": sum(lat) / len(lat) if lat else 0.0,
            "p50_s": percentile(lat, 50) if lat else 0.0,
            "p99_s": percentile(lat, 99) if lat else 0.0,
            "p999_s": percentile(lat, 99.9) if lat else 0.0,
            "max_latency_s": max(lat) if lat else 0.0,
            "mean_wait_s": sum(waits) / len(waits) if waits else 0.0,
        }
