"""BatchPlane's write class: ingest ops beside reads in one queue.

The multi-tenant plane offers live-ingest writes to the same
weighted-fair queue as reads, under the reserved ``INGEST_COMPAT``
batch key and priority class 1.  These checks drive
:class:`~repro.serving.plane.BatchPlane` directly the way
:class:`~repro.tenancy.server.MultiTenantServer` does: a write never
shares a scan batch with reads, lands in the write ledger, and is shed
before a read when the queue overflows.
"""

from repro.serving.admission import (
    QueuedQuery,
    TenantQueueSpec,
    WeightedFairQueue,
)
from repro.serving.arrivals import INGEST_COMPAT
from repro.serving.plane import BatchPlane
from repro.sim import Simulator

TENANT = "t"


def _play(n, gap_s, is_write, policy="reject", bound=64):
    """Offer ``n`` arrivals ``gap_s`` apart to a one-backend plane.

    Every batch holds the backend for one second; returns the plane,
    its queue and the compat keys of every batch it formed.
    """
    sim = Simulator()
    wfq = WeightedFairQueue([TenantQueueSpec(TENANT, bound=bound, policy=policy)])
    batches = []

    def service(tenant, batch):
        batches.append([query.compat for query in batch])
        return 1.0

    plane = BatchPlane(sim, wfq, 1, 4, service)

    def arrive(qid):
        write = is_write(qid)
        query = QueuedQuery(
            qid=qid,
            arrival_s=sim.now,
            priority=1 if write else 0,
            compat=INGEST_COMPAT if write else "tir",
        )
        admitted = wfq.offer(TENANT, query, sim.now)
        plane.note_queue()
        if admitted:
            plane.dispatch()

    sim.schedule_bulk(
        [qid * gap_s for qid in range(n)],
        [(lambda qid=qid: arrive(qid)) for qid in range(n)],
    )
    sim.run()
    return plane, wfq, batches


def test_writes_never_batch_with_queries():
    n = 60
    plane, wfq, batches = _play(n, 0.2, lambda qid: qid % 3 == 0)
    n_writes = sum(1 for qid in range(n) if qid % 3 == 0)
    assert wfq.counters(TENANT).admitted == n  # nothing shed
    for compats in batches:
        assert len(set(compats)) == 1
    # both classes really batched, each into its own ledger
    assert max(len(c) for c in batches if c[0] == INGEST_COMPAT) > 1
    assert max(len(c) for c in batches if c[0] != INGEST_COMPAT) > 1
    assert len(plane.writes[TENANT]) == n_writes
    assert len(plane.reads[TENANT]) == n - n_writes


def test_queries_keep_priority_over_writes():
    # saturate a small drop-oldest queue: class-1 writes shed first
    n = 150
    plane, wfq, _ = _play(
        n, 0.05, lambda qid: qid % 2 == 0, policy="drop-oldest", bound=8
    )
    counters = wfq.counters(TENANT)
    assert counters.evicted > 0
    n_writes = n_reads = n // 2
    reads_done, writes_done = len(plane.reads[TENANT]), len(plane.writes[TENANT])
    assert reads_done + writes_done + counters.rejected + counters.evicted == n
    assert reads_done / n_reads > writes_done / n_writes
