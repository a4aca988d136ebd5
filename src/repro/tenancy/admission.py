"""Weighted-fair admission: per-tenant queues + deficit round-robin.

The single-tenant :class:`~repro.serving.admission.AdmissionQueue` is
kept exactly as is — one instance **per tenant**, so each tenant gets
its own bound (a backlogged neighbor can never occupy another tenant's
slots) and its own conservation ledger.  What this module adds is the
*scheduler* between them: :class:`WeightedFairQueue` dispatches batches
across the per-tenant queues by **deficit round-robin** (DRR):

* every visit to a backlogged tenant adds ``weight * quantum`` credit
  to its deficit counter;
* a tenant is served when its deficit reaches one query's worth, and is
  charged one unit per query actually dispatched (a big shared-scan
  batch sends the deficit negative — the tenant then sits out rounds
  until its credit recovers, which is precisely how batch-sized service
  stays weight-proportional over time);
* an emptied queue forfeits its deficit (classic DRR: credit never
  accumulates while idle, so a silent tenant cannot hoard a burst's
  worth of priority).

Invariants the property suite pins: per-tenant conservation
(``offered == admitted + rejected`` and ``admitted == popped + evicted
+ expired + depth`` for every tenant independently, bit-exact, under
arbitrary interleavings), no starvation (a backlogged tenant is served
within a bounded number of dispatches), and weight-proportional
service for continuously backlogged tenants (within one quantum plus
one batch).

With exactly one tenant the scheduler degenerates to ``pop_batch`` on
that tenant's queue — the single-tenant serving path, batch for batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.serving.admission import (
    AdmissionCounters,
    AdmissionQueue,
    QueuedQuery,
)


@dataclass(frozen=True)
class TenantQueueSpec:
    """One tenant's admission parameters, as the scheduler sees them."""

    name: str
    weight: float = 1.0
    bound: int = 64
    policy: str = "reject"
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant queue needs a name")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        # bound/policy/deadline combinations are validated by the
        # per-tenant AdmissionQueue itself at construction


class WeightedFairQueue:
    """Per-tenant bounded queues under deficit-round-robin dispatch."""

    def __init__(
        self,
        tenants: List[TenantQueueSpec],
        quantum: float = 1.0,
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant queue")
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.quantum = quantum
        self._order: List[str] = names
        self._weights: Dict[str, float] = {t.name: t.weight for t in tenants}
        self._queues: Dict[str, AdmissionQueue] = {
            t.name: AdmissionQueue(t.bound, t.policy, t.deadline_s)
            for t in tenants
        }
        #: only these can shed on their own clock, so only these are swept
        self._deadline_queues: List[AdmissionQueue] = [
            q for q in self._queues.values() if q.policy == "deadline"
        ]
        #: live depth across every tenant, kept by the difference each
        #: per-tenant ``offer``/``pop_batch``/sweep makes to its queue
        self._depth = 0
        self._deficit: Dict[str, float] = {name: 0.0 for name in names}
        self._cursor = 0
        # True while the cursor's tenant has already been granted this
        # visit's credit — it keeps the turn across pop_batch calls
        # until the credit is spent, which is what makes service counts
        # weight-proportional even at one batch per dispatch
        self._charged = False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._depth

    @property
    def depth(self) -> int:
        """Live queued queries across every tenant."""
        return self._depth

    def counters(self, tenant: str) -> AdmissionCounters:
        """One tenant's conservation ledger (live object)."""
        return self._queues[tenant].counters

    # ------------------------------------------------------------------
    def offer(self, tenant: str, query: QueuedQuery, now: float) -> bool:
        """Offer one query to its tenant's bounded queue."""
        queue = self._queues.get(tenant)
        if queue is None:
            raise KeyError(f"unknown tenant {tenant!r}")
        before = queue._depth
        admitted = queue.offer(query, now)
        self._depth += queue._depth - before
        return admitted

    def take_shed(self) -> List[Tuple[str, QueuedQuery, str]]:
        """Drain ``(tenant, query, reason)`` for every shed since last
        call, in tenant declaration order."""
        out: List[Tuple[str, QueuedQuery, str]] = []
        for name in self._order:
            queue = self._queues[name]
            if queue._shed_log:
                for query, reason in queue.take_shed():
                    out.append((name, query, reason))
        return out

    # ------------------------------------------------------------------
    def _sweep(self, now: float) -> None:
        """Run deadline expiry on every ``deadline``-policy queue (so
        ``depth`` is honest before the scheduler decides who is
        backlogged); the other policies never shed on the clock."""
        for queue in self._deadline_queues:
            before = queue._depth
            queue._expire(now)
            self._depth += queue._depth - before

    def pop_batch(
        self, now: float, max_batch: int
    ) -> Tuple[str, List[QueuedQuery]]:
        """Dispatch the next batch under DRR; ``("", [])`` when idle.

        Guaranteed to serve *someone* whenever any queue is nonempty:
        each full round adds ``weight * quantum > 0`` credit to every
        backlogged tenant, so a serveable deficit is always reached —
        the caller never sees a nonempty scheduler refuse to dispatch
        (which would strand the DES with no wake-up event).
        """
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self._sweep(now)
        if self._depth == 0:
            return "", []
        while True:
            name = self._order[self._cursor]
            queue = self._queues[name]
            if queue._depth == 0:
                # idle tenants forfeit credit: no hoarding while silent
                self._deficit[name] = 0.0
                self._advance()
                continue
            if not self._charged:
                self._deficit[name] += self._weights[name] * self.quantum
                self._charged = True
            if self._deficit[name] < 1.0:
                self._advance()
                continue
            before = queue._depth
            batch = queue.pop_batch(now, max_batch)
            self._depth += queue._depth - before
            if not batch:
                # everything expired during the pop's deadline sweep
                self._deficit[name] = 0.0
                self._advance()
                if self._depth == 0:
                    return "", []
                continue
            self._deficit[name] -= float(len(batch))
            if queue._depth == 0:
                # emptied: forfeit leftover credit and yield the turn
                self._deficit[name] = 0.0
                self._advance()
            elif self._deficit[name] < 1.0:
                # credit spent: the turn moves on next dispatch
                self._advance()
            return name, batch

    def _advance(self) -> None:
        """Move the cursor to the next tenant (its visit uncharged)."""
        self._cursor = (self._cursor + 1) % len(self._order)
        self._charged = False

    # ------------------------------------------------------------------
    def ledger(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant conservation snapshot (bit-exact integers)."""
        out: Dict[str, Dict[str, int]] = {}
        for name in self._order:
            queue = self._queues[name]
            c = queue.counters
            out[name] = {
                "offered": c.offered,
                "admitted": c.admitted,
                "rejected": c.rejected,
                "evicted": c.evicted,
                "expired": c.expired,
                "popped": c.popped,
                "depth": len(queue),
            }
        return out

    def conserved(self) -> bool:
        """Every tenant's ledger satisfies both conservation identities."""
        return all(
            self._queues[name].counters.conserved(len(self._queues[name]))
            for name in self._order
        )
