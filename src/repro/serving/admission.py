"""Bounded admission queue with priority classes and shedding policies.

The device's embedded cores can hold only so many parsed-but-unserved
queries; past that bound something must give.  :class:`AdmissionQueue`
models that bound explicitly and makes the "something" a policy choice:

``reject``
    drop the **newcomer** when the queue is full (classic tail drop —
    the default, and the only policy that never revokes an admission);
``drop-oldest``
    evict the longest-waiting query of the least-important class to
    admit the newcomer, but never evict a class more important than the
    newcomer's (head drop with priority protection);
``deadline``
    admit freely up to the bound, but expire queries whose sojourn
    exceeds ``deadline_s`` before they reach a server (staleness
    shedding — a query answered too late is a query wasted).

The queue is a pure data structure over caller-supplied clocks — no
simulator dependency — so property tests can drive it with arbitrary
operation sequences.  Invariants it maintains (and tests assert):

* **bound**: live depth never exceeds ``bound``;
* **priority**: ``pop`` returns the lowest-numbered nonempty class;
* **FIFO**: within one priority class, pops happen in offer order;
* **conservation**: ``offered == admitted + rejected`` and
  ``admitted == popped + evicted + expired + depth`` at every step.

:class:`WeightedFairQueue` wraps one :class:`AdmissionQueue` per tenant
(its own bound and ledger) and dispatches across them by **deficit
round-robin**: each visit to a backlogged tenant adds ``weight *
quantum`` credit; a tenant is served once its deficit reaches one
query and is charged one per query dispatched (a big batch sends it
negative, so batch-sized service stays weight-proportional); an emptied
queue forfeits its credit.  Per-tenant conservation, no starvation and
weight-proportional service are pinned by the property suite.  With one
tenant the scheduler degenerates to ``pop_batch`` on that tenant's
queue, which is how :class:`~repro.serving.server.QueryServer` drives
it.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

#: recognized shedding policies
POLICIES = ("reject", "drop-oldest", "deadline")


@dataclass(slots=True)
class QueuedQuery:
    """One admitted query waiting for a scan slot.

    Slotted, one per arrival; never hashed, and never changed once
    built.
    """

    qid: int
    arrival_s: float
    priority: int = 0
    #: batch-compatibility key (same app/SCN ⇒ may share a scan)
    compat: str = ""
    intent: int = -1
    qfv: Any = None


@dataclass
class AdmissionCounters:
    """Conservation ledger; every query lands in exactly one bucket."""

    offered: int = 0
    admitted: int = 0
    #: newcomers turned away at the door (``reject``, or ``drop-oldest``
    #: finding nothing less important to evict)
    rejected: int = 0
    #: admitted queries revoked to make room (``drop-oldest``)
    evicted: int = 0
    #: admitted queries shed for exceeding the deadline (``deadline``)
    expired: int = 0
    popped: int = 0

    @property
    def shed(self) -> int:
        """Everything that was offered but will never be served."""
        return self.rejected + self.evicted + self.expired

    def conserved(self, depth: int) -> bool:
        """The two conservation identities (see module docstring)."""
        return (
            self.offered == self.admitted + self.rejected
            and self.admitted == self.popped + self.evicted
            + self.expired + depth
        )


class AdmissionQueue:
    """Bounded multi-class FIFO with a load-shedding policy."""

    def __init__(
        self,
        bound: int,
        policy: str = "reject",
        deadline_s: Optional[float] = None,
    ) -> None:
        if bound <= 0:
            raise ValueError("queue bound must be positive")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of {POLICIES}"
            )
        if policy == "deadline" and (deadline_s is None or deadline_s <= 0):
            raise ValueError("deadline policy needs a positive deadline_s")
        if policy != "deadline" and deadline_s is not None:
            raise ValueError("deadline_s only applies to the deadline policy")
        self.bound = bound
        self.policy = policy
        self.deadline_s = deadline_s
        self.counters = AdmissionCounters()
        self._classes: Dict[int, Deque[QueuedQuery]] = {}
        #: the keys of ``_classes``, kept sorted at insert so ``pop``
        #: scans classes by priority without sorting per call
        self._priorities: List[int] = []
        #: live depth, maintained incrementally — ``offer`` is called
        #: once per arrival and ``len(self)`` guards every admission, so
        #: a sum over class deques would make admission O(classes) per
        #: query (visible in serving-sweep profiles)
        self._depth = 0
        #: a lower bound on every queued ``arrival_s``: lowered by
        #: ``offer``, reset to the survivors' exact minimum (``inf`` when
        #: none) by a real sweep, and still a bound after pops and
        #: evictions.  Float subtraction is monotone, so ``now - oldest
        #: <= deadline_s`` proves no queued query is over age, whatever
        #: the arrival order
        self._oldest = float("inf")
        #: shed queries this step, surfaced so the server can record
        #: their latency/timeline events; drained by :meth:`take_shed`
        self._shed_log: List[Tuple[QueuedQuery, str]] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._depth

    @property
    def depth(self) -> int:
        """Live queued queries (expired-but-unswept ones included)."""
        return self._depth

    def take_shed(self) -> List[Tuple[QueuedQuery, str]]:
        """Drain and return ``(query, reason)`` pairs shed since last call."""
        out = self._shed_log
        self._shed_log = []
        return out

    # ------------------------------------------------------------------
    def _expire(self, now: float) -> None:
        """Deadline policy: lazily drop over-age queries (any position).

        Callers test ``deadline_s``, which is set for the ``deadline``
        policy only.  Constant work unless the oldest-arrival bound
        says a query may be over age; only then are the class deques
        rebuilt.
        """
        assert self.deadline_s is not None
        if now - self._oldest <= self.deadline_s:
            return
        oldest = float("inf")
        for queue in self._classes.values():
            survivors = deque(
                q for q in queue if now - q.arrival_s <= self.deadline_s
            )
            if len(survivors) != len(queue):
                for q in queue:
                    if now - q.arrival_s > self.deadline_s:
                        self.counters.expired += 1
                        self._shed_log.append((q, "expired"))
                self._depth -= len(queue) - len(survivors)
                queue.clear()
                queue.extend(survivors)
            for q in survivors:
                if q.arrival_s < oldest:
                    oldest = q.arrival_s
        self._oldest = oldest

    def _evict_for(self, newcomer: QueuedQuery) -> bool:
        """``drop-oldest``: shed the oldest query of the least-important
        class that is no more important than the newcomer."""
        for priority in reversed(self._priorities):
            if priority < newcomer.priority:
                return False
            queue = self._classes[priority]
            if queue:
                victim = queue.popleft()
                self._depth -= 1
                self.counters.evicted += 1
                self._shed_log.append((victim, "evicted"))
                return True
        return False

    # ------------------------------------------------------------------
    def offer(self, query: QueuedQuery, now: float) -> bool:
        """Try to admit ``query`` at time ``now``; True iff admitted."""
        self.counters.offered += 1
        if self.deadline_s is not None:
            self._expire(now)
        if self._depth >= self.bound:
            if self.policy == "drop-oldest" and self._evict_for(query):
                pass  # room was made
            else:
                self.counters.rejected += 1
                self._shed_log.append((query, "rejected"))
                return False
        self.counters.admitted += 1
        queue = self._classes.get(query.priority)
        if queue is None:
            queue = self._classes[query.priority] = deque()
            insort(self._priorities, query.priority)
        queue.append(query)
        self._depth += 1
        if not query.arrival_s >= self._oldest:
            # ``not >=`` also takes a NaN arrival, which then forces the
            # next sweep, where it expires as it always did
            self._oldest = query.arrival_s
        return True

    def pop(self, now: float) -> Optional[QueuedQuery]:
        """Dequeue the FIFO head of the most important nonempty class."""
        if self.deadline_s is not None:
            self._expire(now)
        for priority in self._priorities:
            queue = self._classes[priority]
            if queue:
                self.counters.popped += 1
                self._depth -= 1
                return queue.popleft()
        return None

    def pop_batch(self, now: float, max_batch: int) -> List[QueuedQuery]:
        """Dequeue the head plus its batchable followers.

        Pops the FIFO head, then keeps popping while the **next head of
        the same priority class** shares the head's ``compat`` key, up
        to ``max_batch`` queries.  Only contiguous prefix runs coalesce,
        so service order within a class stays exactly FIFO — a
        compatible query never jumps an incompatible one.
        """
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        head = self.pop(now)
        if head is None:
            return []
        batch = [head]
        queue = self._classes.get(head.priority)
        while (
            queue is not None
            and len(batch) < max_batch
            and queue
            and queue[0].compat == head.compat
        ):
            batch.append(queue.popleft())
            self.counters.popped += 1
            self._depth -= 1
        return batch


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
        #: entries in the tenant shed logs not yet drained by
        #: ``take_shed``, so a drain with nothing shed is one test;
        #: recounted only after a queue operation that shed
        self._shed_pending = 0
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
        grown = queue._depth - before
        self._depth += grown
        if grown != 1:
            # only a shed (rejection, eviction, expiry) keeps an offer
            # from growing the queue by exactly the newcomer
            self._count_shed()
        return admitted

    def _count_shed(self) -> None:
        """Recount the entries waiting in the tenant shed logs."""
        self._shed_pending = sum(
            len(queue._shed_log) for queue in self._queues.values()
        )

    def take_shed(self) -> List[Tuple[str, QueuedQuery, str]]:
        """Drain ``(tenant, query, reason)`` for every shed since last
        call, in tenant declaration order."""
        out: List[Tuple[str, QueuedQuery, str]] = []
        if not self._shed_pending:
            return out
        self._shed_pending = 0
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
            if queue._depth != before:
                self._depth += queue._depth - before
                self._count_shed()

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
            if before - queue._depth != len(batch):
                # the pop's own deadline sweep shed what it did not return
                self._count_shed()
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
