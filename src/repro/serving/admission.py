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
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

#: recognized shedding policies
POLICIES = ("reject", "drop-oldest", "deadline")


@dataclass(frozen=True)
class QueuedQuery:
    """One admitted query waiting for a scan slot."""

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

        Constant work unless the oldest-arrival bound says a query may
        be over age; only then are the class deques rebuilt.
        """
        if self.policy != "deadline":
            return
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
