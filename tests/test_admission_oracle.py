"""Oracle: the constant-work admission primitives against full scans.

``AdmissionQueue`` keeps a lower bound on its oldest queued arrival and
skips the deadline sweep while that bound proves nothing is over age;
it keeps its class priorities sorted at insert.  ``WeightedFairQueue``
keeps its depth as a running count, sweeps only ``deadline`` queues and
keeps a count of pending sheds, so a drain with nothing shed is one
test.  The reference classes below are the earlier
implementations, kept verbatim: they rebuild every class deque on every
``offer`` and ``pop``, sort the classes on every ``pop``, and sum the
per-tenant depths on every call.

Hypothesis drives a reference and a live instance through one random
sequence of ``offer``/``pop``/``pop_batch``/``take_shed`` calls and
deadline sweeps, with
out-of-order arrivals (``arrival_s`` before, at or after ``now``, or
not finite), a clock that may step back, and bounds small enough that
``drop-oldest`` evicts and ``reject`` refuses.  After every step the two must agree on
the returned value, the counters, the shed log in order, the queued
contents and the depth; ``take_shed`` must drain exactly the reference's
logs, in order.  The live scheduler's pending-shed count must equal the
entries in its tenants' shed logs after every step, so its shortcut
never skips a shed.
"""

import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.serving.admission import (
    POLICIES,
    AdmissionCounters,
    AdmissionQueue,
    QueuedQuery,
)
from repro.tenancy.admission import TenantQueueSpec, WeightedFairQueue


class ReferenceAdmissionQueue:
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
        #: live depth, maintained incrementally — ``offer`` is called
        #: once per arrival and ``len(self)`` guards every admission, so
        #: a sum over class deques would make admission O(classes) per
        #: query (visible in serving-sweep profiles)
        self._depth = 0
        #: shed queries this step, surfaced so the server can record
        #: their latency/timeline events; drained by :meth:`take_shed`
        self._shed_log: List[Tuple[QueuedQuery, str]] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._depth

    @property
    def depth(self) -> int:
        """Live queued queries (expired-but-unswept ones included)."""
        return len(self)

    def take_shed(self) -> List[Tuple[QueuedQuery, str]]:
        """Drain and return ``(query, reason)`` pairs shed since last call."""
        out = self._shed_log
        self._shed_log = []
        return out

    # ------------------------------------------------------------------
    def _expire(self, now: float) -> None:
        """Deadline policy: lazily drop over-age queries (any position)."""
        if self.policy != "deadline":
            return
        assert self.deadline_s is not None
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

    def _evict_for(self, newcomer: QueuedQuery) -> bool:
        """``drop-oldest``: shed the oldest query of the least-important
        class that is no more important than the newcomer."""
        candidates = [
            p for p, queue in self._classes.items()
            if queue and p >= newcomer.priority
        ]
        if not candidates:
            return False
        victim_class = max(candidates)
        victim = self._classes[victim_class].popleft()
        self._depth -= 1
        self.counters.evicted += 1
        self._shed_log.append((victim, "evicted"))
        return True

    # ------------------------------------------------------------------
    def offer(self, query: QueuedQuery, now: float) -> bool:
        """Try to admit ``query`` at time ``now``; True iff admitted."""
        self.counters.offered += 1
        self._expire(now)
        if len(self) >= self.bound:
            if self.policy == "drop-oldest" and self._evict_for(query):
                pass  # room was made
            else:
                self.counters.rejected += 1
                self._shed_log.append((query, "rejected"))
                return False
        self.counters.admitted += 1
        self._classes.setdefault(query.priority, deque()).append(query)
        self._depth += 1
        return True

    def pop(self, now: float) -> Optional[QueuedQuery]:
        """Dequeue the FIFO head of the most important nonempty class."""
        self._expire(now)
        for priority in sorted(self._classes):
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


class ReferenceWeightedFairQueue:
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
        self._queues: Dict[str, ReferenceAdmissionQueue] = {
            t.name: ReferenceAdmissionQueue(t.bound, t.policy, t.deadline_s)
            for t in tenants
        }
        self._deficit: Dict[str, float] = {name: 0.0 for name in names}
        self._cursor = 0
        # True while the cursor's tenant has already been granted this
        # visit's credit — it keeps the turn across pop_batch calls
        # until the credit is spent, which is what makes service counts
        # weight-proportional even at one batch per dispatch
        self._charged = False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    @property
    def depth(self) -> int:
        """Live queued queries across every tenant."""
        return len(self)

    def counters(self, tenant: str) -> AdmissionCounters:
        """One tenant's conservation ledger (live object)."""
        return self._queues[tenant].counters

    # ------------------------------------------------------------------
    def offer(self, tenant: str, query: QueuedQuery, now: float) -> bool:
        """Offer one query to its tenant's bounded queue."""
        if tenant not in self._queues:
            raise KeyError(f"unknown tenant {tenant!r}")
        return self._queues[tenant].offer(query, now)

    def take_shed(self) -> List[Tuple[str, QueuedQuery, str]]:
        """Drain ``(tenant, query, reason)`` for every shed since last
        call, in tenant declaration order."""
        out: List[Tuple[str, QueuedQuery, str]] = []
        for name in self._order:
            for query, reason in self._queues[name].take_shed():
                out.append((name, query, reason))
        return out

    # ------------------------------------------------------------------
    def _sweep(self, now: float) -> None:
        """Run deadline expiry on every queue (so ``depth`` is honest
        before the scheduler decides who is backlogged)."""
        for queue in self._queues.values():
            queue._expire(now)

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
        if len(self) == 0:
            return "", []
        while True:
            name = self._order[self._cursor]
            queue = self._queues[name]
            if len(queue) == 0:
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
            batch = queue.pop_batch(now, max_batch)
            if not batch:
                # everything expired during the pop's deadline sweep
                self._deficit[name] = 0.0
                self._advance()
                if len(self) == 0:
                    return "", []
                continue
            self._deficit[name] -= float(len(batch))
            if len(queue) == 0:
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


# ----------------------------------------------------------------------
# driving both through one sequence
# ----------------------------------------------------------------------
#: clock steps: exact quarter steps make ``now - arrival_s`` land on the
#: deadline itself; floats (negative ones included) fill the rest
CLOCK_STEP = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(-0.5, 2.0)
)
#: ``now - arrival_s``: a late-stamped (penalised) arrival, an on-time
#: one, one stamped in the future, or a non-finite stamp
PENALTY = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(-1.0, 3.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
DEADLINES = st.sampled_from([0.25, 0.5, 1.0, 2.0])

OFFER = st.tuples(
    st.just("offer"), CLOCK_STEP, PENALTY,
    st.integers(0, 2), st.sampled_from(["a", "b"]), st.integers(0, 2),
)
POP = st.tuples(st.just("pop"), CLOCK_STEP)
POP_BATCH = st.tuples(st.just("pop_batch"), CLOCK_STEP, st.integers(1, 4))
TAKE_SHED = st.tuples(st.just("take_shed"))
EXPIRE = st.tuples(st.just("expire"), CLOCK_STEP)
OPS = st.lists(
    st.one_of(OFFER, OFFER, POP, POP_BATCH, TAKE_SHED, EXPIRE), max_size=80
)


def _queue_state(queue) -> Tuple[Any, ...]:
    """Everything observable about one queue, class order included."""
    return (
        queue.counters,
        list(queue._shed_log),
        [(p, list(dq)) for p, dq in queue._classes.items()],
        len(queue),
        queue.depth,
        queue.counters.conserved(len(queue)),
    )


def _query(step: int, now: float, op: Tuple[Any, ...]) -> QueuedQuery:
    _, _, penalty, priority, compat, _ = op
    return QueuedQuery(
        qid=step, arrival_s=now - penalty, priority=priority, compat=compat
    )


def _apply_queue(queue, op, query, now: float):
    kind = op[0]
    if kind == "offer":
        return queue.offer(query, now)
    if kind == "pop":
        return queue.pop(now)
    if kind == "pop_batch":
        return queue.pop_batch(now, op[2])
    if kind == "expire":
        # the live queue's callers test the policy; the reference's
        # ``_expire`` tests it itself
        if queue.deadline_s is not None:
            queue._expire(now)
        return None
    return queue.take_shed()


def drive(reference, live, ops, apply, state) -> None:
    """One op sequence on both sides, compared after every step."""
    now = 0.0
    for step, op in enumerate(ops):
        if len(op) > 1:
            now += op[1]
        # one query object for both sides, so a NaN stamp compares equal
        # (tuple equality tries identity first)
        query = _query(step, now, op) if op[0] == "offer" else None
        expected = apply(reference, op, query, now)
        got = apply(live, op, query, now)
        assert got == expected, f"step {step} {op}: {got!r} != {expected!r}"
        assert state(live) == state(reference), f"step {step} {op}"
    assert live.take_shed() == reference.take_shed()


def drive_queues(reference, live, ops) -> None:
    """:func:`drive` for two ``AdmissionQueue``-shaped queues."""
    drive(reference, live, ops, _apply_queue, _queue_state)


@settings(max_examples=300, deadline=None)
@given(
    ops=OPS,
    bound=st.integers(1, 5),
    policy=st.sampled_from(POLICIES),
    deadline_s=DEADLINES,
)
def test_admission_queue_matches_full_scan(ops, bound, policy, deadline_s):
    deadline = deadline_s if policy == "deadline" else None
    drive_queues(
        ReferenceAdmissionQueue(bound, policy, deadline),
        AdmissionQueue(bound, policy, deadline),
        ops,
    )


TENANTS = st.lists(
    st.tuples(
        st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        st.integers(1, 4),
        st.sampled_from(POLICIES),
        DEADLINES,
    ),
    min_size=1,
    max_size=3,
)


def _specs(tenants) -> List[TenantQueueSpec]:
    return [
        TenantQueueSpec(
            name=f"t{i}",
            weight=weight,
            bound=bound,
            policy=policy,
            deadline_s=deadline if policy == "deadline" else None,
        )
        for i, (weight, bound, policy, deadline) in enumerate(tenants)
    ]


def _wfq_state(wfq) -> Tuple[Any, ...]:
    """The scheduler's observable state plus every tenant queue's."""
    return (
        wfq.ledger(),
        len(wfq),
        wfq.depth,
        wfq.conserved(),
        wfq._cursor,
        wfq._charged,
        dict(wfq._deficit),
        [_queue_state(wfq._queues[name]) for name in wfq._order],
    )


def _apply_wfq(wfq, op, query, now: float):
    kind = op[0]
    if kind == "offer":
        tenant = wfq._order[op[5] % len(wfq._order)]
        return wfq.offer(tenant, query, now)
    if kind == "pop":
        return wfq.pop_batch(now, 1)
    if kind == "pop_batch":
        return wfq.pop_batch(now, op[2])
    if kind == "expire":
        wfq._sweep(now)
        return None
    return wfq.take_shed()


def _pending_matches_logs(wfq) -> bool:
    """The pending-shed count is exactly what the tenant logs hold."""
    return wfq._shed_pending == sum(
        len(queue._shed_log) for queue in wfq._queues.values()
    )


def drive_wfqs(reference, live, ops) -> None:
    """:func:`drive` for two ``WeightedFairQueue``-shaped schedulers,
    checking the live pending-shed count after every step."""

    def apply(wfq, op, query, now):
        got = _apply_wfq(wfq, op, query, now)
        if wfq is live:
            assert _pending_matches_logs(live), f"{op}: pending count"
        return got

    drive(reference, live, ops, apply, _wfq_state)
    assert live._shed_pending == 0


@settings(max_examples=300, deadline=None)
@given(ops=OPS, tenants=TENANTS, quantum=st.sampled_from([0.5, 1.0, 2.0]))
def test_weighted_fair_queue_matches_full_scan(ops, tenants, quantum):
    specs = _specs(tenants)
    drive_wfqs(
        ReferenceWeightedFairQueue(specs, quantum),
        WeightedFairQueue(specs, quantum),
        ops,
    )


def test_long_sequences_shed_every_way():
    """Seeded long runs reach every shedding path the oracle compares."""
    import random

    rng = random.Random(7)
    steps = (0.0, 0.25, 0.5, 1.0)
    seen = AdmissionCounters()
    for policy in POLICIES:
        deadline = 1.0 if policy == "deadline" else None
        ops = []
        for _ in range(2000):
            roll = rng.random()
            step = rng.choice(steps) if rng.random() < 0.5 else rng.uniform(-0.2, 0.6)
            if roll < 0.6:
                ops.append((
                    "offer", step, rng.uniform(-0.5, 1.5),
                    rng.randrange(3), rng.choice("ab"), rng.randrange(3),
                ))
            elif roll < 0.75:
                ops.append(("pop", step))
            elif roll < 0.9:
                ops.append(("pop_batch", step, rng.randint(1, 4)))
            elif roll < 0.95:
                ops.append(("expire", step))
            else:
                ops.append(("take_shed",))
        live = AdmissionQueue(4, policy, deadline)
        drive_queues(ReferenceAdmissionQueue(4, policy, deadline), live, ops)
        specs = _specs([(1.0, 3, policy, 1.0), (2.0, 2, "deadline", 0.5)])
        drive_wfqs(
            ReferenceWeightedFairQueue(specs), WeightedFairQueue(specs), ops
        )
        for name in ("rejected", "evicted", "expired", "popped"):
            setattr(seen, name, getattr(seen, name) + getattr(live.counters, name))
    assert seen.rejected and seen.evicted and seen.expired and seen.popped
