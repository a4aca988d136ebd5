"""Hedged scatter execution over replicated shards.

This is the coordinator's data plane, run as a discrete-event
simulation on :class:`repro.sim.Simulator` so failover ladders, hedge
timers, and result cancellation interleave like they would on a real
host — with the simulator's FIFO same-time tie-break making every run
bit-deterministic.

Per shard the coordinator walks a **failover ladder**: each dead
replica tried before a live one costs the dispatch policy's full
give-up ladder (the coordinator cannot tell "dead" from "slow" until
the timeouts are exhausted), then the first live replica's query runs.
If hedging is enabled and a second live replica exists, a **hedge
timer** arms when the primary launches; if the primary completes
first the timer is cancelled, otherwise the backup replica's query
launches and the first completion wins — the loser's completion event
is cancelled (exercising :meth:`repro.sim.Event.cancel`, which drops
the losing payload's closure immediately).  Only the winner's payload
survives, so a hedge can never double-count a shard's candidates.

Replica runners are **lazy callables**: a backup's query only executes
if its hedge actually fires.

The scatter records nothing itself: each :class:`ShardOutcome` carries
what its leg did (detection, the winner, the cancelled attempts), and
the coordinator renders a traced query's spans from those outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import ClusterError
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator

#: a lazily-invoked replica query: () -> (seconds, payload)
ReplicaRunner = Callable[[], Tuple[float, Any]]


@dataclass(frozen=True)
class ReplicaAttempt:
    """One replica of one shard, in the coordinator's failover order."""

    replica: int
    alive: bool
    #: invoked only if this replica actually launches
    run: ReplicaRunner


@dataclass(frozen=True)
class ShardJob:
    """Everything the scatter loop needs to serve one shard."""

    shard: int
    #: failover order; ``attempts[0]`` is the read-spread primary
    attempts: Tuple[ReplicaAttempt, ...]
    #: give-up ladder paid per dead replica tried before a live one
    detect_seconds: float = 0.0
    #: arm the backup this many seconds after the primary launches
    #: (``None`` disables hedging for this shard)
    hedge_delay: Optional[float] = None
    #: retry-ladder pauses: ``backoff_delays[i]`` is charged after the
    #: ``i``-th dead replica before trying the next rung; running out of
    #: rungs resolves the shard *unavailable*.  ``None`` keeps the
    #: legacy unlimited zero-pause failover walk bit-identical.
    backoff_delays: Optional[Tuple[float, ...]] = None
    #: replicas the circuit breakers refused at dispatch time, as
    #: (replica, breaker state name) — they never reach ``attempts`` but
    #: the query's trace should still show the rejection
    breaker_rejected: Tuple[Tuple[int, str], ...] = ()


@dataclass
class ShardOutcome:
    """What one shard's scatter leg actually did."""

    shard: int
    #: replica whose result was used (``-1`` when unavailable)
    replica: int
    #: simulated time the winning replica launched
    start_s: float
    #: simulated completion time (includes detection + run)
    done_s: float
    #: time burned detecting dead replicas before launching
    detect_s: float = 0.0
    #: retry-ladder pause seconds charged to this leg's latency
    retry_pause_s: float = 0.0
    #: dead replicas skipped before the primary launched
    failovers: int = 0
    #: a hedge request was actually launched
    hedged: bool = False
    #: ... and it beat the primary
    hedge_won: bool = False
    #: no live replica could serve this shard (structured outcome, not
    #: an exception — the gather merges whatever shards did answer)
    unavailable: bool = False
    payload: Any = None
    #: the winning replica's own run time — the exact float its runner
    #: returned, so critical paths can replay ``start + service``
    service_s: float = 0.0
    #: hedge delay on the leg's latency path (only when the hedge won:
    #: the backup could not start before its timer fired)
    hedge_wait_s: float = 0.0
    #: time the winning hedge shaved off the primary's planned
    #: completion (diagnostic; not on the additive path)
    hedge_saved_s: float = 0.0
    #: attempts cancelled when the winner landed at ``done_s``, as
    #: (replica, launch time) in launch order
    cancelled: Tuple[Tuple[int, float], ...] = ()


@dataclass
class ScatterResult:
    """All shard outcomes of one scatter round, shard-ordered."""

    outcomes: List[ShardOutcome]
    #: completion time of the slowest shard (the gather barrier)
    makespan_s: float
    hedges_launched: int = 0
    hedge_wins: int = 0
    failovers: int = 0
    #: shards that resolved unavailable (no live replica in budget)
    unavailable_shards: int = 0

    def payloads(self) -> List[Any]:
        """Winning payload per available shard, shard-ordered."""
        return [o.payload for o in self.outcomes if not o.unavailable]


class _ShardLeg:
    """Per-shard state machine wired into the simulator."""

    def __init__(
        self,
        job: ShardJob,
        sim: Simulator,
        metrics: Optional[MetricsRegistry],
    ) -> None:
        self.job = job
        self.sim = sim
        self.metrics = metrics
        self.outcome: Optional[ShardOutcome] = None
        self._events: Dict[int, Any] = {}  # replica -> completion Event
        self._timer = None
        self._backup: Optional[ReplicaAttempt] = None
        self._detect_s = 0.0
        self._pause_s = 0.0
        self._failovers = 0
        self._hedged = False
        #: replica -> (start, seconds) of launched runs
        self._launched: Dict[int, Tuple[float, float]] = {}

    def launch(self) -> None:
        live: List[ReplicaAttempt] = []
        delays = self.job.backoff_delays
        exhausted = False
        for attempt in self.job.attempts:
            if attempt.alive:
                live.append(attempt)
                continue
            if live:
                continue
            # a dead replica ahead of the primary costs one full
            # detection ladder before the coordinator moves on
            self._detect_s += self.job.detect_seconds
            self._failovers += 1
            if delays is not None:
                # the retry ladder gates the next rung: no pause left
                # (attempt or budget cap) means the shard resolves
                # unavailable instead of walking the order forever
                if self._failovers - 1 < len(delays):
                    self._pause_s += delays[self._failovers - 1]
                else:
                    exhausted = True
                    break
        if exhausted or not live:
            # structured unavailability: the leg completes once the
            # detection (and any retry pauses) has been paid, carrying
            # no payload for the gather to merge
            done = self._detect_s + self._pause_s
            self.outcome = ShardOutcome(
                shard=self.job.shard,
                replica=-1,
                start_s=done,
                done_s=done,
                detect_s=self._detect_s,
                retry_pause_s=self._pause_s,
                failovers=self._failovers,
                unavailable=True,
            )
            if self.metrics is not None:
                self.metrics.counter("cluster.shards_unavailable").inc()
            return
        primary = live[0]
        start = self._detect_s + self._pause_s
        self._start_replica(primary, start)
        if self.job.hedge_delay is not None and len(live) > 1:
            self._backup = live[1]
            self._timer = self.sim.schedule(
                start + self.job.hedge_delay,
                self._fire_hedge,
                label=f"hedge-timer shard{self.job.shard}",
            )

    # ------------------------------------------------------------------
    def _start_replica(self, attempt: ReplicaAttempt, start: float) -> None:
        seconds, payload = attempt.run()
        if seconds < 0:
            raise ClusterError("replica runner returned negative seconds")
        self._events[attempt.replica] = self.sim.schedule(
            start + seconds,
            lambda: self._finish(attempt, start, seconds, payload),
            label=f"shard{self.job.shard} r{attempt.replica} done",
        )
        self._launched[attempt.replica] = (start, seconds)

    def _fire_hedge(self) -> None:
        self._timer = None
        backup = self._backup
        assert backup is not None  # guarded at arm time
        if self.metrics is not None:
            self.metrics.counter("cluster.hedges_launched").inc()
        self._hedged = True
        self._start_replica(backup, self.sim.now)

    def _finish(
        self,
        attempt: ReplicaAttempt,
        start: float,
        seconds: float,
        payload: Any,
    ) -> None:
        # the loser's completion (if outstanding) must never run: its
        # payload closure is released by cancel()
        now = self.sim.now
        cancelled = []
        for replica, event in self._events.items():
            if replica != attempt.replica:
                event.cancel()
                cancelled.append((replica, self._launched[replica][0]))
        self._events.clear()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        hedged = self._hedged
        hedge_won = hedged and self._backup is not None and (
            attempt.replica == self._backup.replica
        )
        if hedge_won and self.metrics is not None:
            self.metrics.counter("cluster.hedge_wins").inc()
        hedge_saved = 0.0
        if hedge_won:
            # how much earlier the hedge landed vs the primary's
            # planned completion (the primary launched first)
            planned = max(
                s + sec for _r, (s, sec) in self._launched.items()
                if _r != attempt.replica
            )
            hedge_saved = max(0.0, planned - now)
        self.outcome = ShardOutcome(
            shard=self.job.shard,
            replica=attempt.replica,
            start_s=start,
            done_s=now,
            detect_s=self._detect_s,
            retry_pause_s=self._pause_s,
            failovers=self._failovers,
            hedged=hedged,
            hedge_won=hedge_won,
            payload=payload,
            service_s=seconds,
            hedge_wait_s=(
                self.job.hedge_delay
                if hedge_won and self.job.hedge_delay is not None
                else 0.0
            ),
            hedge_saved_s=hedge_saved,
            cancelled=tuple(cancelled),
        )


def run_scatter(
    jobs: Sequence[ShardJob],
    metrics: Optional[MetricsRegistry] = None,
) -> ScatterResult:
    """Execute one scatter round; returns shard-ordered outcomes.

    All shards launch at simulated time 0 (the serial fan-out cost is
    the coordinator's, charged separately via
    :meth:`~repro.cluster.config.CoordinatorCosts.scatter_seconds`).
    Completion events are scheduled before hedge timers, so a primary
    finishing exactly at the hedge deadline wins the FIFO tie and no
    hedge launches — deterministic either way.
    """
    if not jobs:
        raise ClusterError("scatter needs at least one shard job")
    sim = Simulator()
    legs = [_ShardLeg(job, sim, metrics) for job in jobs]
    # launch in shard order so seq-based ties resolve by shard id
    for leg in legs:
        leg.launch()
    sim.run()
    outcomes: List[ShardOutcome] = []
    for leg in legs:
        if leg.outcome is None:  # pragma: no cover - defensive
            raise ClusterError(
                f"shard {leg.job.shard} never completed its scatter leg"
            )
        outcomes.append(leg.outcome)
    outcomes.sort(key=lambda o: o.shard)
    if all(o.unavailable for o in outcomes):
        # nothing answered — there is no partial result to return
        raise ClusterError("no shard has a live replica to serve")
    result = ScatterResult(
        outcomes=outcomes,
        makespan_s=max(o.done_s for o in outcomes),
        hedges_launched=sum(1 for o in outcomes if o.hedged),
        hedge_wins=sum(1 for o in outcomes if o.hedge_won),
        failovers=sum(o.failovers for o in outcomes),
        unavailable_shards=sum(1 for o in outcomes if o.unavailable),
    )
    if metrics is not None:
        metrics.counter("cluster.scatters").inc()
        metrics.counter("cluster.failovers").inc(result.failovers)
        metrics.histogram("cluster.scatter_makespan_s").observe(
            result.makespan_s
        )
    return result
