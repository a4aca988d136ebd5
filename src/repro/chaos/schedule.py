"""Scripted fault schedules on the simulated clock.

A :class:`ChaosSchedule` is a declarative, time-ordered list of
:class:`ChaosEvent` records — crash-restarts of the durable store,
replica kills/restarts (correlated or independent), and ingest bursts
that drive GC pressure.  Like :class:`~repro.faults.plan.FaultPlan` it
holds *no randomness*: :meth:`ChaosSchedule.generate` derives every
event time and target from :func:`repro.faults.crash_time_unit`, a
dedicated hash domain of the faults seed, so

* the same ``(seed, knobs)`` always produces the same production day,
  and
* merging a chaos schedule into a fault plan can never reshuffle the
  read-retry / CRC / program-fail draw streams (they live in domains
  1–8; chaos draws live in domain 10) — the byte-stability the
  satellite test asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.faults.injector import crash_time_unit
from repro.faults.plan import FaultPlan

#: event kinds a schedule may carry
CHAOS_KINDS = ("crash", "kill", "restart", "burst")

#: sub-domain tags inside the crash-time hash domain, one per draw use
_DRAW_CRASH = 1
_DRAW_KILL_TIME = 2
_DRAW_KILL_SHARD = 3
_DRAW_KILL_REPLICA = 4
_DRAW_OUTAGE = 5
_DRAW_BURST = 6


class ChaosError(RuntimeError):
    """Raised for malformed chaos schedules."""


@dataclass(frozen=True)
class ChaosEvent:
    """One scripted fault at one simulated time."""

    at_s: float
    #: ``crash`` | ``kill`` | ``restart`` | ``burst``
    kind: str
    shard: int = -1
    replica: int = -1
    #: rows to ingest for ``burst`` events
    rows: int = 0

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ChaosError(f"unknown chaos kind {self.kind!r}")
        if self.at_s < 0:
            raise ChaosError("event time cannot be negative")
        if self.kind in ("kill", "restart") and (
            self.shard < 0 or self.replica < 0
        ):
            raise ChaosError(f"{self.kind} events need shard and replica")
        if self.kind == "burst" and self.rows <= 0:
            raise ChaosError("burst events need a positive row count")


@dataclass(frozen=True)
class ChaosSchedule:
    """A time-ordered fault script for one run."""

    events: Tuple[ChaosEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.at_s, CHAOS_KINDS.index(e.kind)))
        )
        object.__setattr__(self, "events", ordered)

    # ------------------------------------------------------------------
    def of_kind(self, kind: str) -> Tuple[ChaosEvent, ...]:
        """All events of one kind, in time order."""
        if kind not in CHAOS_KINDS:
            raise ChaosError(f"unknown chaos kind {kind!r}")
        return tuple(e for e in self.events if e.kind == kind)

    def due(self, after_s: float, through_s: float) -> Tuple[ChaosEvent, ...]:
        """Events with ``after_s < at_s <= through_s``, in order."""
        return tuple(
            e for e in self.events if after_s < e.at_s <= through_s
        )

    def counts(self) -> Dict[str, int]:
        """Event count per kind (zero entries included)."""
        return {kind: len(self.of_kind(kind)) for kind in CHAOS_KINDS}

    def describe(self) -> str:
        """Human-readable one-line summary of the day."""
        counts = self.counts()
        parts = [f"{n} {kind}(s)" for kind, n in counts.items() if n]
        return ", ".join(parts) if parts else "empty schedule"

    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        duration_s: float,
        n_shards: int = 0,
        n_replicas: int = 1,
        crashes: int = 0,
        kills: int = 0,
        bursts: int = 0,
        outage_s: float = 0.0,
        burst_rows: int = 8,
        correlated: int = 1,
    ) -> "ChaosSchedule":
        """A deterministic production day.

        ``crashes`` crash-restarts of the durable store, ``kills``
        replica outages (each healing after ``outage_s`` when positive;
        permanent otherwise), and ``bursts`` ingest bursts of
        ``burst_rows`` rows.  ``correlated > 1`` makes each kill event
        take down that many replicas *at the same drawn instant* — the
        correlated-failure storms the scorecard measures MTTR under.
        Every draw comes from the dedicated crash-time hash domain.
        """
        if duration_s <= 0:
            raise ChaosError("duration_s must be positive")
        if correlated < 1:
            raise ChaosError("correlated must be at least 1")
        if (kills or correlated > 1) and kills and n_shards <= 0:
            raise ChaosError("kills need n_shards")
        events: List[ChaosEvent] = []
        for i in range(crashes):
            at = duration_s * crash_time_unit(seed, _DRAW_CRASH, i)
            events.append(ChaosEvent(at_s=at, kind="crash"))
        for i in range(kills):
            at = duration_s * crash_time_unit(seed, _DRAW_KILL_TIME, i)
            for j in range(correlated):
                shard = int(
                    n_shards * crash_time_unit(seed, _DRAW_KILL_SHARD, i, j)
                ) % n_shards
                replica = int(
                    n_replicas
                    * crash_time_unit(seed, _DRAW_KILL_REPLICA, i, j)
                ) % n_replicas
                if any(
                    e.kind == "kill"
                    and e.at_s == at
                    and e.shard == shard
                    and e.replica == replica
                    for e in events
                ):
                    continue  # same draw twice in one storm: keep one
                events.append(
                    ChaosEvent(
                        at_s=at, kind="kill", shard=shard, replica=replica
                    )
                )
                if outage_s > 0.0:
                    heal = outage_s * (
                        0.5 + crash_time_unit(seed, _DRAW_OUTAGE, i, j)
                    )
                    events.append(
                        ChaosEvent(
                            at_s=at + heal,
                            kind="restart",
                            shard=shard,
                            replica=replica,
                        )
                    )
        for i in range(bursts):
            at = duration_s * crash_time_unit(seed, _DRAW_BURST, i)
            events.append(
                ChaosEvent(at_s=at, kind="burst", rows=burst_rows)
            )
        return cls(events=tuple(events))
