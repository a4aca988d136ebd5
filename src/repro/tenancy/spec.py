"""Tenant workload classes and the production-day configuration.

The serving layer models one anonymous Poisson stream; "millions of
users" means **tenants** — each with its own popularity skew, SCN app
mix, arrival shape, and deadline expectations, all competing for the
same in-storage accelerator capacity.  This module is the declarative
half of the control plane:

* :class:`TenantSpec` — one tenant's workload class: diurnal arrival
  process (base rate, sinusoid amplitude/phase), Zipf intent skew, an
  app mix over the paper's five SCN applications, a write fraction for
  live ingest, a fair-share ``weight``, and a **deadline class**
  (interactive / standard / batch) that fixes its latency SLO and
  queue policy;
* :class:`BurstSpec` — a flash-crowd window: during
  ``[start_fraction, start_fraction + duration_fraction)`` of the day
  the tenant offers ``multiplier`` times its diurnal rate (the extra
  arrivals are generated from their own seeded stream, so removing a
  burst leaves every other arrival byte-identical — the property the
  noisy-neighbor isolation methodology stands on);
* :class:`TenancyConfig` — the whole scenario: the tenant set, the
  shared sharded backend, the day length, the scripted shard failure,
  ingest-rebalance pricing, and the autoscaler configuration.

Everything validates up front (the established ``ServingConfig``
discipline) so a bad scenario fails at construction, not hours into a
simulated day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.api import check_counts, is_real
from repro.tenancy.autoscale import AutoscalerConfig

#: recognized deadline classes and their (latency SLO seconds,
#: SLO target, queue policy, queue deadline) presets.  Interactive
#: tenants shed stale queries at twice their SLO (an answer that late
#: is an answer wasted); batch tenants never shed on staleness.
DEADLINE_CLASSES: Dict[str, Dict[str, object]] = {
    "interactive": {
        "latency_slo_s": 2.5,
        "slo_target": 0.99,
        "policy": "deadline",
        "deadline_factor": 2.0,
    },
    "standard": {
        "latency_slo_s": 4.0,
        "slo_target": 0.95,
        "policy": "reject",
        "deadline_factor": None,
    },
    "batch": {
        "latency_slo_s": 30.0,
        "slo_target": 0.9,
        "policy": "reject",
        "deadline_factor": None,
    },
}

#: the apps a tenant mix may reference (mirrors workloads.apps)
KNOWN_APPS = ("reid", "mir", "estp", "tir", "textqa")


@dataclass(frozen=True)
class BurstSpec:
    """One flash-crowd window inside a tenant's day.

    During the window the tenant's offered rate is ``multiplier`` times
    its diurnal rate.  The extra arrivals are generated from a burst-
    local seeded stream, entirely inside the window — so a burst can be
    stripped without perturbing any other arrival (paired-run isolation
    measurements depend on this).
    """

    start_fraction: float
    duration_fraction: float
    multiplier: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_fraction < 1.0:
            raise ValueError("start_fraction must be in [0, 1)")
        if self.duration_fraction <= 0:
            raise ValueError("duration_fraction must be positive")
        if self.start_fraction + self.duration_fraction > 1.0:
            raise ValueError("burst window must end within the day")
        if self.multiplier <= 1.0:
            raise ValueError("multiplier must exceed 1.0 (it scales the "
                             "base rate; 1.0 would add nothing)")

    def window_s(self, day_s: float) -> Tuple[float, float]:
        """The burst's [start, end) in simulated seconds."""
        return (
            self.start_fraction * day_s,
            (self.start_fraction + self.duration_fraction) * day_s,
        )


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's workload class and service expectations."""

    name: str
    #: fair-share weight for deficit-round-robin admission
    weight: float = 1.0
    #: mean offered rate at the diurnal midline (queries/second)
    base_qps: float = 0.1
    #: sinusoid swing as a fraction of base rate, in [0, 1)
    amplitude: float = 0.5
    #: fraction of the day by which this tenant's peak is offset
    phase: float = 0.0
    #: SCN app mix: (app, fraction) pairs summing to 1
    apps: Tuple[Tuple[str, float], ...] = (("tir", 1.0),)
    #: Zipf popularity skew over the tenant's query intents
    zipf_alpha: float = 0.8
    n_intents: int = 64
    #: fraction of arrivals that are ingest writes (live mutation)
    write_fraction: float = 0.0
    #: Zipf skew of ingest row keys (drives per-shard ingest skew)
    ingest_key_alpha: float = 0.0
    ingest_key_universe: int = 4096
    #: deadline class: interactive / standard / batch
    deadline_class: str = "standard"
    #: per-tenant admission-queue bound (isolation: one tenant's
    #: backlog can never occupy another tenant's slots)
    queue_bound: int = 64
    bursts: Tuple[BurstSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a nonempty name")

        def bad(message: str) -> ValueError:
            return ValueError(f"tenant {self.name!r}: {message}")

        check_counts(self, (
            ("n_intents", 1), ("ingest_key_universe", 1), ("queue_bound", 1),
        ), bad)
        # each test is written so that NaN, bools and strings fail it
        unit = "in [0, 1)"
        for name, ok, rule in (
            ("weight", is_real(self.weight, 0.0), "positive"),
            ("base_qps", is_real(self.base_qps, 0.0), "positive"),
            ("amplitude", is_real(self.amplitude) and 0 <= self.amplitude < 1,
             f"{unit} (>= 1 would drive the rate negative)"),
            ("phase", is_real(self.phase) and 0 <= self.phase < 1, unit),
            ("write_fraction",
             is_real(self.write_fraction) and 0 <= self.write_fraction < 1, unit),
            ("zipf_alpha", is_real(self.zipf_alpha) and 0 <= self.zipf_alpha < math.inf,
             "finite and >= 0"),
            ("ingest_key_alpha",
             is_real(self.ingest_key_alpha) and 0 <= self.ingest_key_alpha < math.inf,
             "finite and >= 0"),
        ):
            if not ok:
                raise bad(f"{name} must be {rule}, got {getattr(self, name)!r}")
        if not self.apps:
            raise bad("empty app mix")
        total = 0.0
        for app, fraction in self.apps:
            if app not in KNOWN_APPS:
                raise bad(f"unknown app {app!r}; expected one of {KNOWN_APPS}")
            if not is_real(fraction, 0.0):
                raise bad("app fractions must be positive")
            total += fraction
        if abs(total - 1.0) > 1e-9:
            raise bad(f"app-mix fractions sum to {total}, expected 1.0")
        if self.deadline_class not in DEADLINE_CLASSES:
            raise bad(
                f"unknown deadline class {self.deadline_class!r}; "
                f"expected one of {tuple(DEADLINE_CLASSES)}"
            )

    # ------------------------------------------------------------------
    @property
    def latency_slo_s(self) -> float:
        """The deadline class's latency objective."""
        value = DEADLINE_CLASSES[self.deadline_class]["latency_slo_s"]
        return float(value)  # type: ignore[arg-type]

    @property
    def slo_target(self) -> float:
        """The deadline class's good-fraction target."""
        return float(DEADLINE_CLASSES[self.deadline_class]["slo_target"])  # type: ignore[arg-type]

    @property
    def queue_policy(self) -> str:
        """The deadline class's shedding policy."""
        return str(DEADLINE_CLASSES[self.deadline_class]["policy"])

    @property
    def queue_deadline_s(self) -> Optional[float]:
        """Staleness bound for ``deadline``-policy tenants (else None)."""
        factor = DEADLINE_CLASSES[self.deadline_class]["deadline_factor"]
        if factor is None:
            return None
        return self.latency_slo_s * float(factor)  # type: ignore[arg-type]

    @property
    def slo_name(self) -> str:
        """This tenant's SLO identifier on the monitor."""
        return f"tenant.{self.name}"

    def peak_qps(self) -> float:
        """Worst-case offered rate (diurnal crest times any burst)."""
        crest = self.base_qps * (1.0 + self.amplitude)
        boost = max((b.multiplier for b in self.bursts), default=1.0)
        return crest * boost


@dataclass(frozen=True)
class ShardFailureSpec:
    """A scripted shard-replica outage inside the production day."""

    shard: int = 0
    replica: int = 0
    at_fraction: float = 0.5
    #: None: the replica stays dead for the rest of the day
    heal_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if self.shard < 0 or self.replica < 0:
            raise ValueError("shard and replica must be non-negative")
        if not 0.0 <= self.at_fraction < 1.0:
            raise ValueError("at_fraction must be in [0, 1)")
        if self.heal_fraction is not None and (
            self.heal_fraction <= self.at_fraction
            or self.heal_fraction > 1.0
        ):
            raise ValueError(
                "heal_fraction must lie in (at_fraction, 1]"
            )


@dataclass(frozen=True)
class TenancyConfig:
    """One multi-tenant production-day scenario."""

    tenants: Tuple[TenantSpec, ...]
    day_s: float = 86_400.0
    seed: int = 0
    # -- the shared backend ---------------------------------------------
    features: int = 8_000_000
    n_shards: int = 4
    n_replicas: int = 2
    max_batch: int = 8
    #: scan backends at the start of the day (the autoscaler moves this
    #: between its min/max bounds)
    initial_backends: int = 1
    #: DRR quantum scale (service credit added per round per unit weight)
    quantum: float = 1.0
    # -- scripted failure -----------------------------------------------
    failure: Optional[ShardFailureSpec] = None
    # -- autoscaling ----------------------------------------------------
    autoscaler: AutoscalerConfig = field(default_factory=AutoscalerConfig)
    # -- ingest routing & rebalance pricing -----------------------------
    skew_threshold: float = 2.0
    min_inserts: int = 64
    #: DES seconds to move one ingested row during a rebalance
    rebalance_row_seconds: float = 1e-4

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("a tenancy scenario needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        check_counts(self, (
            ("seed", 0), ("features", 1), ("n_shards", 1), ("n_replicas", 1),
            ("max_batch", 1), ("initial_backends", 1), ("min_inserts", 1),
        ))
        for name, bound in (
            ("day_s", 0.0), ("quantum", 0.0), ("skew_threshold", 1.0)
        ):
            value = getattr(self, name)
            if not is_real(value, bound):
                raise ValueError(f"{name} must exceed {bound:g}, got {value!r}")
        if not (is_real(self.rebalance_row_seconds) and self.rebalance_row_seconds >= 0):
            raise ValueError(
                "rebalance_row_seconds must be >= 0, "
                f"got {self.rebalance_row_seconds!r}"
            )
        if not (
            self.autoscaler.min_backends
            <= self.initial_backends
            <= self.autoscaler.max_backends
        ):
            raise ValueError(
                "initial_backends must lie within the autoscaler's "
                "[min_backends, max_backends]"
            )
        if self.failure is not None:
            if self.failure.shard >= self.n_shards:
                raise ValueError("failure.shard out of range")
            if self.failure.replica >= self.n_replicas:
                raise ValueError("failure.replica out of range")
            if self.n_replicas < 2:
                raise ValueError(
                    "a shard failure needs n_replicas >= 2 (with one "
                    "replica the shard would have no live copy to serve)"
                )

    # ------------------------------------------------------------------
    def tenant(self, name: str) -> TenantSpec:
        """Look one tenant up by name."""
        for spec in self.tenants:
            if spec.name == name:
                return spec
        raise KeyError(f"no tenant named {name!r}")

    def distinct_apps(self) -> Tuple[str, ...]:
        """Every app referenced by any tenant's mix, in first-seen order."""
        seen = []
        for spec in self.tenants:
            for app, _fraction in spec.apps:
                if app not in seen:
                    seen.append(app)
        return tuple(seen)
