"""Deterministic diurnal trace generation for multi-tenant days.

Each tenant's day is a **non-homogeneous Poisson process** with rate

    rate(t) = base_qps * (1 + amplitude * sin(2*pi*(t/day - phase)))

realized by thinning (candidates at the crest rate, accepted with
probability ``rate(t)/crest``), plus one extra thinned process per
:class:`~repro.tenancy.spec.BurstSpec` contributing
``(multiplier - 1) * rate(t)`` inside its window — so during a burst
the tenant offers exactly ``multiplier`` times its diurnal rate.

Every process draws from its **own** seeded rng domain
(``default_rng([seed, tenant_index, domain, ...])``), and each
process's attribute marks (app, read/write, intent, row key) come from
the same domain as its arrival times.  Two properties fall out, and
the suite pins both:

* **determinism** — the same ``(config, seed)`` yields a bit-identical
  trace;
* **surgical removal** — deleting one tenant (or one burst) leaves
  every other arrival byte-identical, which is what makes the paired
  noisy-neighbor runs in :mod:`repro.tenancy.day` an *isolation*
  measurement rather than a rerolled coincidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.tenancy.spec import BurstSpec, TenancyConfig, TenantSpec
from repro.workloads.queries import ZipfSampler

#: rng sub-domains (third element of the seed sequence)
_DOMAIN_BASE = 0
_DOMAIN_BURST = 1


@dataclass(slots=True)
class TenantArrival:
    """One request in a multi-tenant day trace.

    Slotted, one per generated arrival; never hashed, and never changed
    once built.
    """

    time_s: float
    tenant: str
    #: SCN application this request runs against
    app: str
    #: ``"query"`` or ``"ingest"``
    kind: str
    #: tenant-local query intent (Zipf-ranked; -1 for writes)
    intent: int
    #: ingested row key (drives shard routing; -1 for reads)
    key: int
    #: True when this arrival came from a burst process
    burst: bool


def diurnal_rate(spec: TenantSpec, t_s: float, day_s: float) -> float:
    """The tenant's instantaneous offered rate at ``t_s``."""
    phase_angle = 2.0 * math.pi * (t_s / day_s - spec.phase)
    return spec.base_qps * max(
        0.0, 1.0 + spec.amplitude * math.sin(phase_angle)
    )


def _thinned_process(
    spec: TenantSpec,
    day_s: float,
    crest: float,
    window: Tuple[float, float],
    scale: float,
    rng: np.random.Generator,
    burst: bool,
) -> List[TenantArrival]:
    """One thinned Poisson process over ``window`` at ``scale * rate(t)``.

    Candidates arrive at ``scale * crest``; each is kept with
    probability ``rate(t) / crest`` and, if kept, marked (app, kind,
    intent, key) from the **same** rng — one process, one domain, so
    the whole process vanishes cleanly when its window is removed.
    """
    start, end = window
    envelope = scale * crest
    if envelope <= 0.0 or end <= start:
        return []
    apps = [app for app, _f in spec.apps]
    app_probs = np.array([f for _a, f in spec.apps], dtype=np.float64)
    app_probs = app_probs / app_probs.sum()
    intent_sampler = ZipfSampler(
        spec.n_intents, spec.zipf_alpha,
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    key_sampler = ZipfSampler(
        spec.ingest_key_universe, spec.ingest_key_alpha,
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    out: List[TenantArrival] = []
    t = start
    while True:
        t += float(rng.exponential(1.0 / envelope))
        if t >= end:
            break
        accept = float(rng.random())
        if accept * crest > diurnal_rate(spec, t, day_s):
            continue
        is_write = (
            spec.write_fraction > 0.0
            and float(rng.random()) < spec.write_fraction
        )
        if is_write:
            out.append(TenantArrival(
                time_s=t, tenant=spec.name, app=apps[0], kind="ingest",
                intent=-1, key=int(key_sampler.sample(1)[0]), burst=burst,
            ))
        else:
            app = apps[int(rng.choice(len(apps), p=app_probs))]
            out.append(TenantArrival(
                time_s=t, tenant=spec.name, app=app, kind="query",
                intent=int(intent_sampler.sample(1)[0]), key=-1,
                burst=burst,
            ))
    return out


def tenant_day(
    spec: TenantSpec,
    tenant_index: int,
    day_s: float,
    seed: int,
    include_bursts: bool = True,
) -> List[TenantArrival]:
    """One tenant's full day: diurnal base plus its burst processes.

    ``tenant_index`` is the tenant's position in the scenario's tuple;
    it keys the rng domain, so reordering the tenant list (unlike
    removing a tenant from the *end* or filtering arrivals afterward)
    is a different experiment.
    """
    crest = spec.base_qps * (1.0 + spec.amplitude)
    arrivals = _thinned_process(
        spec, day_s, crest, (0.0, day_s), 1.0,
        np.random.default_rng([seed, tenant_index, _DOMAIN_BASE]),
        burst=False,
    )
    if include_bursts:
        for bi, burst in enumerate(spec.bursts):
            arrivals.extend(_thinned_process(
                spec, day_s, crest, burst.window_s(day_s),
                burst.multiplier - 1.0,
                np.random.default_rng(
                    [seed, tenant_index, _DOMAIN_BURST, bi]
                ),
                burst=True,
            ))
    arrivals.sort(key=lambda a: a.time_s)
    return arrivals


def generate_day(
    config: TenancyConfig,
    exclude: Tuple[str, ...] = (),
    strip_bursts_of: Tuple[str, ...] = (),
) -> List[TenantArrival]:
    """The whole scenario's merged, time-sorted day trace.

    ``exclude`` drops whole tenants; ``strip_bursts_of`` keeps a
    tenant's diurnal base but removes its burst processes.  Every
    remaining arrival is byte-identical to the unfiltered trace — the
    rng-domain separation makes both knobs surgical.
    """
    merged: List[TenantArrival] = []
    for index, spec in enumerate(config.tenants):
        if spec.name in exclude:
            continue
        merged.extend(tenant_day(
            spec, index, config.day_s, config.seed,
            include_bursts=spec.name not in strip_bursts_of,
        ))
    merged.sort(key=lambda a: (a.time_s, a.tenant))
    return merged


def offered_summary(
    arrivals: List[TenantArrival],
) -> Dict[str, Dict[str, int]]:
    """Per-tenant offered counts: total, queries, writes, burst share."""
    out: Dict[str, Dict[str, int]] = {}
    for a in arrivals:
        row = out.setdefault(a.tenant, {
            "offered": 0, "queries": 0, "writes": 0, "burst": 0,
        })
        row["offered"] += 1
        if a.kind == "ingest":
            row["writes"] += 1
        else:
            row["queries"] += 1
        if a.burst:
            row["burst"] += 1
    return out


def peak_window_qps(
    arrivals: List[TenantArrival],
    window_s: float = 600.0,
) -> float:
    """Highest arrival rate seen over any aligned ``window_s`` bucket."""
    if not arrivals or window_s <= 0:
        return 0.0
    counts: Dict[int, int] = {}
    for a in arrivals:
        bucket = int(a.time_s // window_s)
        counts[bucket] = counts.get(bucket, 0) + 1
    return max(counts.values()) / window_s


def aggressor_of(config: TenancyConfig) -> Optional[str]:
    """The scenario's noisy neighbor: the tenant with burst processes
    (ties broken by highest peak rate); None when nobody bursts."""
    bursty = [t for t in config.tenants if t.bursts]
    if not bursty:
        return None
    return max(bursty, key=lambda t: t.peak_qps()).name


__all__ = [
    "BurstSpec",
    "TenantArrival",
    "aggressor_of",
    "diurnal_rate",
    "generate_day",
    "offered_summary",
    "peak_window_qps",
    "tenant_day",
]
