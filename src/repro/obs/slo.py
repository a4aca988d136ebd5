"""SLO monitoring over the DES timeline: windows, burn rates, alerts.

An :class:`SloMonitor` watches a stream of per-class service events
(``record(slo, at_s, latency_s=...)`` from the serving loop or the
chaos harness) and does three things, all in simulated time:

* samples per-SLO gauges (good fraction, event count, bad count) into
  :meth:`~repro.obs.metrics.MetricsRegistry.timeseries` series at fixed
  ``sample_interval_s`` boundaries, so dashboards get a windowed
  time-series view of each class;
* evaluates declarative :class:`BurnRateRule`\\ s at those boundaries —
  a rule fires an :class:`Alert` when the **error-budget burn rate**
  (bad fraction over the rule's window, divided by the SLO's budget
  ``1 - target``) exceeds its threshold, with hysteresis: an active
  alert re-arms only after a boundary where the burn drops back under
  the threshold;
* keeps whole-run error-budget accounting per SLO for the final
  :meth:`report`.

Evaluation rides on the recording stream: a boundary ``b`` is
evaluated as soon as a record arrives with ``at_s > b`` (events reach
the monitor in nondecreasing DES order, so by then every event at or
before ``b`` has been seen), and :meth:`finish` flushes the remaining
boundaries.  The monitor never schedules simulator events — the
zero-perturbation contract the rest of :mod:`repro.obs` keeps.

During chaos days the interesting number is **alert latency**: the gap
between the first injected fault and the first fired alert.  The chaos
harness computes it from :attr:`SloMonitor.alerts`, and it is the new
column on the PR 6 kill-storm scorecard.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over a class of events.

    ``target`` is the fraction of events that must be *good*; an event
    is bad when its latency exceeds ``latency_threshold_s`` (when set)
    or when the recorder says so explicitly (``good=False`` — sheds,
    failures, partial results).
    """

    name: str
    target: float = 0.99
    latency_threshold_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1) — the error "
                             "budget 1-target must be positive")

    @property
    def budget(self) -> float:
        """Allowed bad fraction (``1 - target``)."""
        return 1.0 - self.target


@dataclass(frozen=True)
class BurnRateRule:
    """Fire when an SLO burns its budget ``burn_threshold`` x too fast.

    Burn rate is the classic SRE multiple: ``(bad/total) / budget``
    over the trailing ``window_s``.  1.0 means the budget is being
    spent exactly at the sustainable rate; 2.0 means twice too fast.
    ``min_events`` suppresses evaluation on windows too thin to mean
    anything.
    """

    name: str
    slo: str
    window_s: float
    burn_threshold: float = 2.0
    min_events: int = 1

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be positive")
        if self.min_events < 1:
            raise ValueError("min_events must be >= 1")


@dataclass(frozen=True)
class Alert:
    """One burn-rate rule firing at one evaluation boundary."""

    rule: str
    slo: str
    at_s: float
    burn_rate: float
    bad: int
    total: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of one fired alert."""
        return {
            "rule": self.rule,
            "slo": self.slo,
            "at_s": self.at_s,
            "burn_rate": self.burn_rate,
            "bad": self.bad,
            "total": self.total,
        }


class SloMonitor:
    """Windowed SLO evaluation over a nondecreasing event stream."""

    def __init__(
        self,
        specs: Sequence[SloSpec],
        rules: Sequence[BurnRateRule] = (),
        registry: Optional[MetricsRegistry] = None,
        sample_interval_s: float = 0.05,
    ) -> None:
        if sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive")
        self.specs: Dict[str, SloSpec] = {}
        for spec in specs:
            if spec.name in self.specs:
                raise ValueError(f"duplicate SLO {spec.name!r}")
            self.specs[spec.name] = spec
        for rule in rules:
            if rule.slo not in self.specs:
                raise ValueError(
                    f"rule {rule.name!r} references unknown SLO {rule.slo!r}"
                )
        self.rules: Tuple[BurnRateRule, ...] = tuple(rules)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sample_interval_s = sample_interval_s
        #: effective evaluation window per rule.  Evaluation happens only
        #: at fixed ``sample_interval_s`` boundaries, so a window shorter
        #: than the interval would look at a sliver of each interval and
        #: could *never* see events landing in the rest of it — bad
        #: events would sail past without an alert.  Clamp (and warn):
        #: the shortest honest window is one full sample interval.
        self._rule_window_s: Dict[str, float] = {}
        for rule in rules:
            window = rule.window_s
            if window < sample_interval_s:
                warnings.warn(
                    f"burn-rate rule {rule.name!r}: window_s={window} is "
                    f"shorter than sample_interval_s={sample_interval_s}; "
                    f"clamping to the sample interval (sub-interval "
                    f"windows cannot observe every event)",
                    stacklevel=2,
                )
                window = sample_interval_s
            self._rule_window_s[rule.name] = window
        self.alerts: List[Alert] = []
        #: per-SLO ``(latency threshold, times, bad prefix)``: the event
        #: log as parallel arrays in nondecreasing time order, with a
        #: cumulative bad count — windowed (bad, total) queries are then
        #: two bisects + a prefix-sum difference instead of a scan over
        #: the whole run (24 h diurnal traces evaluate thousands of
        #: boundaries over tens of thousands of events; the scan was
        #: quadratic in the day length).  The threshold rides along so
        #: ``record`` needs one lookup per event
        self._logs: Dict[
            str, Tuple[Optional[float], List[float], List[int]]
        ] = {
            name: (spec.latency_threshold_s, [], [])
            for name, spec in self.specs.items()
        }
        self._active: Dict[str, bool] = {rule.name: False for rule in rules}
        self._boundaries_done = 0
        #: the first boundary not yet evaluated, as ``_advance`` computes
        #: it; a record at or before it has no boundary to evaluate
        self._next_boundary_s = sample_interval_s
        self._last_t = 0.0

    # ------------------------------------------------------------------
    def record(
        self,
        slo: str,
        at_s: float,
        latency_s: Optional[float] = None,
        good: Optional[bool] = None,
    ) -> None:
        """Feed one service event; unknown SLO names are ignored.

        Ignoring unknowns lets an instrumented component record its
        classes unconditionally while the monitor's owner decides which
        ones carry objectives.
        """
        log = self._logs.get(slo)
        if log is None:
            return
        threshold, times, prefix = log
        if times and at_s < times[-1]:
            raise ValueError(
                f"SLO events must arrive in nondecreasing time order: "
                f"got {at_s} after {times[-1]}"
            )
        if good is None:
            good = (
                threshold is None
                or latency_s is None
                or latency_s <= threshold
            )
        # evaluate every boundary strictly before this event's time:
        # events arrive in DES order, so those windows are complete
        if self._next_boundary_s < at_s:
            self._advance(at_s)
        if at_s > self._last_t:
            self._last_t = at_s
        times.append(at_s)
        prefix.append((prefix[-1] if prefix else 0) + (0 if good else 1))

    def finish(self, end_s: Optional[float] = None) -> None:
        """Flush evaluation through ``end_s`` (default: last event)."""
        end = self._last_t if end_s is None else max(end_s, self._last_t)
        # include a boundary landing exactly on the end time
        self._advance(end + self.sample_interval_s)

    # ------------------------------------------------------------------
    def _advance(self, now_s: float) -> None:
        """Evaluate all fixed boundaries strictly before ``now_s``."""
        interval = self.sample_interval_s
        while (self._boundaries_done + 1) * interval < now_s:
            self._boundaries_done += 1
            self._evaluate(self._boundaries_done * interval)
        self._next_boundary_s = (self._boundaries_done + 1) * interval

    def window_counts(
        self, slo: str, at_s: float, window_s: float
    ) -> Tuple[int, int]:
        """(bad, total) over the half-open window ``(at_s - w, at_s]``.

        Public so consumers driving control loops off the monitor (the
        tenancy autoscaler reads per-tenant burn rates this way) share
        the exact accounting the alert rules use.
        """
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if slo not in self.specs:
            raise ValueError(f"unknown SLO {slo!r}")
        _, times, prefix = self._logs[slo]
        lo = bisect_right(times, at_s - window_s)
        hi = bisect_right(times, at_s)
        if hi <= lo:
            return 0, 0
        bad = prefix[hi - 1] - (prefix[lo - 1] if lo > 0 else 0)
        return bad, hi - lo

    def burn_rate(self, slo: str, at_s: float, window_s: float) -> float:
        """Error-budget burn multiple over the trailing window (0 when
        the window holds no events)."""
        bad, total = self.window_counts(slo, at_s, window_s)
        if total == 0:
            return 0.0
        return (bad / total) / self.specs[slo].budget

    def _evaluate(self, at_s: float) -> None:
        for name, spec in self.specs.items():
            bad, total = self.window_counts(name, at_s, self.sample_interval_s)
            good_fraction = 1.0 if total == 0 else (total - bad) / total
            self.registry.timeseries(
                f"slo.{name}.good_fraction", self.sample_interval_s
            ).sample(at_s, good_fraction)
            self.registry.timeseries(
                f"slo.{name}.events", self.sample_interval_s
            ).sample(at_s, float(total))
            self.registry.timeseries(
                f"slo.{name}.bad", self.sample_interval_s
            ).sample(at_s, float(bad))
        for rule in self.rules:
            spec = self.specs[rule.slo]
            bad, total = self.window_counts(
                rule.slo, at_s, self._rule_window_s[rule.name]
            )
            if total < rule.min_events:
                continue
            burn = (bad / total) / spec.budget
            if burn > rule.burn_threshold:
                if not self._active[rule.name]:
                    self._active[rule.name] = True
                    self.alerts.append(Alert(
                        rule=rule.name, slo=rule.slo, at_s=at_s,
                        burn_rate=burn, bad=bad, total=total,
                    ))
            else:
                # hysteresis: a quiet boundary re-arms the rule
                self._active[rule.name] = False

    # ------------------------------------------------------------------
    def first_alert_at(self, after_s: float = 0.0) -> Optional[float]:
        """Time of the first alert at or after ``after_s`` (None: never)."""
        for alert in self.alerts:
            if alert.at_s >= after_s:
                return alert.at_s
        return None

    def error_budget(self, slo: str) -> Dict[str, object]:
        """Whole-run budget accounting for one SLO."""
        spec = self.specs[slo]
        prefix = self._logs[slo][2]
        total = len(prefix)
        bad = prefix[-1] if prefix else 0
        bad_fraction = bad / total if total else 0.0
        # fraction of the allowed bad budget still unspent (can go
        # negative: the SLO was violated)
        remaining = 1.0 - bad_fraction / spec.budget if total else 1.0
        return {
            "target": spec.target,
            "events": total,
            "bad": bad,
            "good_fraction": 1.0 - bad_fraction,
            "budget_remaining": remaining,
            "violated": bad_fraction > spec.budget,
        }

    def report(self) -> Dict[str, object]:
        """JSON-ready summary: per-SLO budgets + the alert log."""
        return {
            "sample_interval_s": self.sample_interval_s,
            "boundaries": self._boundaries_done,
            "slos": {name: self.error_budget(name) for name in self.specs},
            "rules": [
                {
                    "name": rule.name,
                    "slo": rule.slo,
                    "window_s": rule.window_s,
                    "burn_threshold": rule.burn_threshold,
                }
                for rule in self.rules
            ],
            "alerts": [alert.to_dict() for alert in self.alerts],
        }


def default_chaos_monitor(
    duration_s: float,
    registry: Optional[MetricsRegistry] = None,
    latency_threshold_s: Optional[float] = None,
) -> SloMonitor:
    """The chaos harness's stock monitor: availability + latency SLOs.

    Windows scale with the chaos day so a handful of kill-storm queries
    still populate them: sampling at ~1/20th of the day, burn windows
    at ~1/10th.
    """
    interval = duration_s / 20.0
    specs = [
        SloSpec("availability", target=0.9),
        SloSpec("latency", target=0.9,
                latency_threshold_s=latency_threshold_s),
    ]
    rules = [
        BurnRateRule("availability-fast-burn", "availability",
                     window_s=duration_s / 10.0, burn_threshold=1.0),
        BurnRateRule("latency-fast-burn", "latency",
                     window_s=duration_s / 10.0, burn_threshold=1.0),
    ]
    return SloMonitor(specs, rules, registry=registry,
                      sample_interval_s=interval)
