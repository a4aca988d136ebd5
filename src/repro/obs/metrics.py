"""Named metrics: counters, gauges, and fixed-bucket histograms.

One :class:`MetricsRegistry` per run; components ``counter()`` /
``gauge()`` / ``histogram()`` their instruments out of it by name, so
two components naming the same metric share the same instrument (the
flash controllers all feed ``ssd.page_delivery_s``, the fault injector
feeds ``faults.*``).  The registry replaces the ad-hoc one-off counters
that used to live in :mod:`repro.faults` and
:mod:`repro.analysis.reliability` — those now sit on top of these
primitives.

Histograms use **fixed bucket bounds** so memory stays O(buckets) no
matter how many pages a scan observes, and quantiles use the same
deterministic **nearest-rank** rule the reliability reports always used
(no interpolation; reproducible across platforms).  With bucketed
storage the nearest-rank answer is the upper bound of the bucket the
rank lands in, clamped to the observed max — an upper bound on the true
quantile that is exact whenever the bucket edges resolve the data.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Deterministic nearest-rank percentile (no interpolation).

    Nearest-rank keeps reports reproducible across numpy versions and
    always returns an actually-observed value, which is what a tail SLO
    refers to.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: default histogram bounds: 100 ns .. 10 s, 4 buckets per decade — wide
#: enough for everything from a command overhead to a full-device scan
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** (exp / 4.0) for exp in range(-28, 5)
)


class Counter:
    """A monotonically-increasing (by convention) integer tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the tally."""
        self.value += amount


class Gauge:
    """A point-in-time value; tracks the peak it ever held."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        """Set the current value, updating the recorded peak."""
        self.value = value
        if value > self.peak:
            self.peak = value

    def add(self, delta: float) -> None:
        """Shift the current value by ``delta`` (peak-tracked)."""
        self.set(self.value + delta)


class Histogram:
    """Fixed-bucket histogram with nearest-rank quantiles.

    ``bounds`` are inclusive upper edges; observations above the last
    bound land in an overflow bucket.  ``min``/``max``/``sum`` are exact
    regardless of bucketing.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None):
        self.name = name
        bounds = tuple(bounds) if bounds is not None else DEFAULT_LATENCY_BUCKETS
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be ascending")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 = overflow
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation into its bucket; O(log buckets)."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # bisect over bucket upper edges
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1

    @property
    def mean(self) -> float:
        """Exact mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile resolved to a bucket upper edge.

        Clamped into ``[min, max]`` so degenerate bucketings still
        return an observed-range value.
        """
        if self.count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        if not 0.0 < q <= 100.0:
            raise ValueError("q must be in (0, 100]")
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                edge = self.bounds[i] if i < len(self.bounds) else self.max
                return min(max(edge, self.min), self.max)
        return self.max  # pragma: no cover - unreachable (counts sum)

    @property
    def p50(self) -> float:
        """Median via :meth:`quantile`."""
        return self.quantile(50.0)

    @property
    def p99(self) -> float:
        """99th percentile via :meth:`quantile`."""
        return self.quantile(99.0)

    def as_dict(self) -> Dict[str, float]:
        """Summary snapshot (no raw buckets) for reports and JSON."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p99": self.p99,
        }


class TimeSeries:
    """A gauge sampled over simulated time with windowed queries.

    Samples are ``(time, value)`` pairs appended in nondecreasing time
    order (the DES timeline only moves forward).  :meth:`window` answers
    "what did this gauge read over the last ``window_s`` seconds as of
    ``at_s``" — the primitive the SLO burn-rate rules evaluate.  The
    window is **half-open** ``(at_s - window_s, at_s]``: a sample landing
    exactly on the trailing edge belongs to the *previous* window, one on
    the leading edge to this one, so adjacent windows never double-count
    a boundary sample.
    """

    __slots__ = ("name", "window_s", "samples")

    def __init__(self, name: str, window_s: float):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.name = name
        self.window_s = window_s
        self.samples: List[Tuple[float, float]] = []

    def sample(self, time_s: float, value: float) -> None:
        """Append one ``(time, value)`` sample; times must not regress."""
        if self.samples and time_s < self.samples[-1][0]:
            raise ValueError(
                f"timeseries {self.name!r}: sample time {time_s} regresses "
                f"behind {self.samples[-1][0]}"
            )
        self.samples.append((time_s, value))

    def window(self, at_s: float) -> List[float]:
        """Values sampled in the half-open window ``(at_s - window_s, at_s]``."""
        lo = at_s - self.window_s
        return [v for t, v in self.samples if lo < t <= at_s]

    def last(self) -> Optional[float]:
        """Most recent sampled value (None when empty)."""
        return self.samples[-1][1] if self.samples else None

    def as_dict(self) -> Dict[str, object]:
        """Summary snapshot for reports and JSON."""
        return {
            "window_s": self.window_s,
            "samples": len(self.samples),
            "last": self.last(),
        }


class MetricsRegistry:
    """Get-or-create home for named instruments.

    Names are dotted (``subsystem.metric``); asking for an existing name
    with a different instrument kind is an error — it means two
    components disagree about what the metric is.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, kind, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, *args)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the :class:`Counter` named ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the :class:`Gauge` named ``name``."""
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Get or create the :class:`Histogram` named ``name``.

        ``bounds`` only applies on first creation; later callers share
        the instrument as-is.
        """
        existing = self._metrics.get(name)
        if existing is None:
            return self._get_or_create(name, Histogram, bounds)
        return self._get_or_create(name, Histogram)

    def timeseries(
        self, name: str, window_s: Optional[float] = None
    ) -> TimeSeries:
        """Get or create the :class:`TimeSeries` named ``name``.

        ``window_s`` is required on first creation (it defines the
        instrument); later callers may omit it and share the series
        as-is.
        """
        existing = self._metrics.get(name)
        if existing is None:
            if window_s is None:
                raise ValueError(
                    f"timeseries {name!r} needs window_s at creation"
                )
            return self._get_or_create(name, TimeSeries, window_s)
        return self._get_or_create(name, TimeSeries)

    def names(self) -> List[str]:
        """Sorted names of every registered instrument."""
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view: scalars for counters/gauges, dicts for
        histograms; keys sorted for byte-stable output."""
        out: Dict[str, object] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out[name] = metric.value
            elif isinstance(metric, Gauge):
                out[name] = {"value": metric.value, "peak": metric.peak}
            elif isinstance(metric, TimeSeries):
                out[name] = metric.as_dict()
            else:
                assert isinstance(metric, Histogram)
                out[name] = metric.as_dict()
        return out
