"""The in-storage runtime's query engine (paper §4.7.1).

The query engine is software on the SSD's embedded cores.  Per query it
parses the request, checks the query cache, maps the SCN onto the
accelerators (map), collects and merges their top-K results (reduce), and
DMAs results to the host on ``getResults``.  These are small costs next
to a database scan, but they are real serial overheads — the model keeps
them explicit so cache-hit latencies (which skip the scan) are honest.

The engine is also where runtime robustness lives: accelerators are
programmed with a **dispatch timeout**, retried with exponential backoff
a bounded number of times, and declared dead when the ladder is
exhausted — at which point the query degrades gracefully (the dead
accelerator's stripe is remapped onto survivors, see
:mod:`repro.core.scheduler`) instead of hanging or failing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ssd.timing import SsdConfig


@dataclass(frozen=True)
class DispatchPolicy:
    """Timeout/retry policy for programming one accelerator.

    An accelerator that does not acknowledge its dispatch within
    ``timeout_seconds`` is retried with exponential backoff
    (``timeout * backoff**attempt``) up to ``max_retries`` times; once
    the ladder is exhausted the engine declares it dead and remaps its
    work.  The defaults bound failure detection to well under a
    millisecond — small against a database scan, visible against a
    cache hit, exactly the trade a production runtime makes.
    """

    #: first-attempt acknowledgement timeout
    timeout_seconds: float = 100e-6
    #: retries after the first attempt before declaring the accelerator dead
    max_retries: int = 3
    #: backoff multiplier applied per retry
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")

    def attempt_timeout_seconds(self, attempt: int) -> float:
        """Timeout of the ``attempt``-th try (0-based, backed off)."""
        if attempt < 0:
            raise ValueError("attempt cannot be negative")
        return self.timeout_seconds * self.backoff**attempt

    @property
    def attempts(self) -> int:
        """Total tries before giving up (first + retries)."""
        return 1 + self.max_retries

    def give_up_seconds(self) -> float:
        """Time burned before declaring one dead accelerator dead."""
        return sum(
            self.attempt_timeout_seconds(i) for i in range(self.attempts)
        )


@dataclass(frozen=True)
class EngineCosts:
    """Embedded-core runtime costs."""

    #: parsing a query command and metadata lookup in cached tables
    parse_seconds: float = 5e-6
    #: programming one accelerator (model address, db range, K)
    dispatch_per_accel_seconds: float = 1e-6
    #: merging one partial top-K entry on the embedded cores
    merge_per_entry_seconds: float = 0.2e-6
    #: query-cache bookkeeping (LRU promote/insert)
    cache_update_seconds: float = 2e-6
    #: power drawn by the embedded cores while the engine runs
    embedded_power_w: float = 4.0

    def __post_init__(self) -> None:
        for name in (
            "parse_seconds",
            "dispatch_per_accel_seconds",
            "merge_per_entry_seconds",
            "cache_update_seconds",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")


class QueryEngine:
    """Cost model + functional reduce step of the runtime."""

    def __init__(self, ssd: SsdConfig, costs: EngineCosts | None = None):
        self.ssd = ssd
        self.costs = costs or EngineCosts()

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def dispatch_seconds(self, n_accels: int) -> float:
        """Parse + per-accelerator programming time (map step)."""
        if n_accels <= 0:
            raise ValueError("n_accels must be positive")
        return (
            self.costs.parse_seconds
            + n_accels * self.costs.dispatch_per_accel_seconds
        )

    def merge_seconds(self, n_accels: int, k: int) -> float:
        """Reduce step: merge ``n_accels`` partial top-K lists."""
        if n_accels <= 0:
            raise ValueError("n_accels must be positive")
        if k <= 0:
            raise ValueError("K must be positive")
        return n_accels * k * self.costs.merge_per_entry_seconds

    def degraded_dispatch_seconds(
        self,
        n_accels: int,
        n_failed: int,
        policy: "DispatchPolicy | None" = None,
    ) -> float:
        """Map step with ``n_failed`` dead accelerators.

        The engine pays the normal dispatch for the survivors plus one
        full timeout/backoff ladder per dead accelerator before it can
        declare the failure and remap the stripe.
        """
        policy = policy or DispatchPolicy()
        if n_failed < 0:
            raise ValueError("n_failed cannot be negative")
        if n_failed >= n_accels:
            raise ValueError(
                f"cannot lose all accelerators ({n_failed} of {n_accels})"
            )
        return (
            self.dispatch_seconds(n_accels - n_failed)
            + n_failed * policy.give_up_seconds()
        )

    def result_transfer_seconds(self, k: int, feature_bytes: int) -> float:
        """``getResults`` DMA: top-K feature vectors + 8-byte ObjectIDs."""
        payload = k * (feature_bytes + 8)
        return payload / self.ssd.external_bandwidth

    def query_overhead_seconds(self, n_accels: int, k: int) -> float:
        """All serial engine costs of one query (excluding the scan)."""
        return (
            self.dispatch_seconds(n_accels)
            + self.merge_seconds(n_accels, k)
            + self.costs.cache_update_seconds
        )

    def energy_j(self, engine_seconds: float) -> float:
        """Embedded-core energy for the engine's share of a query."""
        if engine_seconds < 0:
            raise ValueError("negative engine time")
        return engine_seconds * self.costs.embedded_power_w

    # ------------------------------------------------------------------
    # functional reduce
    # ------------------------------------------------------------------
