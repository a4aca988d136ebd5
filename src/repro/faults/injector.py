"""Deterministic runtime fault injection.

The injector answers the same questions real reliability hardware poses:
*does this array read decode first pass?* (if not, how many ECC retry
passes?), *does this bus transfer pass CRC?*, and *is this component
still alive?*  Every answer is a pure function of ``(seed, epoch,
site)`` — ``site`` being the structural coordinates of the operation
(channel/chip/plane/block/page, or an accelerator index) — computed with
a splitmix64-style hash.  That gives three properties the rest of the
repo depends on:

1. **Determinism** — two runs with the same seed and plan inject the
   exact same faults, so reliability reports are bit-identical.
2. **Order independence** — the draw for one page does not depend on
   how events interleaved before it, so adding concurrency elsewhere
   does not silently reshuffle the fault pattern.
3. **Zero-cost idle** — a zero plan never draws, and the SSD hooks
   skip the injector entirely, keeping fault-free timing bit-identical
   to a run with no injector object at all.

Within one epoch, re-reading the same page reproduces the same retry
count — matching real NAND, where a marginal page stays marginal until
rewritten.  Callers model independent trials (e.g. successive queries)
by advancing the epoch via :meth:`FaultInjector.begin_epoch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.ssd.geometry import PhysicalPageAddress

_MASK64 = (1 << 64) - 1

# draw domains keep the hash streams for different fault classes disjoint
_DOMAIN_READ_RETRY = 1
_DOMAIN_CRC = 2
_DOMAIN_CHIP_AMBIENT = 3
_DOMAIN_ACCEL_AMBIENT = 4
_DOMAIN_READ_RETRY_DEPTH = 5
_DOMAIN_CRC_DEPTH = 6
_DOMAIN_PROGRAM = 7
_DOMAIN_PROGRAM_DEPTH = 8
# the cluster retry ladder's jitter and the chaos harness's crash times
# draw from their own domains: merging a chaos schedule into a plan (or
# enabling retries) can never reshuffle the read/program fault pattern
# of an otherwise identical run
_DOMAIN_RETRY_JITTER = 9
_DOMAIN_CRASH_TIME = 10


def _mix(*values: int) -> int:
    """Splitmix64-style avalanche over a tuple of integers.

    Stable across processes and Python versions (unlike ``hash`` on
    strings) and cheap enough to call per simulated page read.
    """
    x = 0x9E3779B97F4A7C15
    for v in values:
        x = ((x ^ (v & _MASK64)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
    return x


def _unit(*values: int) -> float:
    """A deterministic uniform draw in [0, 1) keyed by ``values``."""
    return _mix(*values) / float(1 << 64)


def retry_jitter_unit(seed: int, *key: int) -> float:
    """Uniform [0, 1) draw for one retry-ladder jitter decision.

    Keyed in the dedicated ``_DOMAIN_RETRY_JITTER`` hash domain so the
    retry subsystem's randomness is byte-independent of every read /
    CRC / program fault stream: turning retries on (or changing their
    keys) leaves an otherwise identical run's fault pattern untouched.
    """
    return _unit(seed, _DOMAIN_RETRY_JITTER, *key)


def crash_time_unit(seed: int, *key: int) -> float:
    """Uniform [0, 1) draw for one chaos-schedule crash time.

    Same isolation contract as :func:`retry_jitter_unit`, in the
    ``_DOMAIN_CRASH_TIME`` domain: generating a chaos schedule from a
    seed never perturbs the device-level fault draws that same seed
    produces.
    """
    return _unit(seed, _DOMAIN_CRASH_TIME, *key)


class _CounterField:
    """Attribute access over a named registry counter.

    Keeps the original ``counters.page_reads += 1`` call sites working
    while the storage lives in a shared :class:`MetricsRegistry`.
    """

    def __set_name__(self, owner, name: str) -> None:
        self._name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj._counters[self._name].value

    def __set__(self, obj, value: int) -> None:
        obj._counters[self._name].value = int(value)


class ReliabilityCounters:
    """Tallies of what the injector actually did during a run.

    Backed by a :class:`~repro.obs.MetricsRegistry` (one ``faults.*``
    counter per field) rather than one-off integers, so a run that
    shares a registry between the SSD models and the injector gets the
    fault tallies in the same ``snapshot()`` as everything else.  With
    no registry given, a private one is created — the standalone
    behaviour is unchanged.
    """

    FIELDS = (
        "page_reads",
        "pages_with_retry",
        "retry_passes",
        "transfers",
        "transfers_with_crc_error",
        "crc_retransfers",
        "page_programs",
        "programs_with_retry",
        "program_retries",
        "failed_reads",
        "dispatch_timeouts",
    )

    page_reads = _CounterField()
    pages_with_retry = _CounterField()
    retry_passes = _CounterField()
    transfers = _CounterField()
    transfers_with_crc_error = _CounterField()
    crc_retransfers = _CounterField()
    page_programs = _CounterField()
    programs_with_retry = _CounterField()
    program_retries = _CounterField()
    failed_reads = _CounterField()
    dispatch_timeouts = _CounterField()

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(f"faults.{name}")
            for name in self.FIELDS
        }

    def as_dict(self) -> Dict[str, int]:
        """Counter snapshot for reports and tests."""
        return {name: getattr(self, name) for name in self.FIELDS}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReliabilityCounters):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"ReliabilityCounters({fields})"


@dataclass
class FaultInjector:
    """A :class:`FaultPlan` bound to a seed, with runtime counters.

    Pass ``metrics`` to tally into a shared registry (the counters then
    appear as ``faults.*`` in that registry's snapshot alongside the SSD
    and engine metrics); otherwise the counters keep a private one.
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    seed: int = 0
    counts: ReliabilityCounters = field(default_factory=ReliabilityCounters)
    metrics: Optional[MetricsRegistry] = None

    def __post_init__(self) -> None:
        if self.metrics is not None:
            self.counts = ReliabilityCounters(registry=self.metrics)
        self._epoch = 0
        self._dead_chips: Dict[Tuple[int, int], float] = {}
        self._dead_planes: Dict[Tuple[int, int, int], float] = {}
        self._dead_accels: Dict[int, float] = {}
        for failure in self.plan.failures:
            if failure.kind == "chip":
                key2 = (failure.channel, failure.chip)
                self._dead_chips[key2] = min(
                    self._dead_chips.get(key2, failure.at_s), failure.at_s
                )
            elif failure.kind == "plane":
                key3 = (failure.channel, failure.chip, failure.plane)
                self._dead_planes[key3] = min(
                    self._dead_planes.get(key3, failure.at_s), failure.at_s
                )
            elif failure.kind == "accelerator":
                self._dead_accels[failure.index] = min(
                    self._dead_accels.get(failure.index, failure.at_s),
                    failure.at_s,
                )

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Current draw epoch (mixed into every fault-site key)."""
        return self._epoch

    def begin_epoch(self, epoch: int) -> None:
        """Start a new independent draw epoch (e.g. the next query)."""
        if epoch < 0:
            raise ValueError("epoch cannot be negative")
        self._epoch = epoch

    # ------------------------------------------------------------------
    # soft faults (timing perturbations)
    # ------------------------------------------------------------------
    def page_read_retries(self, address: PhysicalPageAddress) -> int:
        """Extra array-read passes this page read needs (0 = clean).

        Models ECC read-retry escalation: with probability
        ``read_retry_rate`` the first sense fails and the plane re-arms
        with shifted read-reference voltages, for a uniform 1..max extra
        passes.  Counted into :attr:`counts`.

        The occurrence draw and the depth draw use independent hash
        domains, so the set of faulting sites at a lower rate is a
        strict subset of the set at a higher rate *with identical
        depths on the common sites* — which is what makes fault-rate
        sweeps (``bench_ext_fault_tolerance``) monotone per-realization
        rather than only in expectation.
        """
        self.counts.page_reads += 1
        plan = self.plan
        if plan.read_retry_rate <= 0.0:
            return 0
        site = (
            address.channel,
            address.chip,
            address.plane,
            address.block,
            address.page,
        )
        u = _unit(self.seed, self._epoch, _DOMAIN_READ_RETRY, *site)
        if u >= plan.read_retry_rate:
            return 0
        depth_u = _unit(self.seed, self._epoch, _DOMAIN_READ_RETRY_DEPTH, *site)
        depth = 1 + int(depth_u * plan.read_retry_max)
        depth = min(depth, plan.read_retry_max)
        self.counts.pages_with_retry += 1
        self.counts.retry_passes += depth
        return depth

    def transfer_crc_retries(self, address: PhysicalPageAddress) -> int:
        """Extra bus transfers of this page after CRC failures.

        Occurrence and depth use independent hash domains (see
        :meth:`page_read_retries`) so realized CRC cost is monotone in
        ``crc_error_rate``.
        """
        self.counts.transfers += 1
        plan = self.plan
        if plan.crc_error_rate <= 0.0:
            return 0
        site = (
            address.channel,
            address.chip,
            address.plane,
            address.block,
            address.page,
        )
        u = _unit(self.seed, self._epoch, _DOMAIN_CRC, *site)
        if u >= plan.crc_error_rate:
            return 0
        depth_u = _unit(self.seed, self._epoch, _DOMAIN_CRC_DEPTH, *site)
        depth = 1 + int(depth_u * plan.crc_retry_max)
        depth = min(depth, plan.crc_retry_max)
        self.counts.transfers_with_crc_error += 1
        self.counts.crc_retransfers += depth
        return depth

    def page_program_retries(self, address: PhysicalPageAddress) -> int:
        """Extra program passes this page write needs (0 = clean).

        Models program-verify failure on the ingest write path: with
        probability ``program_fail_rate`` the verify after the first
        program pulse fails and the controller re-programs, for a
        uniform 1..max extra passes.  Occurrence and depth use hash
        domains disjoint from every read/transfer fault class, so
        enabling write faults never reshuffles the read-fault pattern
        of an otherwise identical run.
        """
        self.counts.page_programs += 1
        plan = self.plan
        if plan.program_fail_rate <= 0.0:
            return 0
        site = (
            address.channel,
            address.chip,
            address.plane,
            address.block,
            address.page,
        )
        u = _unit(self.seed, self._epoch, _DOMAIN_PROGRAM, *site)
        if u >= plan.program_fail_rate:
            return 0
        depth_u = _unit(self.seed, self._epoch, _DOMAIN_PROGRAM_DEPTH, *site)
        depth = 1 + int(depth_u * plan.program_retry_max)
        depth = min(depth, plan.program_retry_max)
        self.counts.programs_with_retry += 1
        self.counts.program_retries += depth
        return depth

    # ------------------------------------------------------------------
    # hard failures
    # ------------------------------------------------------------------
    def chip_dead(self, channel: int, chip: int, now: float = 0.0) -> bool:
        """Whether one flash chip is failed at simulated time ``now``."""
        at = self._dead_chips.get((channel, chip))
        if at is not None and now >= at:
            return True
        rate = self.plan.chip_failure_rate
        if rate > 0.0:
            return _unit(self.seed, _DOMAIN_CHIP_AMBIENT, channel, chip) < rate
        return False

    def plane_dead(
        self, channel: int, chip: int, plane: int, now: float = 0.0
    ) -> bool:
        """Whether one plane is failed (dead chips kill all planes)."""
        at = self._dead_planes.get((channel, chip, plane))
        if at is not None and now >= at:
            return True
        return self.chip_dead(channel, chip, now)

    def accelerator_dead(self, index: int, now: float = 0.0) -> bool:
        """Whether accelerator ``index`` is failed at time ``now``."""
        at = self._dead_accels.get(index)
        if at is not None and now >= at:
            return True
        rate = self.plan.accel_failure_rate
        if rate > 0.0:
            return _unit(self.seed, _DOMAIN_ACCEL_AMBIENT, index) < rate
        return False

    def note_failed_read(self) -> None:
        """Record one page read lost to a dead chip/plane."""
        self.counts.failed_reads += 1

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether this injector can perturb anything at all."""
        return not self.plan.is_zero
