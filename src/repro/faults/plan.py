"""Declarative fault plans.

A :class:`FaultPlan` says *what* can go wrong and *how often*; it holds
no runtime state and no randomness.  Pairing a plan with a seed inside a
:class:`~repro.faults.injector.FaultInjector` fully determines every
injected event, which is the property the reliability benchmarks lean
on: ``(seed, plan)`` → bit-identical
:class:`~repro.analysis.reliability.ReliabilityReport`.

Rates are per-operation probabilities (a read-retry rate of ``1e-3``
means one page read in a thousand needs at least one extra array pass).
Hard failures come in two forms: scheduled (:class:`ComponentFailure`
records naming a component and a failure time) and ambient (a
probability that a component is dead from the start of the run, drawn
deterministically per component from the seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.core.api import check_counts, is_count, is_real

#: component kinds a :class:`ComponentFailure` may name
FAILURE_KINDS = ("chip", "plane", "accelerator")


@dataclass(frozen=True)
class ComponentFailure:
    """A scheduled hard failure of one component.

    ``kind`` selects the component class; the coordinate fields that do
    not apply are left ``None`` (an accelerator failure uses ``index``
    — for channel-level placements that is the channel number).  The
    component is considered dead at every simulated time ``>= at_s``.
    A dead cluster replica is named by ``ClusterConfig.fail_shards``.
    """

    kind: str
    at_s: float = 0.0
    channel: Optional[int] = None
    chip: Optional[int] = None
    plane: Optional[int] = None
    index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {self.kind!r}")
        if not (is_real(self.at_s) and self.at_s >= 0):
            raise ValueError(f"at_s must be a real number >= 0, got {self.at_s!r}")
        for name in ("channel", "chip", "plane", "index"):
            value = getattr(self, name)
            if value is not None and not is_count(value):
                raise ValueError(f"{name} must be an integer >= 0 (or None), got {value!r}")
        if self.kind == "chip" and (self.channel is None or self.chip is None):
            raise ValueError("chip failures need channel and chip")
        if self.kind == "plane" and (
            self.channel is None or self.chip is None or self.plane is None
        ):
            raise ValueError("plane failures need channel, chip and plane")
        if self.kind == "accelerator" and self.index is None:
            raise ValueError("accelerator failures need an index")


@dataclass(frozen=True)
class FaultPlan:
    """Everything the injector may do to a run.

    The default instance is the **zero plan**: every rate is 0 and no
    failures are scheduled, and the hooks in the SSD/accelerator models
    skip all fault bookkeeping so timing stays bit-identical to a run
    with no injector at all.
    """

    #: probability one page array read needs ECC retry passes
    read_retry_rate: float = 0.0
    #: maximum extra array-read passes one page read can cost
    read_retry_max: int = 3
    #: probability one channel-bus page transfer fails CRC (re-transfer)
    crc_error_rate: float = 0.0
    #: maximum re-transfers of one page before the controller gives up
    crc_retry_max: int = 2
    #: probability one page program fails verify (reprogram passes)
    program_fail_rate: float = 0.0
    #: maximum extra program passes one page write can cost
    program_retry_max: int = 3
    #: probability a chip is dead from t=0 (ambient infant mortality)
    chip_failure_rate: float = 0.0
    #: probability an accelerator is dead from t=0
    accel_failure_rate: float = 0.0
    #: scheduled hard failures
    failures: Tuple[ComponentFailure, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name in (
            "read_retry_rate",
            "crc_error_rate",
            "program_fail_rate",
            "chip_failure_rate",
            "accel_failure_rate",
        ):
            rate = getattr(self, name)
            if not (is_real(rate) and 0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must be a probability, got {rate!r}")
        check_counts(self, (
            ("read_retry_max", 1), ("crc_retry_max", 1), ("program_retry_max", 1),
        ))
        if not (
            isinstance(self.failures, (tuple, list))
            and all(isinstance(f, ComponentFailure) for f in self.failures)
        ):
            raise ValueError(
                f"failures must be a sequence of ComponentFailure, "
                f"got {self.failures!r}"
            )
        object.__setattr__(self, "failures", tuple(self.failures))

    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """The zero plan (explicit spelling of the default)."""
        return cls()

    @property
    def is_zero(self) -> bool:
        """True when the plan can never inject anything."""
        return (
            self.read_retry_rate == 0.0
            and self.crc_error_rate == 0.0
            and self.program_fail_rate == 0.0
            and self.chip_failure_rate == 0.0
            and self.accel_failure_rate == 0.0
            and not self.failures
        )

    @property
    def injects_hard_failures(self) -> bool:
        """Whether any component can be dead during the run."""
        return (
            self.chip_failure_rate > 0.0
            or self.accel_failure_rate > 0.0
            or bool(self.failures)
        )

    # ------------------------------------------------------------------
    def with_failure(self, failure: ComponentFailure) -> "FaultPlan":
        """Copy of this plan with one more scheduled failure."""
        return replace(self, failures=self.failures + (failure,))

    def fail_accelerator(self, index: int, at_s: float = 0.0) -> "FaultPlan":
        """Copy with accelerator ``index`` hard-failed at ``at_s``."""
        return self.with_failure(
            ComponentFailure(kind="accelerator", index=index, at_s=at_s)
        )

    def describe(self) -> str:
        """One-line human summary used by reports and the CLI."""
        if self.is_zero:
            return "zero-fault plan"
        parts = []
        if self.read_retry_rate:
            parts.append(
                f"read-retry {self.read_retry_rate:g} (<= {self.read_retry_max} passes)"
            )
        if self.crc_error_rate:
            parts.append(f"bus-CRC {self.crc_error_rate:g}")
        if self.program_fail_rate:
            parts.append(
                f"program-fail {self.program_fail_rate:g}"
                f" (<= {self.program_retry_max} passes)"
            )
        if self.chip_failure_rate:
            parts.append(f"chip-death {self.chip_failure_rate:g}")
        if self.accel_failure_rate:
            parts.append(f"accel-death {self.accel_failure_rate:g}")
        if self.failures:
            parts.append(f"{len(self.failures)} scheduled failure(s)")
        return ", ".join(parts)
