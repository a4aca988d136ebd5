"""Linear event-count energy model.

:class:`EnergyModel` converts a per-feature execution profile (MACs,
scratchpad/L2/DRAM word traffic from :mod:`repro.systolic`, flash pages
from the SSD layout) into joules, split into the three categories Fig. 12
reports: **compute**, **memory** (scratchpad + L2 + DRAM + NoC), and
**flash**.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.energy.cacti import CactiLite
from repro.energy.tables import EnergyTables
from repro.systolic.mapper import GraphProfile


@dataclass
class EnergyBreakdown:
    """Joules by category (Fig. 12's compute / memory / flash split)."""

    compute_j: float = 0.0
    sram_j: float = 0.0
    dram_j: float = 0.0
    noc_j: float = 0.0
    flash_j: float = 0.0
    host_j: float = 0.0  # baseline-only: PCIe/DMA energy

    @property
    def memory_j(self) -> float:
        return self.sram_j + self.dram_j + self.noc_j

    @property
    def total_j(self) -> float:
        return self.compute_j + self.memory_j + self.flash_j + self.host_j

    def fractions(self) -> dict:
        """Fractions in Fig. 12's categories (compute/memory/flash)."""
        total = self.total_j
        if total <= 0:
            return {"compute": 0.0, "memory": 0.0, "flash": 0.0}
        return {
            "compute": self.compute_j / total,
            "memory": (self.memory_j + self.host_j) / total,
            "flash": self.flash_j / total,
        }

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            self.compute_j + other.compute_j,
            self.sram_j + other.sram_j,
            self.dram_j + other.dram_j,
            self.noc_j + other.noc_j,
            self.flash_j + other.flash_j,
            self.host_j + other.host_j,
        )

    def scaled(self, factor: float) -> "EnergyBreakdown":
        """This breakdown multiplied by a scalar factor."""
        return EnergyBreakdown(
            self.compute_j * factor,
            self.sram_j * factor,
            self.dram_j * factor,
            self.noc_j * factor,
            self.flash_j * factor,
            self.host_j * factor,
        )


@dataclass
class EnergyModel:
    """Turns execution profiles into :class:`EnergyBreakdown` records."""

    tables: EnergyTables = field(default_factory=EnergyTables)
    cacti: CactiLite = field(default_factory=CactiLite)
    #: scratchpads are highly banked (paper §4.3); accesses pay the
    #: energy of one bank, not the whole macro
    sram_banks: int = 32

    def _sram_access_j(self, size_bytes: int, model: str) -> float:
        bank = max(1024, size_bytes // self.sram_banks)
        return self.cacti.access_energy_j(bank, model)

    def accelerator_feature_energy(
        self,
        profile: GraphProfile,
        scratchpad_bytes: int,
        sram_model: str = "itrs-hp",
        l2_bytes: Optional[int] = None,
        flash_pages_per_feature: float = 0.0,
        area_mm2: float = 1.0,
        precision: str = "fp32",
    ) -> EnergyBreakdown:
        """Energy to process **one** database feature vector.

        ``profile`` supplies MAC and word-traffic counts; ``l2_bytes`` is
        the shared second-level scratchpad (channel level) weights stream
        from; flash pages are the feature's share of page reads.  Narrow
        ``precision`` scales MAC energy and on-/off-chip word traffic
        (the feature database itself stays fp32, so flash is unchanged).
        """
        from repro.nn.quantization import get_precision

        t, c = self.tables, self.cacti
        spec = get_precision(precision)
        accesses = profile.accesses_per_feature
        macs = profile.macs_per_feature

        sram_words = accesses.sram_reads + accesses.sram_writes
        sram_j = sram_words * self._sram_access_j(scratchpad_bytes, sram_model)
        l2_words = profile.l2_weight_words_per_feature
        if l2_words and l2_bytes:
            sram_j += l2_words * self._sram_access_j(l2_bytes, "itrs-hp")
        dram_words = profile.dram_weight_words_per_feature
        dram_j = dram_words * t.dram_j_per_word()

        wire_mm = math.sqrt(max(area_mm2, 0.0))
        noc_words = sram_words + l2_words + dram_words
        return EnergyBreakdown(
            compute_j=macs * spec.mac_j,
            sram_j=sram_j * spec.memory_scale,
            dram_j=dram_j * spec.memory_scale,
            noc_j=t.noc_j(noc_words, wire_mm) * spec.memory_scale,
            flash_j=t.flash_j_for_pages(flash_pages_per_feature),
        )

    # ------------------------------------------------------------------
    def accelerator_power_w(
        self,
        profile: GraphProfile,
        scratchpad_bytes: int,
        seconds_per_feature: float,
        sram_model: str = "itrs-hp",
        l2_bytes: Optional[int] = None,
        flash_pages_per_feature: float = 0.0,
        area_mm2: float = 1.0,
        include_dram: bool = True,
        precision: str = "fp32",
    ) -> float:
        """Average power while streaming features (energy/time).

        ``include_dram=False`` excludes DRAM weight-stream energy — the
        DRAM is a shared device-level resource, so per-accelerator power
        *envelope* checks (the Table-3 budgets) leave it out while
        whole-device energy accounting keeps it.
        """
        if seconds_per_feature <= 0:
            raise ValueError("seconds_per_feature must be positive")
        energy = self.accelerator_feature_energy(
            profile,
            scratchpad_bytes,
            sram_model=sram_model,
            l2_bytes=l2_bytes,
            flash_pages_per_feature=flash_pages_per_feature,
            area_mm2=area_mm2,
            precision=precision,
        )
        joules = energy.total_j
        if not include_dram:
            joules -= energy.dram_j
        return joules / seconds_per_feature
