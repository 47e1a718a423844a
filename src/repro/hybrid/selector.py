"""The path selector: per-region paging-vs-object-fetch decisions.

"A Tale of Two Paths" (arxiv 2406.16005) observes that neither paging
nor object fetch wins everywhere; which is cheaper depends on the
region's *access density*.  The selector evaluates the explicit cost
crossover from :class:`repro.compiler.cost_model.ChunkingCostModel`
(:meth:`~repro.compiler.cost_model.ChunkingCostModel.page_tier_cost` vs
:meth:`~repro.compiler.cost_model.ChunkingCostModel.object_tier_cost`)
over one :class:`~repro.hybrid.profiler.RegionStats` window and picks
the cheaper tier.

Two structural properties the hypothesis suite pins:

* **Monotone in density.**  The object-tier cost is linear in the
  window's access count while the page-tier cost is flat, so raising
  density (more accesses over the same footprint) can only move a
  decision *toward* pages, never pages → objects — and lowering it can
  only move a decision toward objects.
* **Hysteresis, hence idempotence.**  To flip away from the current
  placement the other tier must be cheaper by a factor of
  ``1 + hysteresis``.  Immediately after a flip the freshly chosen tier
  is *more* than ``1 + hysteresis`` ahead on the same window, so
  re-running selection with unchanged counters never flips back:
  decisions are stable under replay, and migration is idempotent.

The selector holds no mutable state: every decision is a pure function
of ``(stats, current placement)`` and the frozen cost table, which is
what lets every adaptive run replay bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.compiler.cost_model import ChunkingCostModel
from repro.errors import RuntimeConfigError
from repro.fastswap.runtime import RECLAIM_CYCLES
from repro.hybrid.placement import Placement
from repro.hybrid.profiler import RegionStats
from repro.net.link import BYTES_PER_CYCLE_25G
from repro.units import BASE_PAGE

# Enum members bound once: a class lookup is slow (docs/performance.md).
_OBJECTS = Placement.OBJECTS
_PAGES = Placement.PAGES


@dataclass(frozen=True)
class SelectorConfig:
    """Tuning for the path selector (all pure, all deterministic)."""

    #: Required cost advantage (relative) before flipping tiers.
    hysteresis: float = 0.25
    #: Assumed probability a granule is already local on first touch;
    #: the selector deliberately prices the cold worst case by default.
    resident_fraction: float = 0.0
    #: Kernel reclaim charged per page fault under memory pressure
    #: (:class:`repro.fastswap.runtime.FastswapConfig`'s default).
    reclaim_cycles: float = RECLAIM_CYCLES
    #: Windows with fewer accesses than this are too noisy to act on.
    min_accesses: int = 8
    #: Page size the wire-amplification term prices a fault at.
    page_bytes: int = BASE_PAGE
    #: Link bandwidth for the wire terms (cycles = bytes / this).
    wire_bytes_per_cycle: float = BYTES_PER_CYCLE_25G

    def __post_init__(self) -> None:
        if self.hysteresis < 0.0:
            raise RuntimeConfigError("hysteresis must be >= 0")
        if not 0.0 <= self.resident_fraction < 1.0:
            raise RuntimeConfigError("resident_fraction must be in [0, 1)")
        if self.min_accesses < 1:
            raise RuntimeConfigError("min_accesses must be >= 1")
        if self.page_bytes <= 0:
            raise RuntimeConfigError("page_bytes must be positive")
        if self.wire_bytes_per_cycle <= 0:
            raise RuntimeConfigError("wire bandwidth must be positive")


class PathSelector:
    """Chooses the serving tier for one region from one window."""

    def __init__(
        self,
        cost_model: ChunkingCostModel,
        config: SelectorConfig = SelectorConfig(),
    ) -> None:
        self.cost_model = cost_model
        #: Read on every decision, so assigning a new config retunes the
        #: selector from its next window on.
        self.config = config

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name == "config":
            #: Per-miss wire serialization (object, page): I/O
            #: amplification, worked out once per config.
            object.__setattr__(self, "_wire", (
                self.cost_model.object_size / value.wire_bytes_per_cycle,
                value.page_bytes / value.wire_bytes_per_cycle,
            ))

    def tier_costs(self, stats: RegionStats) -> Tuple[float, float]:
        """``(object_cycles, page_cycles)`` predicted for the window."""
        cfg = self.config
        model = self.cost_model
        wire_object, wire_page = self._wire
        return (
            model.object_tier_cost(
                stats.accesses,
                stats.distinct_objects,
                resident_fraction=cfg.resident_fraction,
                wire_object_cycles=wire_object,
            ),
            model.page_tier_cost(
                stats.accesses,
                stats.distinct_pages,
                resident_fraction=cfg.resident_fraction,
                reclaim_cycles=cfg.reclaim_cycles,
                wire_page_cycles=wire_page,
            ),
        )

    def decide(self, stats: RegionStats, current: Placement) -> Placement:
        """The placement for the next epoch; pure in its arguments."""
        cfg = self.config
        if stats.accesses < cfg.min_accesses:
            return current
        object_cost, page_cost = self.tier_costs(stats)
        margin = 1.0 + cfg.hysteresis
        if current is _OBJECTS:
            if page_cost * margin < object_cost:
                return _PAGES
            return _OBJECTS
        if object_cost * margin < page_cost:
            return _OBJECTS
        return _PAGES

    def crossover_density(self, stats: RegionStats) -> float:
        """The window's break-even accesses/page (diagnostics/figures)."""
        pages = max(1, stats.distinct_pages)
        wire_object, wire_page = self._wire
        return self.cost_model.paging_crossover_density(
            objects_touched_per_page=stats.distinct_objects / pages,
            resident_fraction=self.config.resident_fraction,
            reclaim_cycles=self.config.reclaim_cycles,
            wire_object_cycles=wire_object,
            wire_page_cycles=wire_page,
        )
