"""Hybrid compiler+kernel far memory (§5's "Lessons" extension).

The paper: "we were also surprised how well kernel-based approaches
perform when there is sufficient temporal locality ... This suggests
that a hybrid approach (compiler and kernel) holds promise."  This
package prototypes that idea: local memory is split between a TrackFM
object pool and a kernel page cache, and data is *placed* on the
mechanism that suits its access pattern — page-backed for coarse,
high-temporal-reuse data (zero software cost on hits), object-backed
for fine-grained data (no I/O amplification on misses).

Two planes (docs/hybrid.md):

* :class:`HybridRuntime` — static: an object/page split of one arena,
  fixed at construction; the page tier doubles as the degrade/fallback
  target.
* :class:`AdaptiveHybridRuntime` — online: a :class:`DensityProfiler`
  folds the access stream into windowed region stats, a
  :class:`PathSelector` re-evaluates the paging-vs-object cost
  crossover per region every epoch, and flipped regions are migrated
  between tiers (eagerly for resident state, lazily at evacuation).
"""

from repro.hybrid.placement import Placement
from repro.hybrid.profiler import DensityProfiler, RegionStats
from repro.hybrid.runtime import (
    AdaptiveHybridRuntime,
    HybridRuntime,
    MigrationEvent,
)
from repro.hybrid.selector import PathSelector, SelectorConfig

__all__ = [
    "AdaptiveHybridRuntime",
    "DensityProfiler",
    "HybridRuntime",
    "MigrationEvent",
    "PathSelector",
    "Placement",
    "RegionStats",
    "SelectorConfig",
]
