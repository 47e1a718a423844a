"""The density profiler: windowed per-region access statistics.

The adaptive hybrid's selector needs, per region and per epoch, exactly
the quantities the paging-vs-object cost crossover is written in
(:meth:`repro.compiler.cost_model.ChunkingCostModel.prefer_pages`):
how many accesses landed in the region, how many distinct objects and
distinct pages they touched, and how many were writes.  This module
collects them.

Everything is a pure fold over the access stream: recording costs no
simulated cycles (the profiler is the software analogue of the trace
layer's counters, not a mechanism the machine pays for), and folding a
window produces immutable :class:`RegionStats` snapshots in sorted region
order — so two replays of the same stream profile identically and every
downstream decision is bit-reproducible.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, NamedTuple

from repro.errors import RuntimeConfigError


class RegionStats(NamedTuple):
    """One region's folded window: the selector's entire input."""

    region: int
    #: Accesses that landed in the region this window.
    accesses: int
    #: Distinct objects those accesses touched.
    distinct_objects: int
    #: Distinct (architected) pages those accesses touched.
    distinct_pages: int
    #: How many of the accesses were writes.
    writes: int


#: Builds a :class:`RegionStats` from a tuple, without ``_make``'s frame.
_region_stats = partial(tuple.__new__, RegionStats)


class DensityProfiler:
    """Folds per-base access counters into windowed region stats.

    The window lives in flat lists indexed by region, object and page,
    so recording an access is a handful of list reads and writes with no
    per-region objects or sets; the adaptive runtime's tier router
    (``_TierRouter.guard``) writes them in place, on every guarded
    access into the pool's heap.  Distinct objects and pages are counted
    with per-granule stamps: a granule counts once per window, when its
    stamp is older than the window's id, and folding a window only bumps
    the id instead of clearing the stamps.  The lists are sized once, to
    ``regions`` regions: one stamp per object and per page of the
    profiled heap.

    Object and page sizes are powers of two (given as shifts), so a
    granule of the coarser size is a union of finer ones: a window
    counts it exactly when it first counts one of them, and a recorder
    tests the :attr:`coarse` stamp only behind a fresh :attr:`fine` one.
    """

    def __init__(
        self, region_bytes: int, object_shift: int, page_shift: int, regions: int
    ) -> None:
        if region_bytes <= 0 or object_shift < 0 or page_shift < 0:
            raise RuntimeConfigError("profiler granularities must be positive")
        if regions < 1:
            raise RuntimeConfigError("the profiler needs at least one region")
        self.object_size = object_size = 1 << object_shift
        self.page_size = page_size = 1 << page_shift
        if region_bytes % object_size != 0:
            raise RuntimeConfigError(
                f"region_bytes {region_bytes} must be a multiple of "
                f"object_size {object_size}"
            )
        if region_bytes % page_size != 0:
            raise RuntimeConfigError(
                f"region_bytes {region_bytes} must be a multiple of "
                f"page_size {page_size}"
            )
        self.region_bytes = region_bytes
        #: Bytes of heap the window covers: ``regions`` whole regions.
        self.heap_bytes = regions * region_bytes
        # Per region, this window: accesses, writes, distinct objects and
        # distinct pages.  Regions with accesses are listed in _touched.
        self._accesses = [0] * regions
        self._writes = [0] * regions
        self._objects = [0] * regions
        self._pages = [0] * regions
        self._touched: List[int] = []
        # Per object / per page: the id of the last window that counted it.
        objects = ([0] * (self.heap_bytes // object_size), object_shift, self._objects)
        pages = ([0] * (self.heap_bytes // page_size), page_shift, self._pages)
        #: The finer and the coarser granule layout, each ``(stamps, shift,
        #: per-region counts)``: objects are the finer one unless they are
        #: larger than pages.
        self.fine, self.coarse = (
            (objects, pages) if object_shift <= page_shift else (pages, objects)
        )
        self._window = 1
        #: Region-to-region transitions this window (scan-vs-random
        #: signal: sequential sweeps run long in one region, random
        #: probe mixes hop every few accesses).
        self.window_transitions = 0
        self.window_accesses = 0
        self._last_region: int = -1
        # Accesses of the windows folded so far.
        self._folded_accesses = 0
        self.epochs_folded = 0

    @property
    def total_accesses(self) -> int:
        """Lifetime accesses (observability only; never fed to the selector)."""
        return self._folded_accesses + self.window_accesses

    def interleave_rate(self) -> float:
        """Fraction of this window's accesses that changed region.

        Near 0 for sweeps (long runs in one region), high for random
        mixes.  The adaptive runtime uses it to tell *cheap* page-tier
        over-commit (a sweep faults each page once per pass no matter
        the capacity) from *thrashing* over-commit (an interleaved mix
        faults on nearly every access).
        """
        if self.window_accesses <= 0:
            return 0.0
        return self.window_transitions / self.window_accesses

    def fold(self, min_accesses: int = 1) -> Dict[int, RegionStats]:
        """Freeze the regions with at least ``min_accesses`` accesses,
        keyed by region and sorted, then clear the whole window."""
        accesses = self._accesses
        writes = self._writes
        objects = self._objects
        pages = self._pages
        touched = self._touched
        touched.sort()
        stats: Dict[int, RegionStats] = {}
        for region in touched:
            count = accesses[region]
            if count >= min_accesses:
                stats[region] = _region_stats(
                    (region, count, objects[region], pages[region], writes[region])
                )
            accesses[region] = writes[region] = objects[region] = pages[region] = 0
        touched.clear()
        self._window += 1
        self._folded_accesses += self.window_accesses
        self.window_transitions = 0
        self.window_accesses = 0
        self._last_region = -1
        self.epochs_folded += 1
        return stats
