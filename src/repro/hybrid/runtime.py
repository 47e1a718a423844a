"""Hybrid runtimes: TrackFM objects and kernel pages, side by side.

Two planes share the two tiers:

* :class:`HybridRuntime` — the original *static* plane: the caller picks
  a :class:`Placement` per allocation, and the page tier doubles as the
  degrade/fallback target when the object tier's far node is lost or an
  object is quarantined.
* :class:`AdaptiveHybridRuntime` — the *online* plane (docs/hybrid.md):
  a :class:`~repro.hybrid.profiler.DensityProfiler` folds the access
  stream into windowed region stats, a
  :class:`~repro.hybrid.selector.PathSelector` evaluates the
  paging-vs-object cost crossover per region every epoch, and regions
  whose decision flips are migrated between tiers — eagerly for their
  resident state, and lazily at evacuation time through the
  :class:`~repro.aifm.evacuator.Evacuator` ``on_evict`` hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.aifm.pool import PoolConfig
from repro.compiler.cost_model import ChunkingCostModel
from repro.errors import (
    DataIntegrityError,
    FarMemoryUnavailableError,
    PointerError,
    RuntimeConfigError,
)
from repro.fastswap.runtime import FastswapConfig, FastswapRuntime
from repro.hybrid.placement import Placement
from repro.hybrid.profiler import DensityProfiler
from repro.hybrid.selector import PathSelector, SelectorConfig
from repro.integrity import IntegrityConfig, RecoveryReport
from repro.machine.costs import AccessKind, GuardKind
from repro.sim.metrics import Metrics
from repro.trackfm.guards import GuardResult
from repro.trackfm.pointer import MAX_HEAP_OFFSET, TFM_TAG_SHIFT, U64_MASK, is_tfm_pointer
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import BASE_PAGE, ceil_div

# Enum members bound once: a class lookup is slow (docs/performance.md).
_WRITE = AccessKind.WRITE
_NONE = GuardKind.NONE
_OBJECTS = Placement.OBJECTS
_PAGES = Placement.PAGES
#: Builds a page fault's :class:`GuardResult`, skipping the keyword-capable call.
_guard_result = GuardResult._make

__all__ = [
    "AdaptiveHybridRuntime",
    "HybridHandle",
    "HybridRuntime",
    "MigrationEvent",
    "Placement",
]


@dataclass(frozen=True)
class HybridHandle:
    """An allocation handle carrying its placement."""

    placement: Placement
    #: TrackFM pointer (OBJECTS) or page-heap offset (PAGES).
    address: int
    size: int


class HybridRuntime:
    """Splits local memory between an object pool and a page cache.

    The compiler (or, here, the caller) chooses a :class:`Placement`
    per allocation; a plausible policy is the one §5 hints at — hot,
    densely-reused regions on pages (faults amortize, hits are free of
    guard costs), fine-grained or cold regions on objects (no
    amplification).
    """

    def __init__(
        self,
        local_memory: int,
        heap_size: int,
        object_size: int = 256,
        page_fraction: float = 0.5,
        object_backend=None,
        page_backend=None,
    ) -> None:
        if not 0.0 < page_fraction < 1.0:
            raise RuntimeConfigError("page_fraction must be in (0, 1)")
        page_local = max(BASE_PAGE, int(local_memory * page_fraction))
        object_local = max(object_size, local_memory - page_local)
        self.trackfm = TrackFMRuntime(
            PoolConfig(
                object_size=object_size,
                local_memory=object_local,
                heap_size=heap_size,
            ),
            backend=object_backend,
        )
        self.fastswap = FastswapRuntime(
            FastswapConfig(local_memory=page_local, heap_size=heap_size),
            backend=page_backend,
        )
        self.page_fraction = page_fraction
        self._handles: Dict[int, HybridHandle] = {}
        #: Shadow page-tier allocations for object allocations served in
        #: fallback mode (keyed by the object allocation's address).
        self._fallback: Dict[int, int] = {}
        #: Counters owned by the hybrid layer itself (fallback accesses);
        #: merged into :attr:`metrics` alongside both mechanisms'.
        self.extra_metrics = Metrics()

    def set_tracer(self, tracer) -> None:
        """Attach one tracer to both mechanisms (events share a timeline)."""
        self.trackfm.set_tracer(tracer)
        self.fastswap.set_tracer(tracer)

    def enable_integrity(self, config: Optional[IntegrityConfig] = None) -> None:
        """Arm checksum verification on both tiers.

        Each tier gets its own checker (its own journal and damage map —
        the tiers have independent remote copies), built from the same
        config so both replay the same corruption schedule parameters.
        """
        self.trackfm.enable_integrity(config)
        self.fastswap.enable_integrity(config)

    def recover(self) -> RecoveryReport:
        """Run crash recovery on every tier with a checker attached.

        Returns the merged :class:`~repro.integrity.RecoveryReport`;
        tiers without integrity enabled are skipped.
        """
        report = RecoveryReport()
        if self.trackfm.pool.integrity is not None:
            report.merge(self.trackfm.recover())
        if self.fastswap.integrity is not None:
            report.merge(self.fastswap.recover())
        return report

    @property
    def tracer(self):
        return self.trackfm.tracer

    def remote_backends(self) -> tuple:
        """Both tiers' far nodes (object pool first, then swap target).

        Uniform across the four runtimes; a hybrid shard is one fault
        domain spanning two links, so losing the shard must arm both.
        """
        return self.trackfm.remote_backends() + self.fastswap.remote_backends()

    # -- allocation -----------------------------------------------------

    def allocate(self, size: int, placement: Placement) -> HybridHandle:
        if placement is Placement.OBJECTS:
            addr = self.trackfm.tfm_malloc(size)
        else:
            addr = self.fastswap.allocate(size)
        handle = HybridHandle(placement, addr, size)
        self._handles[addr] = handle
        return handle

    # -- access ---------------------------------------------------------

    def access(
        self,
        handle: HybridHandle,
        offset: int = 0,
        kind: AccessKind = AccessKind.READ,
        size: int = 8,
    ) -> float:
        if offset < 0 or offset + size > handle.size:
            raise PointerError(
                f"access [{offset}, {offset + size}) outside allocation "
                f"of {handle.size} bytes"
            )
        if handle.placement is Placement.OBJECTS:
            assert is_tfm_pointer(handle.address)
            try:
                return self.trackfm.access(handle.address + offset, kind, size)
            except (FarMemoryUnavailableError, DataIntegrityError):
                # The degrade rung of the integrity escalation ladder:
                # a quarantined object is served via the page tier
                # (whose copy is independently verified) instead of
                # surfacing the error to the program.
                return self._fallback_access(handle, offset, kind, size)
        return self.fastswap.access(handle.address + offset, kind, size)

    def _fallback_access(
        self, handle: HybridHandle, offset: int, kind: AccessKind, size: int
    ) -> float:
        """Serve an object access via the page tier: the hybrid's whole
        point is having a second mechanism to fall back on when the
        object path's remote backend is unavailable.

        The allocation gets a lazily-created shadow in the page heap;
        subsequent fallback accesses reuse it, so a long outage behaves
        like the allocation had been placed on pages to begin with.
        """
        shadow = self._fallback.get(handle.address)
        if shadow is None:
            shadow = self.fastswap.allocate(handle.size)
            self._fallback[handle.address] = shadow
        self.extra_metrics.degraded_accesses += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.degrade(
                "hybrid_fallback",
                self.trackfm.metrics.cycles,
                addr=handle.address,
                offset=offset,
            )
        return self.fastswap.access(shadow + offset, kind, size)

    # -- metrics ------------------------------------------------------------

    @property
    def metrics(self) -> Metrics:
        """Merged view over both mechanisms (plus hybrid-layer counters)."""
        merged = Metrics()
        merged.merge(self.trackfm.metrics)
        merged.merge(self.fastswap.metrics)
        merged.merge(self.extra_metrics)
        return merged

    def split(self) -> Tuple[Metrics, Metrics]:
        """(object-side, page-side) metrics, unmerged."""
        return self.trackfm.metrics, self.fastswap.metrics


# -- the adaptive plane ------------------------------------------------------


@dataclass(frozen=True)
class MigrationEvent:
    """One selector flip: a region re-homed between tiers."""

    epoch: int
    region: int
    source: Placement
    target: Placement
    #: Region objects re-homed by the flip.
    objects: int


class _TierRouter:
    """A guard-engine-shaped proxy that routes each access by placement.

    Implements the :class:`~repro.trackfm.guards.GuardEngine` surface
    (``guard``/``locality_guard``) so the inherited
    TrackFM access paths and the IR interpreter bridge work unchanged.
    OBJECTS regions take the real guard engine; PAGES regions skip guard
    code entirely and touch the page tier (the whole point of paging:
    resident pages cost nothing in software).  Chunked-loop guards stay
    on the object tier — chunking pins one object per chunk, and is
    already the compiler's answer for high-density loops.

    ``guard`` decodes the pointer once (the custody check, then one
    mask), records the access in the profiler's window lists itself,
    reads the region's tier from the runtime's ``_paged`` flags and, for
    a page-placed region, hits a resident page in place (hot bit or LRU
    move, dirty bit) with a shared zero-cycle result.  Only a page
    fault goes through ``FastswapRuntime._touch_page``.  The runtime's
    ``adaptive`` and ``epoch_accesses`` are read on every access, so
    assigning either on a live runtime takes effect immediately.
    """

    def __init__(self, runtime: "AdaptiveHybridRuntime", object_guards) -> None:
        self.runtime = runtime
        self.object_guards = object_guards
        self.costs = object_guards.costs
        self.metrics = object_guards.metrics
        self.tracer = object_guards.tracer
        fs = runtime.fastswap
        profiler = self._profiler = runtime.profiler
        self._accesses = profiler._accesses
        self._writes = profiler._writes
        self._objects = profiler._objects
        self._pages = profiler._pages
        self._touched = profiler._touched
        self._object_stamp = profiler._object_stamp
        self._page_stamp = profiler._page_stamp
        self._object_shift = runtime.pool.object_shift
        self._paged = runtime._paged
        self._shadow = runtime._shadow
        self._region_bytes = runtime.region_bytes
        #: Heap bytes the pool's object ids (and the profiler's lists)
        #: cover; a pointer past them is left to the object guard.
        self._heap_end = runtime.pool.num_objects * runtime.object_size
        self._page_shift = fs.page_shift
        residency = fs.residency
        self._resident = residency._resident
        self._dirty = residency._dirty
        self._use_clock = residency.use_clock
        self._touch_page = fs._touch_page
        self._page_hit = GuardResult(_NONE, 0.0)

    def guard(self, addr: int, kind: AccessKind, depth: int = 1) -> GuardResult:
        # Custody check (bits 60..63), then the heap offset, once.
        if not (addr & U64_MASK) >> TFM_TAG_SHIFT:
            return self.object_guards.guard(addr, kind, depth)
        offset = addr & MAX_HEAP_OFFSET
        if offset >= self._heap_end:
            return self.object_guards.guard(addr, kind, depth)
        runtime = self.runtime
        region = offset // self._region_bytes
        write = kind is _WRITE
        if runtime.adaptive:
            profiler = self._profiler
            accesses = self._accesses
            count = accesses[region]
            if not count:
                self._touched.append(region)
            accesses[region] = count + 1
            if write:
                self._writes[region] += 1
            window = profiler._window
            stamps = self._object_stamp
            granule = offset >> self._object_shift
            if stamps[granule] != window:
                stamps[granule] = window
                self._objects[region] += 1
            stamps = self._page_stamp
            granule = offset >> self._page_shift
            if stamps[granule] != window:
                stamps[granule] = window
                self._pages[region] += 1
            last = profiler._last_region
            if region != last:
                if last >= 0:
                    profiler.window_transitions += 1
                profiler._last_region = region
            profiler.total_accesses += 1
            profiler.window_accesses = count = profiler.window_accesses + 1
            if count >= runtime.epoch_accesses:
                runtime.rebalance()
        if not self._paged[region]:
            return self.object_guards.guard(addr, kind, depth)
        page = (self._shadow[region] + offset % self._region_bytes) >> self._page_shift
        resident = self._resident
        if page in resident:
            if self._use_clock:
                resident[page] = True
            else:
                resident.move_to_end(page)
            if write:
                self._dirty.add(page)
            return self._page_hit
        # A fault: _touch_page returns its cycles (its counters land in
        # the shared bundle); the inherited access()/interpreter paths
        # add them exactly once, alongside the local access.
        cycles = self._touch_page(page, kind)
        return _guard_result((_NONE, cycles, True, True))

    def locality_guard(
        self, addr: int, kind: AccessKind, depth: int = 1
    ) -> GuardResult:
        return self.object_guards.locality_guard(addr, kind, depth=depth)


class AdaptiveHybridRuntime(TrackFMRuntime):
    """Online per-region path selection over the two hybrid tiers.

    A drop-in :class:`~repro.trackfm.runtime.TrackFMRuntime`: the
    allocator, chunk streams, prefetch schedules and the IR interpreter
    bridge all work unchanged.  What changes is the guard engine — a
    :class:`_TierRouter` that profiles every guarded access and serves
    regions the :class:`~repro.hybrid.selector.PathSelector` has flipped
    to :attr:`Placement.PAGES` through a private page tier at kernel
    fault costs instead of guard+fetch costs.

    Both tiers account into **one** metrics bundle (the object pool's),
    so ``metrics`` reads uniformly and nothing is double-charged: the
    page tier's ``_touch_page`` returns cycles for the inherited
    ``access``/interpreter paths to add, exactly like a guard result.

    Determinism: epochs are counted in guarded accesses, the profiler
    and selector are pure folds of the access stream, and migrations
    walk regions in sorted order — the same program replays bit-for-bit.
    """

    def __init__(
        self,
        local_memory: int,
        heap_size: int,
        object_size: int = 256,
        page_fraction: float = 0.5,
        region_bytes: Optional[int] = None,
        epoch_accesses: int = 256,
        selector_config: SelectorConfig = SelectorConfig(),
        overcommit_interleave_max: float = 0.125,
        adaptive: bool = True,
        object_backend=None,
        page_backend=None,
        cache=None,
    ) -> None:
        if not 0.0 < page_fraction < 1.0:
            raise RuntimeConfigError("page_fraction must be in (0, 1)")
        if epoch_accesses < 1:
            raise RuntimeConfigError("epoch_accesses must be >= 1")
        page_local = max(BASE_PAGE, int(local_memory * page_fraction))
        object_local = max(object_size, local_memory - page_local)
        super().__init__(
            PoolConfig(
                object_size=object_size,
                local_memory=object_local,
                heap_size=heap_size,
            ),
            backend=object_backend,
            cache=cache,
        )
        self.fastswap = FastswapRuntime(
            FastswapConfig(local_memory=page_local, heap_size=heap_size),
            backend=page_backend,
        )
        # One bundle backs both tiers: re-point the page tier (and its
        # backend/integrity plumbing) at the pool's metrics so the
        # inherited ``metrics`` property sees everything and stays a
        # stable, mutable object (the interpreter bridge mutates it).
        page_bundle = self.fastswap.metrics
        self.fastswap.metrics = self.pool.metrics
        if self.fastswap.backend.metrics is page_bundle:
            self.fastswap.backend.metrics = self.pool.metrics
        self.page_fraction = page_fraction
        self.region_bytes = (
            region_bytes if region_bytes is not None else self.fastswap.page_size
        )
        if self.region_bytes % self.fastswap.page_size != 0:
            raise RuntimeConfigError(
                "region_bytes must be a multiple of the page size so "
                "region shadows stay page-aligned"
            )
        self.epoch_accesses = epoch_accesses
        #: Windows whose region-interleave rate is at or below this are
        #: sweep-shaped: page-tier over-commit is cheap for them (one
        #: fault per page per pass) and the capacity gate stands aside.
        self.overcommit_interleave_max = overcommit_interleave_max
        self.adaptive = adaptive
        regions = ceil_div(self.pool.num_objects * object_size, self.region_bytes)
        self.profiler = DensityProfiler(
            self.region_bytes, object_size, self.fastswap.page_size, regions
        )
        self.selector = PathSelector(
            ChunkingCostModel(object_size, self.config.costs), selector_config
        )
        #: 1 for a page-placed region, indexed by region over the pool's
        #: heap: the placement map that routing and selection read.
        self._paged = bytearray(regions)
        #: Every region the selector has ever placed (flipped back ones
        #: included), for :meth:`region_placements`.  Written only by
        #: :meth:`_place`, together with ``_paged``.
        self._placement: Dict[int, Placement] = {}
        #: Page-heap base of each region's shadow range (lazily built;
        #: kept across flips so a region can bounce without new heap).
        self._shadow: Dict[int, int] = {}
        self.epochs = 0
        self.migration_log: List[MigrationEvent] = []
        # Route every guard through the selector's placement map.
        self._object_guards = self.guards
        self.guards = _TierRouter(self, self._object_guards)
        # Evictions double as migration points: a dirty object leaving
        # the pool while its region is page-placed re-homes its bytes
        # into the shadow page instead of only writing back remotely.
        self.pool.evacuator.on_evict = self._on_evict

    # -- wiring (both tiers, one surface) -----------------------------------

    def set_tracer(self, tracer) -> None:
        super().set_tracer(tracer)  # pool, router (.tracer), object backend
        self._object_guards.tracer = tracer
        self.fastswap.set_tracer(tracer)

    def enable_integrity(self, config: Optional[IntegrityConfig] = None):
        """Arm checksum verification on both tiers (shared metrics)."""
        checker = super().enable_integrity(config)
        self.fastswap.enable_integrity(config)
        return checker

    def recover(self) -> RecoveryReport:
        report = RecoveryReport()
        if self.pool.integrity is not None:
            report.merge(super().recover())
        if self.fastswap.integrity is not None:
            report.merge(self.fastswap.recover())
        return report

    def enable_degraded_mode(self, stall_cycles: float = 0.0, hook=None) -> None:
        super().enable_degraded_mode(stall_cycles, hook)
        self.fastswap.enable_degraded_mode(stall_cycles, hook)

    def remote_backends(self):
        return super().remote_backends() + self.fastswap.remote_backends()

    # -- placement bookkeeping ----------------------------------------------

    def placement_of(self, offset: int) -> Placement:
        """Current tier of the region containing heap ``offset``."""
        region = offset // self.region_bytes
        if 0 <= region < len(self._paged) and self._paged[region]:
            return Placement.PAGES
        return Placement.OBJECTS

    def region_placements(self) -> Dict[int, Placement]:
        """A snapshot of every non-default region placement."""
        return dict(self._placement)

    def _place(self, region: int, placement: Placement) -> None:
        self._paged[region] = placement is _PAGES
        self._placement[region] = placement

    # -- the page-tier access path -------------------------------------------

    def _ensure_shadow(self, region: int) -> int:
        shadow = self._shadow.get(region)
        if shadow is None:
            shadow = self.fastswap.allocate(self.region_bytes)
            self._shadow[region] = shadow
        return shadow

    # -- selection + migration -------------------------------------------------

    def rebalance(self) -> List[MigrationEvent]:
        """Fold the window, re-decide every profiled region, migrate flips.

        Called automatically every ``epoch_accesses`` guarded accesses;
        callable directly (the serving layer's chaos tests force an
        epoch mid-knockout).  Returns this epoch's migrations.
        """
        self.epochs += 1
        profiler = self.profiler
        interleave = profiler.interleave_rate()
        # Only windows at or above the selector's floor can flip a region.
        stats = profiler.fold(self.selector.config.min_accesses)
        if not stats:
            return []
        events: List[MigrationEvent] = []
        metrics = self.pool.metrics
        tracer = self.tracer
        # Capacity gate: the cost model prices one amortized fault per
        # distinct page, which only holds while the page tier can keep
        # the placed regions resident — or while the access stream runs
        # region-at-a-time (a sweep faults each page once per pass no
        # matter the capacity).  Over-commit is allowed for sweep-shaped
        # windows and refused for interleaved ones, where it would turn
        # every access into a fault.
        region_pages = self.region_bytes // self.fastswap.page_size
        capacity = self.fastswap.config.local_capacity_pages
        sweep_shaped = interleave <= self.overcommit_interleave_max
        placed = sum(self._paged) * region_pages
        decide = self.selector.decide
        paged = self._paged
        for region, window in stats.items():  # fold() sorts by region
            current = _PAGES if paged[region] else _OBJECTS
            decision = decide(window, current)
            if decision is current:
                continue
            if decision is _PAGES:
                if placed + region_pages > capacity and not sweep_shaped:
                    continue
                placed += region_pages
            else:
                placed -= region_pages
            self._place(region, decision)
            moved = self._migrate_region(region, decision)
            metrics.tier_switches += 1
            metrics.objects_migrated += moved
            event = MigrationEvent(self.epochs, region, current, decision, moved)
            events.append(event)
            self.migration_log.append(event)
            if tracer.enabled:
                tracer.tier(
                    "switch",
                    metrics.cycles,
                    region=region,
                    source=current.value,
                    target=decision.value,
                    objects=moved,
                )
        return events

    def _region_objects(self, region: int) -> Tuple[int, int]:
        """``(first_obj, count)`` of the region, clipped to the heap."""
        per_region = self.region_bytes // self.object_size
        first = region * per_region
        count = max(0, min(per_region, self.pool.num_objects - first))
        return first, count

    def _migrate_region(self, region: int, target: Placement) -> int:
        """Re-home one region's resident state; returns objects re-homed."""
        first, count = self._region_objects(region)
        if target is _PAGES:
            self._ensure_shadow(region)
            for obj_id in range(first, first + count):
                # expel() drives the evacuator, whose on_evict hook lands
                # dirty bytes in the shadow page; pinned objects stay put
                # and migrate later, at their natural eviction.
                self.pool.expel(obj_id)
            return count
        fs = self.fastswap
        shadow = self._shadow.get(region)
        if shadow is not None:
            metrics = self.pool.metrics
            first_page = fs.page_of(shadow)
            for page in range(first_page, first_page + self.region_bytes // fs.page_size):
                if page not in fs.residency:
                    continue
                dirty = fs.residency.is_dirty(page)
                fs.residency.discard(page)
                metrics.evictions += 1
                if dirty:
                    metrics.cycles += fs._write_back_page(page)
        return count

    def _on_evict(self, obj_id: int, dirty: bool) -> float:
        """Evacuator hook: the migration step at evacuation time."""
        offset = obj_id * self.object_size
        region = offset // self.region_bytes
        if not (dirty and self._paged[region]):
            return 0.0
        shadow = self._ensure_shadow(region)
        page = self.fastswap.page_of(shadow + (offset % self.region_bytes))
        # Resident + dirty without remote traffic: the bytes came from
        # the local object copy.  _reinstate_page self-accounts victim
        # reclaim/writeback cycles, so the hook itself returns 0.
        self.fastswap._reinstate_page(page)
        return 0.0
