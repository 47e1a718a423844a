"""Hybrid runtimes: TrackFM objects and kernel pages, side by side.

Two planes share the two tiers:

* :class:`HybridRuntime` — the *static* plane: an object/page split of
  one arena, fixed at construction.  Bytes below the split are guarded
  TrackFM objects, bytes above it kernel pages, and the page tier
  doubles as the degrade/fallback target when the object tier's far
  node is lost or an object is quarantined.  It takes arena offsets,
  like the AIFM and Fastswap runtimes do.
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
from functools import partial
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
from repro.trackfm.pointer import MAX_HEAP_OFFSET, TFM_TAG_MASK
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import BASE_PAGE, ceil_div

# Enum members bound once: a class lookup is slow (docs/performance.md).
_READ = AccessKind.READ
_WRITE = AccessKind.WRITE
_NONE = GuardKind.NONE
_OBJECTS = Placement.OBJECTS
_PAGES = Placement.PAGES
#: Builds a page fault's :class:`GuardResult` without ``_make``'s frame.
_guard_result = partial(tuple.__new__, GuardResult)

__all__ = [
    "AdaptiveHybridRuntime",
    "HybridRuntime",
    "MigrationEvent",
    "Placement",
]


class HybridRuntime:
    """Splits one arena, and local memory, between objects and pages.

    Arena bytes ``[0, split)`` live in a TrackFM object pool, bytes
    ``[split, arena)`` in a kernel page cache; ``page_fraction`` of
    local memory goes to the pages.  A plausible placement is the one
    §5 hints at — hot, densely-reused data on pages (faults amortize,
    hits are free of guard costs), fine-grained or cold data on objects
    (no amplification).

    Each tier keeps its own metrics bundle and :attr:`metrics` is their
    merged view: each tier's cycles add up in its own order, which the
    exact baselines pin.  The object tier's fallback books its degraded
    accesses in the page tier's bundle, which the serving layer also
    uses for its own counters.
    """

    def __init__(
        self,
        local_memory: int,
        heap_size: int,
        arena: int,
        split: int,
        object_size: int = 256,
        page_fraction: float = 0.5,
        object_backend=None,
        page_backend=None,
    ) -> None:
        if not 0.0 < page_fraction < 1.0:
            raise RuntimeConfigError("page_fraction must be in (0, 1)")
        if not 0 < split < arena:
            raise RuntimeConfigError("split must fall inside the arena")
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
        self.arena = arena
        #: The first arena offset on the page tier.
        self.split = split
        self._objects = self.trackfm.tfm_malloc(split)
        self._pages = self.fastswap.allocate(arena - split)
        #: Page-heap shadow of the object range, built by the first
        #: fallback access.
        self._fallback: Optional[int] = None

    @property
    def pool(self):
        """The object tier's pool."""
        return self.trackfm.pool

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

    def enable_degraded_mode(self, stall_cycles: float = 0.0, hook=None) -> None:
        """Serve page faults locally when the page tier's far node is lost.

        The object tier's own degrade rung is the page-tier fallback,
        so only the page tier is armed.
        """
        self.fastswap.enable_degraded_mode(stall_cycles, hook)

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

        Uniform across the runtimes; a hybrid shard is one fault domain
        spanning two links, so losing the shard must arm both.
        """
        return self.trackfm.remote_backends() + self.fastswap.remote_backends()

    # -- access ---------------------------------------------------------

    def access(self, offset: int, kind: AccessKind = _READ, size: int = 8) -> float:
        """One access at arena ``offset``, routed by the split."""
        split = self.split
        end = offset + size
        if offset < 0 or end > self.arena or offset < split < end:
            raise PointerError(
                f"access [{offset}, {end}) outside the {self.arena}-byte "
                f"arena or across its split at {split}"
            )
        if offset < split:
            try:
                return self.trackfm.access(self._objects + offset, kind, size)
            except (FarMemoryUnavailableError, DataIntegrityError):
                # The degrade rung of the integrity escalation ladder:
                # a quarantined object is served via the page tier
                # (whose copy is independently verified) instead of
                # surfacing the error to the program.
                return self._fallback_access(offset, kind, size)
        return self.fastswap.access(self._pages + offset - split, kind, size)

    def _fallback_access(self, offset: int, kind: AccessKind, size: int) -> float:
        """Serve an object access via the page tier: the hybrid's whole
        point is having a second mechanism to fall back on when the
        object path's remote backend is unavailable.

        The object range gets a lazily-created shadow in the page heap;
        subsequent fallback accesses reuse it, so a long outage behaves
        like the range had been placed on pages to begin with.
        """
        shadow = self._fallback
        if shadow is None:
            shadow = self._fallback = self.fastswap.allocate(self.split)
        self.fastswap.metrics.degraded_accesses += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.degrade(
                "hybrid_fallback",
                self.trackfm.metrics.cycles,
                addr=self._objects,
                offset=offset,
            )
        return self.fastswap.access(shadow + offset, kind, size)

    # -- metrics ------------------------------------------------------------

    @property
    def metrics(self) -> Metrics:
        """Merged view over both tiers' bundles."""
        merged = Metrics()
        merged.merge(self.trackfm.metrics)
        merged.merge(self.fastswap.metrics)
        return merged


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
        self._touched = profiler._touched
        # The profiler's granule layouts, finer first (see DensityProfiler).
        self._fine_stamp, self._fine_shift, self._fine_counts = profiler.fine
        self._coarse_stamp, self._coarse_shift, self._coarse_counts = profiler.coarse
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
        if not addr & TFM_TAG_MASK:
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
            stamps = self._fine_stamp
            granule = offset >> self._fine_shift
            if stamps[granule] != window:
                stamps[granule] = window
                self._fine_counts[region] += 1
                # Only a fresh fine granule can start a fresh coarse one.
                stamps = self._coarse_stamp
                granule = offset >> self._coarse_shift
                if stamps[granule] != window:
                    stamps[granule] = window
                    self._coarse_counts[region] += 1
            last = profiler._last_region
            if region != last:
                if last >= 0:
                    profiler.window_transitions += 1
                profiler._last_region = region
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
        self.region_bytes = (
            region_bytes if region_bytes is not None else self.fastswap.page_size
        )
        if self.region_bytes % self.fastswap.page_size != 0:
            raise RuntimeConfigError(
                "region_bytes must be a multiple of the page size so "
                "region shadows stay page-aligned"
            )
        # The page tier's geometry, read once: nothing reassigns a live
        # runtime's FastswapConfig, and the residency set was sized from
        # its local_capacity_pages.
        self._region_pages = self.region_bytes // self.fastswap.page_size
        self._page_capacity = self.fastswap.residency.capacity
        self.epoch_accesses = epoch_accesses
        #: Windows whose region-interleave rate is at or below this are
        #: sweep-shaped: page-tier over-commit is cheap for them (one
        #: fault per page per pass) and the capacity gate stands aside.
        self.overcommit_interleave_max = overcommit_interleave_max
        self.adaptive = adaptive
        regions = ceil_div(self.pool.num_objects * object_size, self.region_bytes)
        self.profiler = DensityProfiler(
            self.region_bytes, self.pool.object_shift, self.fastswap.page_shift, regions
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
        region_pages = self._region_pages
        capacity = self._page_capacity
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
            for page in range(first_page, first_page + self._region_pages):
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
