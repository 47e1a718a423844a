"""The TrackFM runtime facade.

This is the layer the compiler-injected code talks to (Fig. 1's "TrackFM
runtime"): the custom malloc returning non-canonical pointers, the guard
entry points, the chunked-loop state (Fig. 5's ``tfm_init``/``tfm_rw``),
and the bridge into the AIFM object pool.

Two execution styles are provided, with identical accounting:

* **per-access replay** (``access``/``chunk_*``): every memory access is
  simulated individually — used for irregular access streams and the IR
  interpreter bridge;
* **the closed form** (``cost_plan``): the same arithmetic evaluated
  in bulk for an :class:`~repro.sim.plan.AccessPlan`, so 12 GB-shaped
  STREAM sweeps run in milliseconds.

Every guarded access of an interpreted program goes through one of four
entry points: ``tfm_guard_read``/``tfm_guard_write`` and
``tfm_chunk_deref``/``tfm_chunk_deref_write``.  Each guards, charges
and returns the pointer's *canonical twin*, ``TWIN_BASE + heap
offset``: the address the bytes of a TrackFM allocation live at in the
interpreter's memory, the simulation analogue of "the guard reverts the
non-canonical address back into a canonical address" (§3.3).  The
legacy engine calls them on every access.  Generated code runs their
hit paths inline, as TrackFM's compiler does (Fig. 4b, Fig. 5), from
the :class:`InlineState` that :meth:`TrackFMRuntime.inline_state`
builds, and calls them only on a slow path, an object crossing or a
custody miss.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.aifm.allocator import Allocation, RegionAllocator
from repro.aifm.pool import ObjectPool, PoolConfig
from repro.aifm.prefetcher import ProgrammedSchedule, StridePrefetcher
from repro.errors import PointerError, RuntimeConfigError
from repro.integrity import (
    IntegrityChecker,
    IntegrityConfig,
    RecoveryManager,
    RecoveryReport,
    attach_integrity,
)
from repro.machine.cache import CacheModel, CacheStats
from repro.machine.costs import AccessKind, GuardKind
from repro.net.backends import RemoteBackend
from repro.sim.metrics import Metrics
from repro.sim.plan import AccessPattern, AccessPlan
from repro.trace.tracer import NULL_TRACER
from repro.trackfm.guards import GuardEngine
from repro.trackfm.pointer import (
    MAX_HEAP_OFFSET,
    TFM_BASE,
    TFM_TAG_MASK,
    decode_tfm_pointer,
    encode_tfm_pointer,
    is_tfm_pointer,
)
from repro.trackfm.state_table import ObjectStateTable


#: Canonical twin base: 2^43, comfortably inside the 47-bit canonical
#: range and away from the interpreter's stack/global/libc-heap bases.
TWIN_BASE = 1 << 43

# Enum members bound once: a class lookup is slow (docs/performance.md).
_WRITE = AccessKind.WRITE
_BOUNDARY = GuardKind.BOUNDARY


class GuardStrategy(enum.Enum):
    """How the compiler decided to guard a given loop's accesses."""

    #: Every access gets a full guard (the baseline transformation).
    NAIVE = "naive"
    #: Loop chunking: boundary checks + per-object locality guards.
    CHUNKED = "chunked"
    #: Chunking plus stride prefetching of the induction-variable stream.
    CHUNKED_PREFETCH = "chunked_prefetch"


@dataclass
class _ChunkState:
    """Fig. 5's (end, ptrid) state for one chunked pointer stream."""

    current_obj: Optional[int] = None
    pinned: bool = False
    #: Whether the compiler asked for stride prefetching on this stream.
    prefetch: bool = False
    #: The allocation the stream's last prefetching crossing landed in,
    #: and its object range, which clips the stream's prefetches.
    clip_alloc: Optional[Allocation] = None
    clip: Tuple[int, int] = (0, 0)


def _guard_entry(kind: AccessKind):
    """``tfm_guard_{read,write}(ptr)``: guard, charge, return the twin."""

    def entry(self: "TrackFMRuntime", ptr: int) -> int:
        # ``self.guards`` is read per call: the adaptive hybrid swaps in
        # a tier router after construction.
        cycles = self.guards.guard(ptr, kind).cycles
        metrics = self._metrics
        if not ptr & TFM_TAG_MASK:
            # Custody miss: the original pointer is used untouched.
            metrics.cycles += cycles
            return ptr
        metrics.accesses += 1
        metrics.cycles += cycles + self._local_access
        return TWIN_BASE + (ptr & MAX_HEAP_OFFSET)

    entry.__name__ = f"tfm_guard_{kind.value}"
    entry.__qualname__ = f"TrackFMRuntime.{entry.__name__}"
    return entry


def _deref_entry(kind: AccessKind):
    """``tfm_chunk_deref[_write](ptr, stream)``: one chunked access,
    charged, returning the twin."""

    def entry(self: "TrackFMRuntime", ptr: int, stream: int) -> int:
        if not ptr & TFM_TAG_MASK:
            return ptr
        # A stream that was never begun is rejected by chunk_access.
        state = self._chunks.get(stream)
        self.chunk_access(ptr, kind, stream, state is not None and state.prefetch)
        return TWIN_BASE + (ptr & MAX_HEAP_OFFSET)

    entry.__name__ = "tfm_chunk_deref_write" if kind is _WRITE else "tfm_chunk_deref"
    entry.__qualname__ = f"TrackFMRuntime.{entry.__name__}"
    return entry


class InlineState(NamedTuple):
    """What generated code's inline guard and deref hits read for one run.

    :mod:`repro.sim.codegen` unpacks it into locals named ``t_<field>``
    and repeats, at each guard or deref site, what
    :meth:`GuardEngine.guard`'s fast path and :meth:`TrackFMRuntime.chunk_access`
    on a stream's pinned object book: the state-table word test, the
    cache model's hit, the residency set's hit, the guard count,
    ``accesses`` and ``cycles``.  Every container is the live object the
    runtime mutates in place, so the bound state stays current for the
    whole run.
    """

    metrics: Metrics
    #: ``metrics.guards``.
    guards: Dict[GuardKind, int]
    #: The state table's words: a view of the pool's metadata array,
    #: which is only ever updated in place (an index is one word read,
    #: about half the cost of ``ndarray.item``).
    words: memoryview
    num_objects: int
    object_shift: int
    #: The cache model's sets; a fresh empty dict for a cache class
    #: with its own ``access``, so every lookup takes that method.
    sets: Dict[int, "OrderedDict[int, None]"]
    table_base: int
    line_size: int
    num_sets: int
    cache_stats: CacheStats
    #: The cache model's ``access``: a miss fills through it.
    cache_access: Callable[[int], bool]
    #: The residency set's recency order with CLOCK hot bits, its dirty
    #: set and mode, and its ``access`` for a granule that is not resident.
    resident: "OrderedDict[int, bool]"
    dirty: Set[int]
    use_clock: bool
    residency_access: Callable
    #: Chunk stream -> its :class:`_ChunkState`.
    chunks: Dict[int, _ChunkState]
    #: Cycles a fast guard books, indexed by the cache hit (False, True):
    #: the guard's cost plus the access.
    fast_read: Tuple[float, float]
    fast_write: Tuple[float, float]
    #: Cycles a deref on its stream's pinned object books.
    chunk_hit: float


class TrackFMRuntime:
    """Far memory for unmodified programs, at AIFM-object granularity."""

    def __init__(
        self,
        config: PoolConfig,
        backend: Optional[RemoteBackend] = None,
        cache: Optional[CacheModel] = None,
        prefetch_depth: int = 8,
        tracer=None,
    ) -> None:
        if prefetch_depth < 1:
            raise RuntimeConfigError("prefetch_depth must be >= 1")
        self.config = config
        self.pool = ObjectPool(config, backend=backend)
        self.table = ObjectStateTable(self.pool, cache=cache)
        self.guards = GuardEngine(self.pool, self.table)
        self.allocator = RegionAllocator(config.heap_size, config.object_size)
        self.prefetcher = StridePrefetcher(depth=prefetch_depth)
        self.prefetch_depth = prefetch_depth
        self.object_size = config.object_size
        self._object_mask = config.object_size - 1
        self._metrics = self.pool.metrics
        self._local_access = config.costs.local_access
        self._chunks: Dict[int, _ChunkState] = {}
        #: Heap offsets of live ``tfm_malloc_pinned`` allocations.
        self._pinned_offsets: Set[int] = set()
        #: Object -> live pinned allocations on it.  Together they hold
        #: one pin on it, whatever else (a chunk stream) pins it too.
        self._pin_cover: Dict[int, int] = {}
        #: Compiler-programmed prefetch schedules, keyed by chunk stream.
        self._psched: Dict[int, ProgrammedSchedule] = {}
        self.initialized = False
        self.tracer = NULL_TRACER
        if tracer is not None:
            self.set_tracer(tracer)

    def set_tracer(self, tracer) -> None:
        """Attach a tracer to every event source in this runtime."""
        self.tracer = tracer
        self.pool.tracer = tracer
        self.guards.tracer = tracer
        self.pool.backend.set_tracer(tracer)

    def enable_integrity(
        self, config: Optional[IntegrityConfig] = None
    ) -> IntegrityChecker:
        """Checksum-verify every remote fetch (detect → repair → quarantine).

        Attaches an :class:`~repro.integrity.IntegrityChecker` to the
        pool's backend, wired into this runtime's metrics and tracer;
        dirty writebacks start following the write-ahead evacuation
        journal.  Returns the checker.
        """
        checker = attach_integrity(self.pool.backend, config)
        checker.metrics = self.pool.metrics
        checker.tracer = self.tracer
        return checker

    def recover(self) -> RecoveryReport:
        """Replay/roll back the evacuation journal and rebuild residency.

        The pool's metadata array is rebuilt *in place*, so the state
        table (which aliases it) observes the recovered words directly.
        """
        return RecoveryManager.for_pool(self.pool).recover()

    def enable_degraded_mode(
        self,
        stall_cycles: float = 0.0,
        hook=None,
    ) -> None:
        """Serve accesses locally when far memory is unavailable.

        Without this, an open circuit breaker surfaces
        :class:`~repro.errors.FarMemoryUnavailableError` through the
        guard to the program.  With it, the guard's slow path falls back
        to the local tier: each degraded access charges ``stall_cycles``
        (or whatever ``hook(obj_id)`` returns) and is counted in
        ``metrics.degraded_accesses``.
        """
        if hook is not None:
            self.pool.degraded_handler = hook
        else:
            self.pool.degraded_handler = lambda _obj_id: stall_cycles

    def remote_backends(self) -> Tuple[RemoteBackend, ...]:
        """Every far node this runtime talks to (one: the pool's).

        The uniform hook the sharded serving layer uses to reach a
        runtime's fault domains — arming a shard-loss schedule, reading
        breaker state — without knowing which runtime kind it holds.
        """
        return (self.pool.backend,)

    @property
    def metrics(self) -> Metrics:
        return self.pool.metrics

    @property
    def costs(self):
        return self.config.costs

    # -- runtime init (what the runtime-initialization pass hooks up) --------

    def initialize(self) -> None:
        """Called from the instrumented main's first block."""
        self.initialized = True

    # -- allocation (the libc-transformation targets) ----------------------

    def tfm_malloc(self, size: int) -> int:
        """Allocate remotable memory; returns a non-canonical pointer."""
        alloc = self.allocator.allocate(size)
        return encode_tfm_pointer(alloc.offset)

    def tfm_calloc(self, count: int, size: int) -> int:
        return self.tfm_malloc(count * size)

    def tfm_malloc_pinned(self, size: int) -> int:
        """Allocate *local-pinned* memory (the heap-pruning extension).

        The allocation's objects are materialized resident and pinned:
        the evacuator can never remote them, so accesses need no guard.
        Returns the heap offset; callers treat the memory as canonical.
        Over-pinning beyond local capacity raises
        :class:`~repro.errors.EvacuationError` — the compile-time pin
        budget is supposed to prevent that.
        """
        alloc = self.allocator.allocate(size)
        first, last = alloc.object_range(self.object_size)
        cover = self._pin_cover
        for obj_id in range(first, last):
            if obj_id not in cover:
                if self.pool.residency.is_pinned(obj_id):
                    self.pool.pin(obj_id)
                else:
                    self.pool.materialize(obj_id, pinned=True)
            cover[obj_id] = cover.get(obj_id, 0) + 1
        self._pinned_offsets.add(alloc.offset)
        return alloc.offset

    def is_pinned_allocation(self, offset: int) -> bool:
        """Whether ``offset`` starts a live :meth:`tfm_malloc_pinned` allocation."""
        return offset in self._pinned_offsets

    def tfm_free(self, ptr: int) -> None:
        if not is_tfm_pointer(ptr):
            raise PointerError(f"tfm_free of non-TrackFM pointer {ptr:#x}")
        self._release(*self.allocator.free(decode_tfm_pointer(ptr)))

    def tfm_free_pinned(self, offset: int) -> None:
        """Free a pinned allocation by the heap offset it was returned as.

        Objects no live allocation still uses are dropped, and with them
        their pins.  An object a live neighbour shares stays resident,
        and stays pinned only while a live pinned allocation shares it.
        """
        if offset not in self._pinned_offsets:
            raise PointerError(f"tfm_free_pinned of {offset:#x}: not a pinned allocation")
        self._release(*self.allocator.free(offset))

    def _release(self, alloc: Allocation, recycled: List[int]) -> None:
        """Drop the objects a free recycled (no live allocation uses
        them), and a freed pinned allocation's pins."""
        pool = self.pool
        for obj_id in recycled:
            pool.free_object(obj_id)
        dropped = set(recycled)
        # A chunk stream on a dropped object lost its pin with it.
        for state in self._chunks.values():
            if state.current_obj in dropped:
                state.current_obj = None
                state.pinned = False
        if alloc.offset not in self._pinned_offsets:
            return
        self._pinned_offsets.discard(alloc.offset)
        # Give up the pins no live pinned allocation shares; an object
        # a live neighbour uses stays resident.
        cover = self._pin_cover
        first, last = alloc.object_range(self.object_size)
        for obj_id in range(first, last):
            count = cover.pop(obj_id) - 1
            if count:
                cover[obj_id] = count
            elif obj_id not in dropped:
                pool.unpin(obj_id)

    def allocation_of(self, ptr: int) -> Allocation:
        """The live allocation containing ``ptr`` (debug/testing aid)."""
        alloc = self.allocator.allocation_at(decode_tfm_pointer(ptr))
        if alloc is None:
            raise PointerError(f"{ptr:#x} is not inside a live allocation")
        return alloc

    # -- guarded single accesses (naive transformation) ---------------------

    def access(
        self,
        ptr: int,
        kind: AccessKind = AccessKind.READ,
        size: int = 8,
        depth: int = 1,
    ) -> float:
        """One guarded load/store; returns cycles (guard + access)."""
        # ``self.guards`` is read per call: the adaptive hybrid swaps in
        # a tier router after construction.
        cycles = self.guards.guard(ptr, kind, depth).cycles + self._local_access
        # Accesses spanning an object boundary guard the tail object too.
        if (
            (ptr & self._object_mask) + size > self.object_size
            and ptr & TFM_TAG_MASK
        ):
            guard = self.guards.guard
            shift = self.pool.object_shift
            first = (ptr & MAX_HEAP_OFFSET) >> shift
            last = ((ptr + size - 1) & MAX_HEAP_OFFSET) >> shift
            for obj_id in range(first + 1, last + 1):
                cycles += guard(TFM_BASE | (obj_id << shift), kind, depth).cycles
        metrics = self._metrics
        metrics.accesses += 1
        metrics.cycles += cycles
        return cycles

    # -- chunked loop streams (Fig. 5's transformed loop) --------------------

    def chunk_begin(self, stream: int = 0, prefetch: bool = False) -> float:
        """``tfm_init``/``tfm_rw``: set up chunk state for one loop entry.

        ``prefetch`` is the compiler's per-loop choice; the stream's
        :meth:`tfm_chunk_deref` calls pass it on to :meth:`chunk_access`.
        """
        self._chunks[stream] = _ChunkState(prefetch=bool(prefetch))
        cycles = self.costs.chunk_setup
        self.metrics.cycles += cycles
        return cycles

    def install_prefetch_schedule(
        self,
        stream: int,
        ptr: int,
        offset: int,
        stride: int,
        count: int,
        distance: int,
    ) -> float:
        """``tfm_prefetch_sched``: arm a stream with an exact schedule.

        The compiler statically derived the loop's affine address stream
        ``addr(k) = ptr + offset + k*stride`` (k < count); this lowers
        it to the distinct first-touch object ids, clipped to the
        pointer's allocation, and primes the first ``distance`` of them
        so the loop's very first touches are already in flight —
        skipping the stride prefetcher's learning misses entirely.
        Returns the cycles charged for the priming fetches.
        """
        if not is_tfm_pointer(ptr) or count <= 0:
            return 0.0
        base = decode_tfm_pointer(ptr)
        lo, hi = 0, self.pool.num_objects
        alloc = self.allocator.allocation_at(base)
        if alloc is not None:
            lo, hi = alloc.object_range(self.object_size)
        objects: list = []
        last = None
        for k in range(count):
            obj_id = (base + offset + k * stride) // self.object_size
            if obj_id != last and lo <= obj_id < hi:
                objects.append(obj_id)
            last = obj_id
        sched = ProgrammedSchedule(objects=objects, distance=max(1, distance))
        self._psched[stream] = sched
        cycles = 0.0
        for target in sched.prime():
            cycles += self.pool.prefetch(target)
        self.metrics.cycles += cycles
        return cycles

    def chunk_access(
        self,
        ptr: int,
        kind: AccessKind = AccessKind.READ,
        stream: int = 0,
        prefetch: bool = False,
    ) -> float:
        """One access inside a chunked loop body."""
        state = self._chunks.get(stream)
        if state is None:
            raise RuntimeConfigError(
                f"chunk_access on stream {stream} before chunk_begin"
            )
        # The per-iteration boundary check (3 instructions, Fig. 5).
        guards = self._metrics.guards
        guards[_BOUNDARY] = guards.get(_BOUNDARY, 0) + 1
        cycles = self.config.costs.boundary_check
        if ptr & TFM_TAG_MASK:
            obj_id = (ptr & MAX_HEAP_OFFSET) >> self.pool.object_shift
            if obj_id != state.current_obj:
                if state.pinned and state.current_obj is not None:
                    self.pool.residency.unpin(state.current_obj)
                depth = self.prefetch_depth if prefetch else 1
                result = self.guards.locality_guard(ptr, kind, depth=depth)
                cycles += result.cycles
                # The locality guard has range-checked ``obj_id``.
                self.pool.residency.pin(obj_id)
                state.current_obj = obj_id
                state.pinned = True
                sched = self._psched.get(stream)
                if sched is not None:
                    # Programmed schedule: exact targets, no learning.
                    for target in sched.observe(obj_id):
                        cycles += self.pool.prefetch(target)
                elif prefetch:
                    # Clip prefetch targets to the allocation the pointer
                    # belongs to; fetching past it would be pure waste.
                    # The stream keeps the clip while the allocation is
                    # live and holds the pointer.
                    offset = ptr & MAX_HEAP_OFFSET
                    alloc = state.clip_alloc
                    if alloc is None or not (
                        alloc.offset <= offset < alloc.offset + alloc.size
                        and self.allocator.is_live(alloc)
                    ):
                        alloc = state.clip_alloc = self.allocator.allocation_at(offset)
                        state.clip = (
                            (0, self.pool.num_objects) if alloc is None
                            else alloc.object_range(self.object_size)
                        )
                    lo, hi = state.clip
                    for target in self.prefetcher.observe(obj_id, stream=stream):
                        if lo <= target < hi:
                            cycles += self.pool.prefetch(target)
            else:
                self.pool.residency.access(obj_id, kind is _WRITE)
        cycles += self._local_access
        metrics = self.pool.metrics
        metrics.accesses += 1
        metrics.cycles += cycles
        return cycles

    # -- the interpreter's per-access entry points -----------------------

    tfm_guard_read = _guard_entry(AccessKind.READ)
    tfm_guard_write = _guard_entry(AccessKind.WRITE)
    tfm_chunk_deref = _deref_entry(AccessKind.READ)
    tfm_chunk_deref_write = _deref_entry(AccessKind.WRITE)

    def inline_state(self) -> Optional[InlineState]:
        """The state generated code's inline hits read, for one run.

        None, so every site calls its entry point, when the guards are
        not this runtime's own :class:`GuardEngine` (the adaptive
        hybrid routes them through its tier router) or a tracer is
        enabled (a fast guard emits an event).
        """
        guards = self.guards
        if type(guards) is not GuardEngine or self.tracer.enabled or guards.tracer.enabled:
            return None
        costs = self.costs
        local = self._local_access
        # The guard engine's own bindings, so both hits read one state.
        return InlineState(
            metrics=self._metrics,
            guards=self._metrics.guards,
            words=guards._words,
            num_objects=guards._num_objects,
            object_shift=guards._object_shift,
            sets=guards._sets,
            table_base=guards._table_base,
            line_size=guards._line_size,
            num_sets=guards._num_sets,
            cache_stats=guards._cache_stats,
            cache_access=guards._cache_access,
            resident=guards._resident,
            dirty=guards._dirty,
            use_clock=guards._use_clock,
            residency_access=guards._residency_access,
            chunks=self._chunks,
            fast_read=(costs.fast_guard_read_uncached + local,
                       costs.fast_guard_read_cached + local),
            fast_write=(costs.fast_guard_write_uncached + local,
                        costs.fast_guard_write_cached + local),
            chunk_hit=costs.boundary_check + local,
        )

    def chunk_end(self, stream: int = 0) -> None:
        """Tear down a chunk stream (loop exit): unpin, forget state."""
        state = self._chunks.pop(stream, None)
        if state is not None and state.pinned and state.current_obj is not None:
            self.pool.unpin(state.current_obj)
        self.prefetcher.reset(stream)
        self._psched.pop(stream, None)

    # -- the closed form -------------------------------------------------------

    def cost_plan(
        self,
        plan: AccessPlan,
        resident_fraction: float = 0.0,
        strategy: GuardStrategy = GuardStrategy.NAIVE,
    ) -> float:
        """Bulk cost of one access plan (:mod:`repro.sim.plan`).

        ``resident_fraction`` is the probability an object is already
        local when a scan first touches it, or a lookup's hit rate.
        ``strategy`` is how the compiler guarded a scan's loop: the
        chunk setup is paid per loop entry, which is what penalizes
        chunking nested short loops (Fig. 8/15).  A lookup is guarded
        on its own: a hit pays a cached fast guard, a miss an uncached
        slow guard plus the fetch, and evicts a victim.
        """
        n_elems = plan.n_elems
        if n_elems <= 0:
            return 0.0
        n_objects, misses = plan.misses(self.object_size, resident_fraction)
        costs = self.costs
        kind = plan.kind
        body = costs.local_access if plan.body_cycles is None else plan.body_cycles
        cycles = n_elems * body
        metrics = self.metrics
        link = self.pool.backend.link
        fetch_each = link.transfer_cycles(self.object_size)

        tracer = self.tracer
        if plan.pattern is AccessPattern.RANDOM:
            hits = n_elems - misses
            cycles += hits * costs.fast_guard(kind, cached=True)
            cycles += misses * (
                costs.slow_guard_local(kind, cached=False) + fetch_each
            )
            metrics.count_guard(GuardKind.FAST, hits)
            metrics.count_guard(GuardKind.SLOW, misses)
            metrics.evictions += misses
            if tracer.enabled:
                tracer.counter(
                    "scan_guards", metrics.cycles, fast=hits, slow=misses,
                )
        elif strategy is GuardStrategy.NAIVE:
            # One slow-path guard per object (its first touch), fast-path
            # guards for the rest.  State-table lookups for one object's
            # elements share a cache line, so fast guards are cached.
            fast = max(n_elems - n_objects, 0)
            cycles += fast * costs.fast_guard(kind, cached=True)
            cycles += misses * (
                costs.slow_guard_local(kind, cached=False) + fetch_each
            )
            cycles += (n_objects - misses) * costs.slow_guard_local(kind, cached=True)
            metrics.count_guard(GuardKind.FAST, fast)
            metrics.count_guard(GuardKind.SLOW, n_objects)
            if tracer.enabled:
                tracer.counter(
                    "scan_guards", metrics.cycles, fast=fast, slow=n_objects,
                )
        else:
            cycles += plan.entries * costs.chunk_setup
            cycles += n_elems * costs.boundary_check
            cycles += n_objects * costs.locality_guard
            if strategy is GuardStrategy.CHUNKED_PREFETCH:
                fetch_each = link.wire_cycles(self.object_size)
                metrics.prefetches_issued += misses
                metrics.prefetches_useful += misses
                if tracer.enabled and misses:
                    tracer.prefetch(
                        misses * self.object_size, metrics.cycles,
                        useful=True, n=misses, name="scan_prefetch",
                    )
            cycles += misses * fetch_each
            metrics.count_guard(GuardKind.BOUNDARY, n_elems)
            metrics.count_guard(GuardKind.LOCALITY, n_objects)
            if tracer.enabled:
                tracer.counter(
                    "scan_guards", metrics.cycles,
                    boundary=n_elems, locality=n_objects,
                )

        if misses:
            integrity = self.pool.backend.integrity
            if integrity is not None:
                # Closed forms verify each fetched object's checksum (no
                # corruption rolls: the closed form models the
                # healthy-payload cost envelope).
                cycles += misses * integrity.config.verify_cycles
            metrics.remote_fetches += misses
            metrics.bytes_fetched += misses * self.object_size
            link.stats.messages += misses
            link.stats.bytes_fetched += misses * self.object_size
            if tracer.enabled:
                tracer.fetch(
                    misses * self.object_size, fetch_each, metrics.cycles,
                    n=misses, name="scan_fetch",
                )
            if plan.writes_back:
                # Displaced dirty objects are written back by the evacuator.
                wb = link.wire_cycles(self.object_size)
                cycles += misses * wb * self.pool.evacuator.sync_fraction
                metrics.bytes_evacuated += misses * self.object_size
                if plan.pattern is not AccessPattern.RANDOM:
                    metrics.evictions += misses
                link.stats.bytes_evicted += misses * self.object_size
                if tracer.enabled:
                    tracer.evict(
                        misses * self.object_size, metrics.cycles,
                        n=misses, dirty=misses, name="scan_evict",
                    )

        metrics.accesses += n_elems
        metrics.cycles += cycles
        return cycles
