"""TrackFM guards: custody check, fast path, slow path, chunking guards.

This module reproduces the control flow of Fig. 4 in cost-model form:

1. **custody check** (~4 instructions): not a TrackFM pointer → run the
   original load/store untouched;
2. **object metadata lookup**: one indexed load from the object state
   table (the only fast-path data access — cached vs uncached decides
   the Table 1 column);
3. **fast path** (14 instructions): the unsafe mask is clear — the
   object is guaranteed local, and the DerefScope barrier semantics
   guarantee it stays local until the access retires;
4. **slow path** (>= 144 instructions): runtime call; localizes the
   object through AIFM (a remote fetch if needed) and triggers a
   collection point.

Loop chunking's **locality-invariant guard**, which pins one object for
a whole loop chunk (§3.4), also lives here; its per-iteration
3-instruction boundary check is booked by
:meth:`~repro.trackfm.runtime.TrackFMRuntime.chunk_access`.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple, Optional

from repro.aifm.objectmeta import UNSAFE_MASK
from repro.aifm.pool import ObjectPool
from repro.machine.cache import CacheModel
from repro.machine.costs import AccessKind, CostTable, GuardKind
from repro.sim.metrics import Metrics
from repro.trace.tracer import NULL_TRACER
from repro.trackfm.pointer import MAX_HEAP_OFFSET, TFM_TAG_MASK
from repro.trackfm.state_table import ENTRY_BYTES, ObjectStateTable

# Enum members bound once: a class lookup is slow (docs/performance.md).
_WRITE = AccessKind.WRITE
_FAST = GuardKind.FAST
_SLOW = GuardKind.SLOW
_LOCALITY = GuardKind.LOCALITY
_CUSTODY_MISS = GuardKind.CUSTODY_MISS


class GuardResult(NamedTuple):
    """Outcome of one guarded access (immutable: fast-path results are shared).

    A tuple: a frozen dataclass costs about three times as much to
    build, and the slow and locality guards build one per call.
    """

    kind: GuardKind
    cycles: float
    #: True when the state-table lookup hit the CPU cache.
    cache_hit: bool = True
    #: True when the object had to be fetched from the remote node.
    remote_fetch: bool = False


#: Builds a :class:`GuardResult` from a tuple, without ``_make``'s frame.
_result = partial(tuple.__new__, GuardResult)


class GuardEngine:
    """Executes guard semantics against a pool + state table."""

    def __init__(
        self,
        pool: ObjectPool,
        table: ObjectStateTable,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.pool = pool
        self.table = table
        self.metrics = metrics if metrics is not None else pool.metrics
        self.costs: CostTable = pool.config.costs
        #: Trace sink; disabled by default (one attribute check per guard).
        self.tracer = NULL_TRACER
        # Hot-path constants, hoisted once per engine (the CostTable is a
        # frozen dataclass and the pool geometry is fixed): the object id
        # is one mask and one shift, and a fast guard's result is a
        # prebuilt value indexed by the cache hit (False=0, True=1).
        c = self.costs
        self._object_shift = pool.object_shift
        # The state-table read and the residency hit, inlined: the cache,
        # the residency set and the pool's metadata words (a memoryview:
        # cheaper to index than ``ndarray.item``) are only ever updated in
        # place.  A cache class with its own ``access`` gets an empty set
        # table, so every lookup takes that method.
        cache = table.cache
        self._sets = cache._sets if type(cache) is CacheModel else {}
        self._line_size = cache.line_size
        self._num_sets = cache.num_sets
        self._cache_stats = cache.stats
        self._cache_access = cache.access
        self._table_base = table.base_addr
        self._words = memoryview(pool.meta_words)
        self._num_objects = pool.num_objects
        residency = pool.residency
        self._resident = residency._resident
        self._dirty = residency._dirty
        self._use_clock = residency.use_clock
        self._residency_access = residency.access
        self._fast_read = (
            GuardResult(_FAST, c.fast_guard_read_uncached, False),
            GuardResult(_FAST, c.fast_guard_read_cached),
        )
        self._fast_write = (
            GuardResult(_FAST, c.fast_guard_write_uncached, False),
            GuardResult(_FAST, c.fast_guard_write_cached),
        )
        self._slow_read = (c.slow_guard_read_uncached, c.slow_guard_read_cached)
        self._slow_write = (c.slow_guard_write_uncached, c.slow_guard_write_cached)
        self._custody_miss = GuardResult(_CUSTODY_MISS, c.custody_miss)

    # -- the full guard (naive transformation) ----------------------------

    def guard(self, addr: int, kind: AccessKind, depth: int = 1) -> GuardResult:
        """Guard one load/store at ``addr``; returns the path taken.

        The cycles returned cover guard code plus any data movement; the
        target access itself (36 cycles) is charged by the caller so the
        accounting matches Table 1's "additional overhead" framing.
        """
        # Custody check (Fig. 4b line 0): are any of bits 60..63 set?
        if not addr & TFM_TAG_MASK:
            return self._custody(kind)
        # The pointer is decoded once: heap offset >> log2(object size).
        obj_id = (addr & MAX_HEAP_OFFSET) >> self._object_shift
        # ObjectStateTable.lookup without its frames: CacheModel.access's
        # hit (a miss fills through it), then the word; meta_word rejects
        # an out-of-heap id.
        entry = self._table_base + obj_id * ENTRY_BYTES
        line = entry // self._line_size
        entries = self._sets.get(line % self._num_sets)
        tag = line // self._num_sets
        if entries is not None and tag in entries:
            entries.move_to_end(tag)
            self._cache_stats.hits += 1
            cache_hit = True
        else:
            cache_hit = self._cache_access(entry)
        if obj_id < self._num_objects:
            word = self._words[obj_id]
        else:
            word = self.pool.meta_word(obj_id)
        if word & UNSAFE_MASK:
            return self._slow_path(obj_id, kind, cache_hit, depth)
        # The evacuator barrier (§3.3) guarantees no TOCTOU: while a
        # thread is inside a guard it is never "out-of-scope", so the
        # object cannot be delocalized between the test and the access.
        # A safe object is resident: this is ResidencySet.access's hit.
        write = kind is _WRITE
        resident = self._resident
        if obj_id in resident:
            if self._use_clock:
                resident[obj_id] = True
            else:
                resident.move_to_end(obj_id)
            if write:
                self._dirty.add(obj_id)
        else:
            self._residency_access(obj_id, write)
        result = (self._fast_write if write else self._fast_read)[cache_hit]
        guards = self.metrics.guards
        guards[_FAST] = guards.get(_FAST, 0) + 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.guard(_FAST, obj_id, kind, self.metrics.cycles, result.cycles)
        return result

    def _custody(self, kind: AccessKind) -> GuardResult:
        """Not a TrackFM pointer: the original access runs untouched."""
        self.metrics.count_guard(_CUSTODY_MISS)
        tracer = self.tracer
        if tracer.enabled:
            tracer.guard(
                _CUSTODY_MISS, None, kind,
                self.metrics.cycles, self.costs.custody_miss,
            )
        return self._custody_miss

    def _slow_path(
        self, obj_id: int, kind: AccessKind, cache_hit: bool, depth: int
    ) -> GuardResult:
        was_local, movement = self.pool.ensure_local(obj_id, kind is _WRITE, depth)
        cycles = (self._slow_write if kind is _WRITE else self._slow_read)[cache_hit] + movement
        guards = self.metrics.guards
        guards[_SLOW] = guards.get(_SLOW, 0) + 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.guard(_SLOW, obj_id, kind, self.metrics.cycles, cycles)
        return _result((_SLOW, cycles, cache_hit, not was_local))

    # -- loop chunking (optimized transformation) --------------------------

    def locality_guard(
        self, addr: int, kind: AccessKind, depth: int = 1
    ) -> GuardResult:
        """Pin the object at ``addr`` local for one loop chunk.

        Called when the boundary check fires: a runtime call that
        localizes the object (remote fetch if needed) and pins it so the
        chunk's unguarded accesses are safe.
        """
        if not addr & TFM_TAG_MASK:
            return self._custody(kind)
        obj_id = (addr & MAX_HEAP_OFFSET) >> self._object_shift
        was_local, movement = self.pool.ensure_local(obj_id, kind is _WRITE, depth)
        cycles = self.costs.locality_guard + movement
        guards = self.metrics.guards
        guards[_LOCALITY] = guards.get(_LOCALITY, 0) + 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.guard(_LOCALITY, obj_id, kind, self.metrics.cycles, cycles)
        return _result((_LOCALITY, cycles, True, not was_local))
