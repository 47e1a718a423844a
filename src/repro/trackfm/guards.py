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

Loop chunking's two helpers also live here: the 3-instruction
**boundary check** and the **locality-invariant guard** that pins one
object for a whole loop chunk (§3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.aifm.objectmeta import UNSAFE_MASK
from repro.aifm.pool import ObjectPool
from repro.machine.costs import AccessKind, CostTable, GuardKind
from repro.sim.metrics import Metrics
from repro.trace.tracer import NULL_TRACER
from repro.trackfm.pointer import MAX_HEAP_OFFSET, TFM_TAG_SHIFT, U64_MASK
from repro.trackfm.state_table import ObjectStateTable

_FAST = GuardKind.FAST


@dataclass(frozen=True)
class GuardResult:
    """Outcome of one guarded access (immutable: fast-path results are shared)."""

    kind: GuardKind
    cycles: float
    #: True when the state-table lookup hit the CPU cache.
    cache_hit: bool = True
    #: True when the object had to be fetched from the remote node.
    remote_fetch: bool = False


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
        self._fast_read = (
            GuardResult(GuardKind.FAST, c.fast_guard_read_uncached, cache_hit=False),
            GuardResult(GuardKind.FAST, c.fast_guard_read_cached),
        )
        self._fast_write = (
            GuardResult(GuardKind.FAST, c.fast_guard_write_uncached, cache_hit=False),
            GuardResult(GuardKind.FAST, c.fast_guard_write_cached),
        )
        self._custody_miss = GuardResult(GuardKind.CUSTODY_MISS, c.custody_miss)

    # -- the full guard (naive transformation) ----------------------------

    def guard(self, addr: int, kind: AccessKind, depth: int = 1) -> GuardResult:
        """Guard one load/store at ``addr``; returns the path taken.

        The cycles returned cover guard code plus any data movement; the
        target access itself (36 cycles) is charged by the caller so the
        accounting matches Table 1's "additional overhead" framing.
        """
        # Custody check (Fig. 4b line 0): are any of bits 60..63 set?
        if not (addr & U64_MASK) >> TFM_TAG_SHIFT:
            return self._custody(kind)
        # The pointer is decoded once: heap offset >> log2(object size).
        # Out-of-heap ids are rejected by the pool's range check.
        obj_id = (addr & MAX_HEAP_OFFSET) >> self._object_shift
        word, cache_hit = self.table.lookup(obj_id)
        if word & UNSAFE_MASK:
            return self._slow_path(obj_id, kind, cache_hit, depth)
        # The evacuator barrier (§3.3) guarantees no TOCTOU: while a
        # thread is inside a guard it is never "out-of-scope", so the
        # object cannot be delocalized between the test and the access.
        # A safe object is resident: recording the hit is all the
        # residency set has to do.
        write = kind is AccessKind.WRITE
        residency = self.pool.residency
        if not residency.touch(obj_id, write):
            residency.access(obj_id, write=write)
        result = (self._fast_write if write else self._fast_read)[cache_hit]
        guards = self.metrics.guards
        guards[_FAST] = guards.get(_FAST, 0) + 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.guard(
                GuardKind.FAST, obj_id, kind, self.metrics.cycles, result.cycles
            )
        return result

    def _custody(self, kind: AccessKind) -> GuardResult:
        """Not a TrackFM pointer: the original access runs untouched."""
        self.metrics.count_guard(GuardKind.CUSTODY_MISS)
        tracer = self.tracer
        if tracer.enabled:
            tracer.guard(
                GuardKind.CUSTODY_MISS, None, kind,
                self.metrics.cycles, self.costs.custody_miss,
            )
        return self._custody_miss

    def _slow_path(
        self, obj_id: int, kind: AccessKind, cache_hit: bool, depth: int
    ) -> GuardResult:
        was_local, movement = self.pool.ensure_local(
            obj_id, write=kind is AccessKind.WRITE, depth=depth
        )
        cycles = self.costs.slow_guard_local(kind, cached=cache_hit) + movement
        self.metrics.count_guard(GuardKind.SLOW)
        tracer = self.tracer
        if tracer.enabled:
            tracer.guard(GuardKind.SLOW, obj_id, kind, self.metrics.cycles, cycles)
        return GuardResult(
            GuardKind.SLOW,
            cycles,
            cache_hit=cache_hit,
            remote_fetch=not was_local,
        )

    # -- loop-chunking helpers (optimized transformation) ------------------

    def boundary_check(self) -> float:
        """The per-iteration object-boundary test (3 instructions)."""
        self.metrics.count_guard(GuardKind.BOUNDARY)
        return self.costs.boundary_check

    def locality_guard(
        self, addr: int, kind: AccessKind, depth: int = 1
    ) -> GuardResult:
        """Pin the object at ``addr`` local for one loop chunk.

        Called when the boundary check fires: a runtime call that
        localizes the object (remote fetch if needed) and pins it so the
        chunk's unguarded accesses are safe.
        """
        if not (addr & U64_MASK) >> TFM_TAG_SHIFT:
            return self._custody(kind)
        obj_id = (addr & MAX_HEAP_OFFSET) >> self._object_shift
        was_local, movement = self.pool.ensure_local(
            obj_id, write=kind is AccessKind.WRITE, depth=depth
        )
        cycles = self.costs.locality_guard + movement
        self.metrics.count_guard(GuardKind.LOCALITY)
        tracer = self.tracer
        if tracer.enabled:
            tracer.guard(GuardKind.LOCALITY, obj_id, kind, self.metrics.cycles, cycles)
        return GuardResult(
            GuardKind.LOCALITY, cycles, remote_fetch=not was_local
        )
