"""The AIFM runtime facade: the library-based baseline.

This is far memory as AIFM ships it: the *programmer* places data in
remote data structures, every dereference goes through a smart pointer
(cheap, no guard), iterators know the data structure's layout and drive
the stride prefetcher, and object sizes are chosen per data structure by
the developer.  TrackFM reuses everything below the smart-pointer layer.
"""

from __future__ import annotations

from typing import Optional

from repro.aifm.allocator import Allocation, RegionAllocator
from repro.aifm.pool import ObjectPool, PoolConfig
from repro.aifm.prefetcher import StridePrefetcher
from repro.aifm.scope import DerefScope
from repro.errors import PointerError, RuntimeConfigError
from repro.integrity import (
    IntegrityChecker,
    IntegrityConfig,
    RecoveryManager,
    RecoveryReport,
    attach_integrity,
)
from repro.machine.costs import AccessKind
from repro.net.backends import RemoteBackend
from repro.sim.metrics import Metrics
from repro.sim.plan import AccessPattern, AccessPlan

# Enum members bound once: a class lookup is slow (docs/performance.md).
_WRITE = AccessKind.WRITE

#: Cycles of AIFM's smart-pointer indirection on a hot (local) deref.
#: §4.1: "AIFM does incur overhead for smart pointer indirection" — it
#: is cheaper than a TrackFM fast-path guard (21 cycles) because there
#: is no custody check or state-table load; the unique pointer embeds
#: the state.
AIFM_DEREF_OVERHEAD = 9.0

#: DerefScope construction + remote-iterator setup, per loop entry of a
#: short loop (the hand-ported analytics aggregations).
AIFM_SCOPE_CYCLES = 120.0


class AIFMRuntime:
    """Object-granular far memory with library (not compiler) knowledge."""

    def __init__(
        self,
        config: PoolConfig,
        backend: Optional[RemoteBackend] = None,
        prefetch_depth: int = 8,
        deref_overhead: float = AIFM_DEREF_OVERHEAD,
        tracer=None,
    ) -> None:
        self.config = config
        self.pool = ObjectPool(config, backend=backend, tracer=tracer)
        self.allocator = RegionAllocator(config.heap_size, config.object_size)
        self.prefetcher = StridePrefetcher(depth=prefetch_depth) if prefetch_depth else None
        self.deref_overhead = deref_overhead
        self.object_size = config.object_size

    def set_tracer(self, tracer) -> None:
        """Attach a tracer (the pool is this runtime's only event source)."""
        self.pool.tracer = tracer
        self.pool.backend.set_tracer(tracer)

    def enable_integrity(
        self, config: Optional[IntegrityConfig] = None
    ) -> IntegrityChecker:
        """Checksum-verify every remote fetch (detect → repair → quarantine).

        Attaches an :class:`~repro.integrity.IntegrityChecker` to the
        pool's backend and wires it into this runtime's metrics and
        tracer; dirty writebacks start following the write-ahead
        evacuation journal.  Returns the checker.
        """
        checker = attach_integrity(self.pool.backend, config)
        checker.metrics = self.pool.metrics
        checker.tracer = self.pool.tracer
        return checker

    def recover(self) -> RecoveryReport:
        """Replay/roll back the evacuation journal and rebuild residency."""
        return RecoveryManager.for_pool(self.pool).recover()

    def enable_degraded_mode(
        self,
        stall_cycles: float = 0.0,
        hook=None,
    ) -> None:
        """Serve derefs locally when far memory is unavailable.

        Same semantics as
        :meth:`repro.trackfm.runtime.TrackFMRuntime.enable_degraded_mode`
        — both runtimes share the pool-level hook.
        """
        if hook is not None:
            self.pool.degraded_handler = hook
        else:
            self.pool.degraded_handler = lambda _obj_id: stall_cycles

    def remote_backends(self) -> tuple:
        """Every far node this runtime talks to (one: the pool's).

        Uniform across the four runtimes; the serving layer uses it to
        treat each shard's backends as one fault domain.
        """
        return (self.pool.backend,)

    @property
    def tracer(self):
        return self.pool.tracer

    @property
    def metrics(self) -> Metrics:
        return self.pool.metrics

    # -- allocation -----------------------------------------------------

    def allocate(self, size: int) -> Allocation:
        """Carve a remotable allocation out of the pool's heap."""
        return self.allocator.allocate(size)

    def free(self, alloc: Allocation) -> None:
        freed = self.allocator.free(alloc.offset)
        first, last = freed.object_range(self.object_size)
        for obj_id in range(first, last):
            # Only whole-object frees drop residency; shared regions stay.
            if self.allocator.allocation_at(obj_id * self.object_size) is None:
                self.pool.free_object(obj_id)

    def scope(self) -> DerefScope:
        """A DerefScope over this runtime's pool (Listing 1 style)."""
        return DerefScope(self.pool)

    # -- the deref path ----------------------------------------------------

    def access(
        self,
        offset: int,
        kind: AccessKind = AccessKind.READ,
        size: int = 8,
        stream: int = 0,
        scope: Optional[DerefScope] = None,
        prefetch: bool = True,
        depth: int = 1,
    ) -> float:
        """Dereference ``size`` bytes at heap ``offset``; returns cycles.

        Objects spanned by the access are localized; the stride
        prefetcher observes the leading object.  Smart-pointer overhead
        plus the local access cost are always charged.
        """
        if size <= 0:
            raise PointerError("access size must be positive")
        costs = self.config.costs
        cycles = self.deref_overhead + costs.local_access
        write = kind is _WRITE
        first = self.pool.object_of_offset(offset)
        last = self.pool.object_of_offset(offset + size - 1)
        for obj_id in range(first, last + 1):
            _hit, move = self.pool.ensure_local(obj_id, write=write, depth=depth)
            cycles += move
            if scope is not None:
                scope.pin(obj_id)
        if self.prefetcher is not None and prefetch:
            for target in self.prefetcher.observe(first, stream=stream):
                if 0 <= target < self.pool.num_objects:
                    cycles += self.pool.prefetch(target)
        self.metrics.accesses += 1
        self.metrics.cycles += cycles
        return cycles

    # -- the closed form -------------------------------------------------------

    def cost_plan(self, plan: AccessPlan, resident_fraction: float = 0.0) -> float:
        """Bulk cost of one scan plan (:mod:`repro.sim.plan`).

        AIFM's iterators localize object-by-object and prefetch ahead,
        so per access: smart-pointer overhead + the plan's body, plus
        per object: a pipelined fetch for the non-resident fraction
        (``resident_fraction`` is the probability an object is already
        local).  A short loop also builds a DerefScope and a remote
        iterator per entry (Listing 1).  The closed form models the
        iterator only: lookups go through :meth:`access`.
        """
        if plan.pattern is AccessPattern.RANDOM:
            raise RuntimeConfigError("AIFM's closed form prices iterator scans only")
        n_elems = plan.n_elems
        if n_elems <= 0:
            return 0.0
        _, misses = plan.misses(self.object_size, resident_fraction)
        body = (
            self.config.costs.local_access
            if plan.body_cycles is None
            else plan.body_cycles
        )
        cycles = n_elems * (self.deref_overhead + body)
        if plan.pattern is AccessPattern.SHORT_LOOPS:
            cycles += plan.entries * AIFM_SCOPE_CYCLES
        metrics = self.metrics
        if misses:
            link = self.pool.backend.link
            wire = link.wire_cycles(self.object_size)
            cycles += misses * wire
            integrity = self.pool.backend.integrity
            if integrity is not None:
                # Closed forms verify each fetched object's checksum (no
                # corruption rolls: the closed form models the
                # healthy-payload cost envelope).
                cycles += misses * integrity.config.verify_cycles
            metrics.remote_fetches += misses
            metrics.bytes_fetched += misses * self.object_size
            link.stats.bytes_fetched += misses * self.object_size
            metrics.prefetches_issued += misses
            metrics.prefetches_useful += misses
            tracer = self.pool.tracer
            if tracer.enabled:
                tracer.fetch(
                    misses * self.object_size, wire, metrics.cycles,
                    n=misses, name="scan_fetch",
                )
                tracer.prefetch(
                    misses * self.object_size, metrics.cycles,
                    useful=True, n=misses, name="scan_prefetch",
                )
            if plan.writes_back:
                cycles += misses * wire * self.pool.evacuator.sync_fraction
                metrics.bytes_evacuated += misses * self.object_size
                metrics.evictions += misses
                if tracer.enabled:
                    tracer.evict(
                        misses * self.object_size, metrics.cycles,
                        n=misses, dirty=misses, name="scan_evict",
                    )
        metrics.accesses += n_elems
        metrics.cycles += cycles
        return cycles
