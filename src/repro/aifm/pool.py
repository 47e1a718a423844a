"""The unified object pool (TrackFM's abstract data structure, ADS).

§3.2: TrackFM extends AIFM's data-structure base class "with a unified
abstract data structure (ADS) that the compiler uses to capture all
remotable allocations ... a pool of objects that represent the total far
memory that an application can use."

The pool owns:

* the per-object metadata words (Fig. 3 formats) — the source of truth
  the TrackFM object state table is kept coherent with;
* the residency set (what is local, LRU/CLOCK with DerefScope pins);
* the evacuator (writeback accounting) and the remote backend;
* the metrics bundle every figure reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from repro.aifm.evacuator import Evacuator
from repro.aifm.objectmeta import (
    ADDR_MASK,
    DIRTY_BIT,
    HOT_BIT,
    ObjectMeta,
    UNSAFE_MASK,
    _RF_OBJID_MASK,
    _RF_SIZE_MASK,
    encode_remote,
)
from repro.errors import (
    DataIntegrityError,
    FarMemoryUnavailableError,
    PointerError,
    RuntimeConfigError,
)
from repro.machine.costs import CostTable, DEFAULT_COSTS
from repro.net.backends import RemoteBackend, make_tcp_backend
from repro.sim.metrics import Metrics
from repro.sim.residency import ResidencySet
from repro.trace.tracer import NULL_TRACER
from repro.units import ceil_div, is_power_of_two, log2_exact


@dataclass
class PoolConfig:
    """Sizing and policy knobs for one object pool."""

    #: AIFM object (chunk) size in bytes; must be a power of two.
    object_size: int
    #: Bytes of local memory available for resident objects (the
    #: constraint the figures sweep as "% of working set").
    local_memory: int
    #: Total remotable heap size in bytes.
    heap_size: int
    #: Evacuation policy: CLOCK (AIFM-like hotness) vs plain LRU.
    use_clock: bool = True
    #: Evacuator knobs.
    writeback_depth: int = 8
    evac_sync_fraction: float = 0.25
    costs: CostTable = field(default_factory=lambda: DEFAULT_COSTS)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.object_size):
            raise RuntimeConfigError(
                f"object size must be a power of two, got {self.object_size}"
            )
        if self.local_memory < self.object_size:
            raise RuntimeConfigError("local memory smaller than one object")
        if self.heap_size < self.object_size:
            raise RuntimeConfigError("heap smaller than one object")
        if self.num_objects > _RF_OBJID_MASK + 1:
            raise RuntimeConfigError("heap has more objects than a 38-bit object id names")

    @property
    def local_capacity_objects(self) -> int:
        return max(1, self.local_memory // self.object_size)

    @property
    def num_objects(self) -> int:
        return ceil_div(self.heap_size, self.object_size)


class ObjectPool:
    """All remotable objects of one application."""

    def __init__(
        self,
        config: PoolConfig,
        backend: Optional[RemoteBackend] = None,
        metrics: Optional[Metrics] = None,
        tracer=None,
    ) -> None:
        self.config = config
        self.backend = backend if backend is not None else make_tcp_backend()
        self.metrics = metrics if metrics is not None else Metrics()
        # A resilient backend flows its retry/drop counters into the
        # pool's metrics (unless the caller already wired its own).
        if self.backend.metrics is None:
            self.backend.metrics = self.metrics
        integrity = self.backend.integrity
        if integrity is not None and integrity.metrics is None:
            integrity.metrics = self.metrics
        #: Trace sink (disabled by default: one attribute check per event site).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Degraded-mode hook: when the remote tier is unavailable
        #: (:class:`FarMemoryUnavailableError` out of the backend), a
        #: non-None handler is called as ``handler(obj_id) -> stall
        #: cycles`` and the access proceeds locally instead of raising.
        self.degraded_handler: Optional[Callable[[int], float]] = None
        self.object_size = config.object_size
        # Fixed geometry, computed once: the guard's object id is one
        # shift and its range check one comparison (``config`` is not
        # consulted again on the hot path).
        self.object_shift = log2_exact(config.object_size)
        self.num_objects = config.num_objects
        self.residency = ResidencySet(
            config.local_capacity_objects, use_clock=config.use_clock
        )
        self.evacuator = Evacuator(
            backend=self.backend,
            object_size=config.object_size,
            writeback_depth=config.writeback_depth,
            sync_fraction=config.evac_sync_fraction,
        )
        #: Metadata word per object id; starts in remote format ("not yet
        #: localized") — first touch is always a miss, as in AIFM.
        #: Remote word = REMOTE | size << 38 | obj_id = ``_remote_base |
        #: obj_id``; written through ``_words``, cheaper than an ndarray.
        self._remote_base = encode_remote(0, min(self.object_size, _RF_SIZE_MASK))
        self._meta = np.arange(self.num_objects, dtype=np.uint64)
        self._meta |= np.uint64(self._remote_base)  # in place: fast even for multi-GB heaps
        self._words = memoryview(self._meta)

    # -- metadata ---------------------------------------------------------

    @property
    def integrity(self):
        """The backend's integrity checker (None when verification is off)."""
        return self.backend.integrity

    @property
    def meta_words(self):
        """The metadata array itself (a ``uint64`` array, one word per
        object id), for readers that alias it; it is only ever updated
        in place."""
        return self._meta

    def meta_word(self, obj_id: int) -> int:
        if not 0 <= obj_id < self.num_objects:
            self._check_id(obj_id)  # raises
        return self._meta.item(obj_id)

    def meta(self, obj_id: int) -> ObjectMeta:
        word = self.meta_word(obj_id)
        integrity = self.backend.integrity
        if integrity is not None:
            return ObjectMeta(word, check=integrity.expected_check(obj_id))
        return ObjectMeta(word)

    def is_safe(self, obj_id: int) -> bool:
        """The fast-path test on the metadata word (Fig. 4b line 6)."""
        return (self.meta_word(obj_id) & UNSAFE_MASK) == 0

    def _check_id(self, obj_id: int) -> None:
        if not 0 <= obj_id < self.num_objects:
            raise PointerError(
                f"object id {obj_id} out of range [0, {self.num_objects})"
            )

    def _set_local(self, obj_id: int, dirty: bool) -> None:
        flags = HOT_BIT | DIRTY_BIT if dirty else HOT_BIT
        self._words[obj_id] = (obj_id << self.object_shift) & ADDR_MASK | flags

    def _set_remote(self, obj_id: int) -> None:
        self._words[obj_id] = self._remote_base | obj_id

    def object_of_offset(self, heap_offset: int) -> int:
        """Map a heap byte offset to its object id (a shift, §3.2)."""
        if heap_offset < 0 or heap_offset >= self.config.heap_size:
            raise PointerError(f"heap offset {heap_offset:#x} out of range")
        return heap_offset >> self.object_shift

    # -- the hot path ---------------------------------------------------

    def ensure_local(
        self, obj_id: int, write: bool = False, depth: int = 1
    ) -> Tuple[bool, float]:
        """Localize ``obj_id`` if needed; returns (was_local, cycles).

        The returned cycles cover only the *data movement* (fetch +
        synchronous share of writebacks); guard/fault CPU costs are the
        caller's business (they differ between TrackFM and Fastswap).
        """
        if not 0 <= obj_id < self.num_objects:
            self._check_id(obj_id)  # raises
        hit, evicted = self.residency.access(obj_id, write)
        cycles = 0.0
        if not hit:
            backend = self.backend
            try:
                if backend.integrity is None:
                    fetch_cycles = backend.fetch(self.object_size, depth=depth)
                else:
                    fetch_cycles = backend.fetch(
                        self.object_size, depth=depth, obj_id=obj_id
                    )
            except DataIntegrityError:
                # Quarantined: nothing trustworthy was fetched.  Unwind
                # the residency insert and surface — integrity failures
                # are correctness errors, never served degraded here
                # (the hybrid runtime's page tier is the degrade rung).
                for victim, _dirty in evicted:
                    self._set_remote(victim)
                self.residency.discard(obj_id)
                raise
            except FarMemoryUnavailableError:
                handler = self.degraded_handler
                if handler is None:
                    # Unwind the residency insert so pool state matches
                    # reality (nothing was fetched) before surfacing.
                    for victim, _dirty in evicted:
                        self._set_remote(victim)
                    self.residency.discard(obj_id)
                    raise
                # Degraded mode: serve the access from the local tier
                # (stale/zero-fill semantics are the handler's business);
                # charge its stall, count it, move no bytes.
                cycles += handler(obj_id)
                self.metrics.degraded_accesses += 1
                tracer = self.tracer
                if tracer.enabled:
                    tracer.degrade("object", self.metrics.cycles, obj=obj_id)
            else:
                cycles += fetch_cycles
                self.metrics.remote_fetches += 1
                self.metrics.bytes_fetched += self.object_size
                tracer = self.tracer
                if tracer.enabled:
                    tracer.fetch(
                        self.object_size, fetch_cycles, self.metrics.cycles, obj_id=obj_id
                    )
                # The remote tier just answered (any open breaker has
                # closed): re-drive writebacks deferred while it was down.
                if self.evacuator._deferred:
                    cycles += self.evacuator.drain_deferred(self.metrics)
        if evicted:  # _set_remote and, below, _set_local, without their frames
            for victim, _dirty in evicted:
                self._words[victim] = self._remote_base | victim
            cycles += self.evacuator.process(evicted, self.metrics)
            tracer = self.tracer
            if tracer.enabled:
                tracer.evict(
                    len(evicted) * self.object_size,
                    self.metrics.cycles,
                    n=len(evicted),
                    dirty=sum(1 for _v, d in evicted if d),
                )
        flags = HOT_BIT | DIRTY_BIT if obj_id in self.residency._dirty else HOT_BIT
        self._words[obj_id] = (obj_id << self.object_shift) & ADDR_MASK | flags
        return hit, cycles

    def prefetch(self, obj_id: int, depth: Optional[int] = None) -> float:
        """Asynchronously localize ``obj_id``; returns app-visible cycles.

        With ``depth=None`` (deep stride pipelines) the application only
        pays wire (bandwidth) time.  A finite ``depth`` models shallow
        runahead — e.g. greedy pointer-chase prefetching can only see
        one node ahead (``depth=2``), so a share of the round-trip
        latency still lands on the critical path.  Useless prefetches
        (already local) are free.
        """
        if not 0 <= obj_id < self.num_objects:
            self._check_id(obj_id)  # raises
        self.metrics.prefetches_issued += 1
        if obj_id in self.residency._resident:
            tracer = self.tracer
            if tracer.enabled:
                tracer.prefetch(self.object_size, self.metrics.cycles, useful=False)
            return 0.0
        verify_cycles = 0.0
        if self.backend.integrity is not None:
            # Verify before touching residency so a quarantine raise
            # leaves the pool exactly as it was (nothing was admitted).
            verify_cycles = self.backend.verify_payload(
                obj_id, self.object_size, depth if depth is not None else 8
            )
        evicted = self.residency.insert(obj_id)
        if depth is None:
            cost = self.object_size / self.backend.link.bytes_per_cycle  # wire_cycles
        else:
            cost = self.backend.link.pipelined_cycles(self.object_size, depth)
        cost += verify_cycles
        self.backend.link.stats.messages += 1
        self.backend.link.stats.bytes_fetched += self.object_size
        self.metrics.bytes_fetched += self.object_size
        self.metrics.prefetches_useful += 1
        if evicted:
            for victim, _dirty in evicted:
                self._words[victim] = self._remote_base | victim
            cost += self.evacuator.process(evicted, self.metrics)
        tracer = self.tracer
        if tracer.enabled:
            tracer.prefetch(self.object_size, self.metrics.cycles, useful=True)
            if evicted:
                tracer.evict(
                    len(evicted) * self.object_size,
                    self.metrics.cycles,
                    n=len(evicted),
                    dirty=sum(1 for _v, d in evicted if d),
                )
        self._words[obj_id] = (obj_id << self.object_shift) & ADDR_MASK | HOT_BIT
        return cost

    def materialize(self, obj_id: int, pinned: bool = False) -> float:
        """Make a *fresh* object resident without remote traffic.

        Newly-allocated memory has no remote copy to fetch; this is the
        allocation-time path (used by the heap-pruning extension's
        pinned local heap).  Displaced objects are still evacuated
        normally; returns the app-visible eviction cycles.
        """
        self._check_id(obj_id)
        outcome = self.residency.access(obj_id)
        for victim, _dirty in outcome.evicted:
            self._set_remote(victim)
        cycles = self.evacuator.process(outcome.evicted, self.metrics)
        self._set_local(obj_id, dirty=False)
        if pinned:
            self.residency.pin(obj_id)
        return cycles

    def free_object(self, obj_id: int) -> None:
        """Drop an object (its allocation died); no writeback needed."""
        self._check_id(obj_id)
        self.residency.discard(obj_id)
        self._set_remote(obj_id)

    def expel(self, obj_id: int) -> float:
        """Forcibly evict one resident object; returns app-visible cycles.

        The quota/migration path (``repro.serve``): the object leaves
        local memory *now*, with a dirty writeback driven through the
        evacuator (so deferral, journaling and fault accounting all
        behave exactly as for capacity evictions).  A non-resident or
        pinned object is left alone (pins outrank quotas, as they
        outrank the evacuator).
        """
        self._check_id(obj_id)
        if obj_id not in self.residency or self.residency.is_pinned(obj_id):
            return 0.0
        dirty = self.residency.is_dirty(obj_id)
        self.residency.discard(obj_id)
        self._set_remote(obj_id)
        cycles = self.evacuator.process([(obj_id, dirty)], self.metrics)
        tracer = self.tracer
        if tracer.enabled:
            tracer.evict(
                self.object_size, self.metrics.cycles,
                n=1, dirty=1 if dirty else 0, name="expel",
            )
        return cycles

    # -- crash recovery (repro.integrity.RecoveryManager hooks) ---------------

    def reinstate_dirty(self, obj_id: int) -> float:
        """Undo a rolled-back writeback: make ``obj_id`` resident + dirty.

        Used by recovery for intent-only journal records — the
        writeback never became durable, so the object's only good copy
        is the local one and it must be dirty again.  Idempotent:
        reinstating a resident object just re-marks it dirty.  Returns
        application-visible cycles spent displacing victims, if any.
        """
        self._check_id(obj_id)
        outcome = self.residency.access(obj_id, write=True)
        for victim, _dirty in outcome.evicted:
            self._set_remote(victim)
        cycles = self.evacuator.process(outcome.evicted, self.metrics)
        self._set_local(obj_id, dirty=True)
        return cycles

    def reconcile_residency(self) -> None:
        """Rebuild every metadata word from the residency set.

        A crash can leave words and residency disagreeing (the access
        that crashed had already displaced victims).  Residency is the
        ground truth; rebuilding the words in place also rebuilds the
        TrackFM object state table, which aliases this array.
        """
        base = np.uint64(self._remote_base)
        # In place: the TrackFM state table aliases this buffer.
        self._meta[:] = np.arange(self.num_objects, dtype=np.uint64) | base
        for obj_id in self.residency.resident_ids():
            self._set_local(obj_id, dirty=self.residency.is_dirty(obj_id))

    # -- pinning (DerefScope plumbing) ----------------------------------------

    def pin(self, obj_id: int) -> None:
        self._check_id(obj_id)
        self.residency.pin(obj_id)

    def unpin(self, obj_id: int) -> None:
        self.residency.unpin(obj_id)

    # -- stats ----------------------------------------------------------

    @property
    def resident_objects(self) -> int:
        return len(self.residency)

    @property
    def local_bytes_in_use(self) -> int:
        return self.resident_objects * self.object_size
