"""Multiple object sizes — the §3.2 future work, implemented.

The paper: "While multiple object sizes are possible, this increases
the complexity of the runtime system and compiler transformations, so
we leave this for future work."  The cost of the single compile-time
size is visible across Figs. 9/10: sequential data wants 4 KB objects,
fine-grained random data wants 64 B, and one application often contains
both (the hashmap experiment itself streams a 190 MB trace *and* does
4-byte lookups).

:class:`MultiPoolRuntime` runs one object pool per size class and
routes each allocation to a class — chosen by the compiler per
allocation site (see :func:`repro.compiler.size_classes.recommend_object_sizes`)
or by the caller.  Pointers encode the class in the top bits of the
heap offset, so the guard still derives everything from the pointer
with shifts (§3.2's constraint is preserved).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.aifm.pool import PoolConfig
from repro.errors import PointerError, RuntimeConfigError
from repro.machine.costs import AccessKind, CostTable, DEFAULT_COSTS
from repro.sim.metrics import Metrics
from repro.sim.plan import AccessPlan
from repro.trackfm.pointer import decode_tfm_pointer, encode_tfm_pointer, is_tfm_pointer
from repro.trackfm.runtime import GuardStrategy, TrackFMRuntime
from repro.units import is_power_of_two

#: Bits of the heap offset reserved for the size-class index.
CLASS_SHIFT = 56
CLASS_MASK = (1 << 4) - 1
OFFSET_MASK = (1 << CLASS_SHIFT) - 1

#: The default classes: cache line, mid, base page (§3.2's range).
DEFAULT_CLASSES = (64, 512, 4096)


class MultiPoolRuntime:
    """One TrackFM runtime per object-size class, unified pointer space."""

    def __init__(
        self,
        local_memory: int,
        heap_size: int,
        classes: Sequence[int] = DEFAULT_CLASSES,
        shares: Optional[Sequence[float]] = None,
        costs: CostTable = DEFAULT_COSTS,
    ) -> None:
        if not classes:
            raise RuntimeConfigError("need at least one size class")
        if len(classes) > CLASS_MASK:
            raise RuntimeConfigError(f"at most {CLASS_MASK} size classes")
        if sorted(classes) != list(classes):
            raise RuntimeConfigError("size classes must be ascending")
        for size in classes:
            if not is_power_of_two(size):
                raise RuntimeConfigError("size classes must be powers of two")
        if shares is None:
            shares = [1.0 / len(classes)] * len(classes)
        if len(shares) != len(classes) or abs(sum(shares) - 1.0) > 1e-6:
            raise RuntimeConfigError("shares must match classes and sum to 1")
        self.classes = tuple(classes)
        self._runtimes: Dict[int, TrackFMRuntime] = {}
        for idx, (size, share) in enumerate(zip(classes, shares)):
            local = max(size, int(local_memory * share))
            self._runtimes[idx] = TrackFMRuntime(
                PoolConfig(
                    object_size=size,
                    local_memory=local,
                    heap_size=heap_size,
                    costs=costs,
                )
            )

    # -- pointer plumbing --------------------------------------------------

    def _class_of_size(self, object_size: int) -> int:
        for idx, size in enumerate(self.classes):
            if size == object_size:
                return idx
        raise RuntimeConfigError(
            f"no {object_size}B size class (have {self.classes})"
        )

    def class_of_pointer(self, ptr: int) -> int:
        if not is_tfm_pointer(ptr):
            raise PointerError(f"{ptr:#x} is not a TrackFM pointer")
        idx = (decode_tfm_pointer(ptr) >> CLASS_SHIFT) & CLASS_MASK
        if idx not in self._runtimes:
            raise PointerError(f"pointer {ptr:#x} names unknown size class {idx}")
        return idx

    def runtime_for(self, ptr: int) -> TrackFMRuntime:
        return self._runtimes[self.class_of_pointer(ptr)]

    def runtime_of_class(self, object_size: int) -> TrackFMRuntime:
        return self._runtimes[self._class_of_size(object_size)]

    # -- allocation -----------------------------------------------------

    def tfm_malloc(self, size: int, object_size: Optional[int] = None) -> int:
        """Allocate in a class: explicit, or smallest class >= size."""
        if object_size is None:
            object_size = self.classes[-1]
            for cls in self.classes:
                if size <= cls:
                    object_size = cls
                    break
        idx = self._class_of_size(object_size)
        inner = self._runtimes[idx].tfm_malloc(size)
        offset = decode_tfm_pointer(inner)
        if offset > OFFSET_MASK:
            raise PointerError("class heap exceeded the encodable offset range")
        return encode_tfm_pointer((idx << CLASS_SHIFT) | offset)

    def tfm_free(self, ptr: int) -> None:
        idx = self.class_of_pointer(ptr)
        inner = encode_tfm_pointer(decode_tfm_pointer(ptr) & OFFSET_MASK)
        self._runtimes[idx].tfm_free(inner)

    # -- access ---------------------------------------------------------

    def _inner_ptr(self, ptr: int) -> Tuple[TrackFMRuntime, int]:
        idx = self.class_of_pointer(ptr)
        inner = encode_tfm_pointer(decode_tfm_pointer(ptr) & OFFSET_MASK)
        return self._runtimes[idx], inner

    def access(
        self, ptr: int, kind: AccessKind = AccessKind.READ, size: int = 8
    ) -> float:
        runtime, inner = self._inner_ptr(ptr)
        return runtime.access(inner, kind, size)

    def cost_plan(
        self,
        ptr: int,
        plan: AccessPlan,
        resident_fraction: float = 0.0,
        strategy: GuardStrategy = GuardStrategy.CHUNKED_PREFETCH,
    ) -> float:
        """Price ``plan`` on the class runtime ``ptr`` belongs to."""
        return self.runtime_for(ptr).cost_plan(plan, resident_fraction, strategy)

    # -- metrics -------------------------------------------------------------

    @property
    def metrics(self) -> Metrics:
        merged = Metrics()
        for runtime in self._runtimes.values():
            merged.merge(runtime.metrics)
        return merged

    def per_class_metrics(self) -> Dict[int, Metrics]:
        return {
            self.classes[idx]: rt.metrics for idx, rt in self._runtimes.items()
        }
