"""AIFM's region-based allocator, simplified to what TrackFM uses.

§3.1: "The TrackFM versions [of malloc etc.] leverage AIFM's
region-based allocator under the covers to allocate remotable memory."
Allocations are carved out of the object pool's flat byte space:
a single allocation may span multiple objects, and several small
allocations are grouped into one object (§3.2, "Allocating far
memory").  The allocator hands out *offsets* into the remotable heap;
callers turn them into pointers (TrackFM tags them non-canonical).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import OutOfMemoryError, PointerError
from repro.units import align_up, ceil_div


@dataclass(frozen=True)
class Allocation:
    """One live allocation inside the remotable heap."""

    offset: int
    size: int

    @property
    def end(self) -> int:
        return self.offset + self.size

    def object_range(self, object_size: int) -> Tuple[int, int]:
        """Half-open range of object ids this allocation spans."""
        first = self.offset // object_size
        last = ceil_div(self.end, object_size)
        return first, last


class RegionAllocator:
    """Bump allocator with region recycling.

    Regions are object-sized; small allocations pack into the current
    open region (so several allocations share an object, as in AIFM),
    large allocations take whole object runs.  ``free`` returns whole
    regions to a free list once every allocation in them is dead.
    """

    def __init__(self, heap_size: int, object_size: int) -> None:
        if heap_size <= 0 or object_size <= 0:
            raise OutOfMemoryError("heap and object size must be positive")
        if heap_size % object_size != 0:
            heap_size = align_up(heap_size, object_size)
        self.heap_size = heap_size
        self.object_size = object_size
        self.num_objects = heap_size // object_size
        self._next_region = 0
        self._free_regions: List[int] = []
        # Open region for small allocations: (region id, fill offset).
        self._open_region: Optional[Tuple[int, int]] = None
        self._live: Dict[int, Allocation] = {}
        # Per-region live-allocation counts for recycling.
        self._region_live: Dict[int, int] = {}
        self.bytes_allocated = 0

    # -- internals --------------------------------------------------------

    def _take_region(self) -> int:
        if self._free_regions:
            return self._free_regions.pop()
        if self._next_region >= self.num_objects:
            raise OutOfMemoryError(
                f"remotable heap exhausted ({self.heap_size} bytes)"
            )
        region = self._next_region
        self._next_region += 1
        return region

    def _take_region_run(self, count: int) -> int:
        """A run of ``count`` contiguous fresh regions (large allocations)."""
        if self._next_region + count > self.num_objects:
            raise OutOfMemoryError(
                f"remotable heap exhausted allocating {count} regions"
            )
        start = self._next_region
        self._next_region += count
        return start

    # -- public API --------------------------------------------------------

    def allocate(self, size: int, align: int = 16) -> Allocation:
        """Allocate ``size`` bytes; returns the heap-offset allocation."""
        if size <= 0:
            size = 1
        size = align_up(size, align)
        if size <= self.object_size:
            alloc = self._allocate_small(size, align)
        else:
            regions = ceil_div(size, self.object_size)
            start = self._take_region_run(regions)
            for r in range(start, start + regions):
                self._region_live[r] = self._region_live.get(r, 0) + 1
            alloc = Allocation(start * self.object_size, size)
        self._live[alloc.offset] = alloc
        self.bytes_allocated += alloc.size
        return alloc

    def _allocate_small(self, size: int, align: int) -> Allocation:
        if self._open_region is not None:
            region, fill = self._open_region
            offset = align_up(fill, align)
            if offset + size <= self.object_size:
                self._open_region = (region, offset + size)
                self._region_live[region] = self._region_live.get(region, 0) + 1
                return Allocation(region * self.object_size + offset, size)
        region = self._take_region()
        self._open_region = (region, size)
        self._region_live[region] = self._region_live.get(region, 0) + 1
        return Allocation(region * self.object_size, size)

    def free(self, offset: int) -> Allocation:
        """Free the allocation starting at ``offset``."""
        alloc = self._live.pop(offset, None)
        if alloc is None:
            raise PointerError(f"free of unknown heap offset {offset:#x}")
        self.bytes_allocated -= alloc.size
        first, last = alloc.object_range(self.object_size)
        for region in range(first, last):
            count = self._region_live.get(region, 0) - 1
            if count <= 0:
                self._region_live.pop(region, None)
                if self._open_region is not None and self._open_region[0] == region:
                    self._open_region = None
                self._free_regions.append(region)
            else:
                self._region_live[region] = count
        return alloc

    def allocation_at(self, offset: int) -> Optional[Allocation]:
        """The live allocation that *contains* ``offset``, if any."""
        # Fast path: exact start.
        alloc = self._live.get(offset)
        if alloc is not None:
            return alloc
        for candidate in self._live.values():
            if candidate.offset <= offset < candidate.end:
                return candidate
        return None

    def is_live(self, alloc: Allocation) -> bool:
        """Whether ``alloc`` itself, not a later allocation at its
        offset, is still allocated."""
        return self._live.get(alloc.offset) is alloc

    def live_allocations(self) -> List[Allocation]:
        return list(self._live.values())
