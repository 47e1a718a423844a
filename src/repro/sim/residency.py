"""Residency simulation: which objects/pages are local right now?

Both far-memory designs in the paper keep a bounded set of granules
(AIFM objects / 4 KB pages) in local memory and evict under pressure.
:class:`ResidencySet` is that engine: LRU with pinning (AIFM's
DerefScope prevents the evacuator from moving in-use objects, §3.3) and
dirty tracking (dirty granules must be written back on eviction; clean
ones can be dropped).

A second-chance "hot bit" (CLOCK) mode approximates AIFM's
hotness-driven evacuator; plain LRU matches Linux's reclaim closely
enough for the shapes this reproduction targets.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple

from repro.errors import EvacuationError, RuntimeConfigError


class AccessOutcome(NamedTuple):
    """Result of touching one granule (immutable: hits share one value).

    A tuple: a frozen dataclass costs about three times as much to
    build, and every miss that evicts builds one.
    """

    hit: bool
    #: (granule id, was_dirty) pairs evicted to make room.
    evicted: Sequence[Tuple[int, bool]]


#: Every hit's outcome: nothing was evicted.
_HIT = AccessOutcome(True, ())
#: Every miss into a set with room: nothing was evicted either.
_MISS = AccessOutcome(False, ())
#: Builds an :class:`AccessOutcome` from a tuple, without ``_make``'s frame.
_outcome = partial(tuple.__new__, AccessOutcome)


class ResidencySet:
    """A bounded set of resident granule ids with LRU/CLOCK eviction."""

    def __init__(self, capacity: int, use_clock: bool = False) -> None:
        if capacity < 1:
            raise RuntimeConfigError("residency capacity must be >= 1")
        self.capacity = capacity
        self.use_clock = use_clock
        # id -> hot bit (CLOCK) / ignored (LRU); OrderedDict keeps recency.
        self._resident: "OrderedDict[int, bool]" = OrderedDict()
        self._dirty: Set[int] = set()
        self._pinned: Dict[int, int] = {}

    # -- queries --------------------------------------------------------

    def __contains__(self, granule: int) -> bool:
        return granule in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def is_dirty(self, granule: int) -> bool:
        return granule in self._dirty

    def is_pinned(self, granule: int) -> bool:
        return self._pinned.get(granule, 0) > 0

    def resident_ids(self) -> List[int]:
        return list(self._resident.keys())

    # -- pinning (DerefScope) ------------------------------------------------

    def pin(self, granule: int) -> None:
        """Prevent eviction of ``granule`` until unpinned."""
        self._pinned[granule] = self._pinned.get(granule, 0) + 1

    def unpin(self, granule: int) -> None:
        count = self._pinned.get(granule, 0)
        if count <= 0:
            raise EvacuationError(f"unpin of unpinned granule {granule}")
        if count == 1:
            del self._pinned[granule]
        else:
            self._pinned[granule] = count - 1

    # -- the core access path ---------------------------------------------

    def touch(self, granule: int, write: bool = False) -> bool:
        """Record a hit on ``granule`` if it is resident; never evicts.

        Returns False, changing nothing, when ``granule`` is not
        resident.  The hit half of :meth:`access`, for callers that only
        need to know whether the granule was local.
        """
        resident = self._resident
        if granule not in resident:
            return False
        if self.use_clock:
            resident[granule] = True
        else:
            resident.move_to_end(granule)
        if write:
            self._dirty.add(granule)
        return True

    def access(self, granule: int, write: bool = False) -> AccessOutcome:
        """Touch ``granule``; fetch + evict as needed.

        Returns whether it was a hit and which granules were evicted.
        The hit half is :meth:`touch`, repeated here without its frame
        (this is every page fault's and object miss's first step).  The
        set never exceeds ``capacity``, so a miss into a full set evicts
        one victim: LRU's least recent unpinned granule, or the first
        cold unpinned one CLOCK's sweep reaches (clearing hot bits on
        the way, at most ``2n + 1`` steps); if all are pinned it raises
        :class:`EvacuationError`.
        """
        resident = self._resident
        if granule in resident:
            if self.use_clock:
                resident[granule] = True
            else:
                resident.move_to_end(granule)
            if write:
                self._dirty.add(granule)
            return _HIT
        if len(resident) < self.capacity:
            outcome = _MISS
        else:
            # ``_pinned`` only holds positive counts, so membership is the pin test.
            pinned = self._pinned
            if not self.use_clock:
                victim = next((g for g in resident if g not in pinned), None)
            else:
                victim = None
                for _ in range(2 * len(resident) + 1):
                    candidate, hot = next(iter(resident.items()))
                    if hot:
                        resident[candidate] = False
                    elif candidate not in pinned:
                        victim = candidate
                        break
                    resident.move_to_end(candidate)
            if victim is None:
                raise EvacuationError(
                    "all resident granules are pinned; cannot evict "
                    f"(capacity={self.capacity}, pinned={len(pinned)})"
                )
            del resident[victim]
            was_dirty = victim in self._dirty
            self._dirty.discard(victim)
            outcome = _outcome((False, [(victim, was_dirty)]))
        resident[granule] = False
        if write:
            self._dirty.add(granule)
        return outcome

    def insert(self, granule: int) -> List[Tuple[int, bool]]:
        """Bring ``granule`` local without recording an access (prefetch)."""
        if granule in self._resident:
            return []
        evicted = self.access(granule).evicted
        # Prefetched granules enter cold (at LRU head) so a useless
        # prefetch is the first thing evicted.
        self._resident.move_to_end(granule, last=False)
        return evicted or []

    def mark_clean(self, granule: int) -> None:
        """Clear a granule's dirty bit (after an explicit writeback)."""
        self._dirty.discard(granule)

    def discard(self, granule: int) -> None:
        """Drop a granule (free of the backing allocation)."""
        self._resident.pop(granule, None)
        self._dirty.discard(granule)
        self._pinned.pop(granule, None)

    def flush(self) -> List[Tuple[int, bool]]:
        """Evict everything evictable (used at teardown to count writebacks)."""
        out: List[Tuple[int, bool]] = []
        for granule in list(self._resident.keys()):
            if self.is_pinned(granule):
                continue
            out.append((granule, granule in self._dirty))
            self._resident.pop(granule)
            self._dirty.discard(granule)
        return out
