"""Access plans: what a loop or a run of lookups does, for a closed form to price.

A plan says how many accesses an operation makes, over how many bytes,
in what shape.  Each runtime that has a closed form prices plans with
one entry, ``cost_plan``, from a resident fraction (scans) or a hit
rate (lookups).  Pricing lives only there: a workload model decides
only its plans, hit rates and resident fractions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import RuntimeConfigError
from repro.machine.costs import AccessKind
from repro.units import ceil_div


class AccessPattern(enum.Enum):
    """The loop shapes the workloads exhibit (§4.2–§4.5)."""

    #: Long sequential scan: high density, chunk-friendly.
    SEQUENTIAL = "sequential"
    #: Many short loops over small row collections: chunk-hostile.
    SHORT_LOOPS = "short_loops"
    #: Independent lookups (hashmap, memcached), priced by a hit rate.
    RANDOM = "random"


@dataclass(frozen=True)
class AccessPlan:
    """One operation's memory behaviour, as the compiler would see it."""

    pattern: AccessPattern
    #: Accesses the operation makes.
    n_elems: int
    elem_size: int
    #: Loop entries (1 for a scan; the group count for aggregations).
    entries: int = 1
    #: Writes (projections/materializations) vs reads (scans/aggs).
    is_write: bool = False
    #: Bytes the accesses cover when they re-touch data (k-means reads
    #: each point ``k + 1`` times a pass); None: ``n_elems * elem_size``.
    footprint: Optional[int] = None
    #: Loop-body cycles per access; None: the cost table's local access.
    body_cycles: Optional[float] = None
    #: Read accesses that still dirty what they touch (memcached's GETs
    #: update the item's LRU links): each miss writes its victim back.
    dirty: bool = False

    @property
    def iterations_per_entry(self) -> float:
        return self.n_elems / max(self.entries, 1)

    @property
    def kind(self) -> AccessKind:
        return AccessKind.WRITE if self.is_write else AccessKind.READ

    @property
    def writes_back(self) -> bool:
        return self.is_write or self.dirty

    def misses(
        self, granule: int, resident_fraction: float, refaults: float = 1.0
    ) -> Tuple[int, int]:
        """(granules the plan touches, misses) at one granule size.

        A scan first-touches ``ceil(footprint / granule)`` granules, of
        which ``resident_fraction`` are already local; ``refaults``
        scales the rest when reclaim evicts live granules that fault
        again.  A lookup's ``resident_fraction`` is its hit rate: each
        access misses independently.
        """
        if not 0.0 <= resident_fraction <= 1.0:
            raise RuntimeConfigError("resident_fraction must be in [0, 1]")
        if self.pattern is AccessPattern.RANDOM:
            hits = int(round(self.n_elems * resident_fraction))
            return self.n_elems, self.n_elems - hits
        nbytes = self.n_elems * self.elem_size if self.footprint is None else self.footprint
        granules = max(1, ceil_div(nbytes, granule))
        return granules, int(round(granules * (1.0 - resident_fraction) * refaults))
