"""The TrackFM object state table.

§3.2: AIFM needs two dependent memory references to reach object
metadata; TrackFM eliminates one by caching the metadata words in a
flat, contiguous table indexed by object id — possible because the
object id is encoded in the pointer's non-canonical bits.  The table
holds one 8-byte entry per object (64 MB for a 32 GB heap of 4 KB
objects), and the guard's only data access is the indexed load from it
— which is what the cached/uncached split of Table 1 is about.

Coherence with the AIFM-managed metadata is by construction here: the
table *aliases the pool's metadata array* (the simulation analogue of
the paper's modified AIFM that writes the table on every state change).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.aifm.objectmeta import UNSAFE_MASK
from repro.aifm.pool import ObjectPool
from repro.machine.cache import CacheModel
from repro.units import fmt_bytes

#: Where the table lives in the simulated canonical address space, for
#: cache-index purposes only.
TABLE_BASE_ADDR = 0x7000_0000

ENTRY_BYTES = 8


class ObjectStateTable:
    """Flat metadata-entry table with a modelled CPU-cache lookup."""

    def __init__(self, pool: ObjectPool, cache: Optional[CacheModel] = None) -> None:
        self.pool = pool
        self.cache = cache if cache is not None else CacheModel()
        self.base_addr = TABLE_BASE_ADDR

    @property
    def num_entries(self) -> int:
        return self.pool.num_objects

    @property
    def size_bytes(self) -> int:
        """Total table footprint (the single-level-page-table math of §3.2)."""
        return self.num_entries * ENTRY_BYTES

    def lookup(self, obj_id: int) -> Tuple[int, bool]:
        """Read the metadata word for ``obj_id``.

        Returns ``(word, cache_hit)``; the hit/miss drives the
        cached/uncached guard-cost columns of Table 1.
        """
        hit = self.cache.access(self.base_addr + obj_id * ENTRY_BYTES)
        return self.pool.meta_word(obj_id), hit

    def is_safe(self, obj_id: int) -> Tuple[bool, bool]:
        """(fast-path safe?, cache hit?) for one object."""
        word, hit = self.lookup(obj_id)
        return (word & UNSAFE_MASK) == 0, hit

    def describe(self) -> str:
        return (
            f"object state table: {self.num_entries} entries x {ENTRY_BYTES}B "
            f"= {fmt_bytes(self.size_bytes)} for a "
            f"{fmt_bytes(self.pool.config.heap_size)} heap of "
            f"{fmt_bytes(self.pool.object_size)} objects"
        )
