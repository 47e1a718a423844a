"""A small set-associative cache model for object-state-table lookups.

The only data access on TrackFM's fast path is the 8-byte load from the
object state table (§3.3, Fig. 3).  Whether that load hits the CPU cache
decides between the "cached" and "uncached" columns of Table 1.  We model
just enough of the cache to make that distinction behave realistically
under different access patterns: a set-associative LRU cache over the
state table's cache lines.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict

from repro.errors import RuntimeConfigError
from repro.units import CACHE_LINE, is_power_of_two


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


class CacheModel:
    """Set-associative LRU cache keyed by byte address.

    Parameters mirror a last-level-cache slice big enough to be the
    deciding factor for state-table locality: 32 KB / 8-way by default
    (one L1D's worth — the state table competes with application data, so
    modelling only a small fraction of the LLC is the conservative
    choice and matches the paper's cached-vs-uncached spread).
    """

    def __init__(
        self,
        size_bytes: int = 32 * 1024,
        line_size: int = CACHE_LINE,
        ways: int = 8,
    ) -> None:
        if not is_power_of_two(line_size):
            raise RuntimeConfigError("cache line size must be a power of two")
        if size_bytes <= 0 or ways <= 0:
            raise RuntimeConfigError("cache size and ways must be positive")
        lines = size_bytes // line_size
        if lines < ways or lines % ways != 0:
            raise RuntimeConfigError(
                f"cache of {size_bytes}B with {line_size}B lines cannot be "
                f"{ways}-way associative"
            )
        self.line_size = line_size
        self.ways = ways
        self.num_sets = lines // ways
        self.stats = CacheStats()
        # One LRU OrderedDict per set: tag -> None.
        self._sets: Dict[int, "OrderedDict[int, None]"] = {}

    def access(self, addr: int) -> bool:
        """Touch ``addr``; return True on hit, False on miss (and fill)."""
        line = addr // self.line_size
        set_idx = line % self.num_sets
        tag = line // self.num_sets
        entries = self._sets.get(set_idx)
        if entries is None:
            entries = OrderedDict()
            self._sets[set_idx] = entries
        if tag in entries:
            entries.move_to_end(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        entries[tag] = None
        if len(entries) > self.ways:
            entries.popitem(last=False)
        return False

    def flush(self) -> None:
        """Drop all cached lines (counters are kept)."""
        self._sets.clear()

    def reset(self) -> None:
        """Drop lines and zero counters."""
        self.flush()
        self.stats.reset()


class AlwaysHitCache(CacheModel):
    """Degenerate cache used by closed-form simulations: always hits."""

    def __init__(self) -> None:
        super().__init__(size_bytes=64 * 1024, line_size=CACHE_LINE, ways=8)

    def access(self, addr: int) -> bool:  # noqa: D102 - see class docstring
        self.stats.hits += 1
        return True


class AlwaysMissCache(CacheModel):
    """Degenerate cache used to probe the uncached columns of Table 1."""

    def __init__(self) -> None:
        super().__init__(size_bytes=64 * 1024, line_size=CACHE_LINE, ways=8)

    def access(self, addr: int) -> bool:  # noqa: D102 - see class docstring
        self.stats.misses += 1
        return False
