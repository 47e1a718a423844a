"""memcached under a USR-style GET workload (§4.5, Fig. 16).

The paper transforms memcached 1.2.7 with TrackFM: 12 GB of key/value
pairs sized per the USR distribution (small keys, small values), 100 M
zipf-distributed GETs, 1 GB local memory, sweeping the zipf skew from
1.0 to 1.3.  Three behaviours drive Fig. 16:

* at low skew, I/O amplification dominates and TrackFM's small objects
  beat Fastswap's 4 KB pages (~1.7x);
* as skew rises, Fastswap's page faults amortize over hot pages and it
  converges toward TrackFM (whose fast-path guards are *not* amortized);
* memcached's **slab allocator** batches small items into large
  contiguous slabs, mixing hot and cold items within one object — the
  §5 observation that slabs limit how much I/O amplification TrackFM
  can recover.

Each GET costs a fixed request-path overhead (client/server networking
and protocol parsing — what puts the paper's all-local line at ~24
KOps/s) plus two memory dependencies: the hash-table bucket and the
item itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.fastswap.runtime import FastswapRuntime
from repro.sim.local import LocalRuntime
from repro.sim.metrics import Metrics
from repro.sim.plan import AccessPattern, AccessPlan
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import BASE_PAGE, is_power_of_two

#: Request-path cycles per GET (network + protocol), calibrated so the
#: all-local throughput lands near the paper's ~24 KOps/s.
GET_BASE_CYCLES = 98_000.0

#: USR-style item sizes (key+value+item header), bytes : probability.
USR_ITEM_SIZES = ((64, 0.60), (128, 0.25), (256, 0.10), (512, 0.05))


@dataclass
class MemcachedResult:
    cycles: float
    metrics: Metrics
    n_ops: int

    def throughput_kops(self, cpu_hz: float = 2.4e9) -> float:
        """KOps/s, Fig. 16a's metric."""
        if self.cycles <= 0:
            return 0.0
        return self.n_ops / (self.cycles / cpu_hz) / 1e3


@dataclass
class MemcachedWorkload:
    """One memcached configuration (sizes already scaled)."""

    working_set: int
    n_keys: int
    n_ops: int
    skew: float = 1.02
    #: Hash-table entry bytes (pointer-sized buckets).
    bucket_size: int = 8
    seed: int = 11

    def __post_init__(self) -> None:
        if min(self.working_set, self.n_keys, self.n_ops) <= 0:
            raise WorkloadError("sizes must be positive")
        rng = np.random.default_rng(self.seed)
        sizes = np.array([s for s, _ in USR_ITEM_SIZES])
        probs = np.array([p for _, p in USR_ITEM_SIZES])
        # Draw item sizes, then scale the count so total bytes ~= WSS.
        mean_size = float((sizes * probs).sum())
        n_items = max(1, int(self.working_set / mean_size))
        self.n_items = min(n_items, self.n_keys) if self.n_keys else n_items
        self._item_sizes = rng.choice(sizes, size=self.n_items, p=probs)
        # Slab allocation: items are laid out per size class in
        # allocation (key) order — hot and cold items interleave.
        self._item_offsets = np.zeros(self.n_items, dtype=np.int64)
        cursor = 0
        for cls in sizes:
            mask = self._item_sizes == cls
            count = int(mask.sum())
            self._item_offsets[mask] = cursor + np.arange(count) * cls
            cursor += count * int(cls)
        self.items_bytes = int(cursor)
        self.buckets_bytes = self.n_items * self.bucket_size
        self._heat_cache: Dict[int, np.ndarray] = {}

    # -- heat over granules ---------------------------------------------------

    def _granule_heat(self, granule: int) -> np.ndarray:
        """Per-granule zipf mass (buckets + items), sorted descending."""
        if not is_power_of_two(granule):
            raise WorkloadError("granule must be a power of two")
        cached = self._heat_cache.get(granule)
        if cached is not None:
            return cached
        n = self.n_items
        ranks = np.arange(1, n + 1, dtype=np.float64)
        mass = ranks ** (-self.skew)
        mass /= mass.sum()
        # Keys are assigned to ranks via a fixed permutation (hashing).
        rng = np.random.default_rng(self.seed + 1)
        key_of_rank = rng.permutation(n)
        # Bucket region granules.
        bucket_gran = (key_of_rank.astype(np.int64) * self.bucket_size) // granule
        # Item region granules (offset past the bucket region).
        item_gran = (self.buckets_bytes + self._item_offsets[key_of_rank]) // granule
        total_granules = int(max(bucket_gran.max(), item_gran.max())) + 1
        heat = np.zeros(total_granules, dtype=np.float64)
        # Each GET touches its bucket and its item with the same mass.
        np.add.at(heat, bucket_gran, mass * 0.5)
        np.add.at(heat, item_gran, mass * 0.5)
        heat[::-1].sort()
        self._heat_cache[granule] = heat
        return heat

    def hit_rate(self, granule: int, cache_granules: int) -> float:
        """Steady-state LRU hit rate (Che's approximation)."""
        from repro.sim.che import lru_hit_rate

        heat = self._granule_heat(granule)
        return lru_hit_rate(heat, cache_granules)

    def _region_heat(self, granule: int, region: str) -> np.ndarray:
        """Heat over one region's granules only (hybrid placement)."""
        n = self.n_items
        ranks = np.arange(1, n + 1, dtype=np.float64)
        mass = ranks ** (-self.skew)
        mass /= mass.sum()
        rng = np.random.default_rng(self.seed + 1)
        key_of_rank = rng.permutation(n)
        if region == "buckets":
            gran = (key_of_rank.astype(np.int64) * self.bucket_size) // granule
        elif region == "items":
            gran = self._item_offsets[key_of_rank] // granule
        else:
            raise WorkloadError(f"unknown region {region!r}")
        heat = np.zeros(int(gran.max()) + 1, dtype=np.float64)
        np.add.at(heat, gran, mass)
        return heat

    def region_hit_rate(self, granule: int, region: str, cache_granules: int) -> float:
        """Hit rate of one region under its own dedicated cache."""
        from repro.sim.che import lru_hit_rate

        return lru_hit_rate(self._region_heat(granule, region), cache_granules)

    # -- system models ----------------------------------------------------------
    #
    # Each run costs its plans onto the runtime(s) a caller passes and
    # returns the runtime's metrics, so pass fresh runtimes per run.

    def _gets(self, deps: int, dirty: bool = True) -> AccessPlan:
        """``deps`` lookups.  GETs write LRU-list bookkeeping into the
        item, so displaced items are dirty and written back, though
        the guards are reads."""
        return AccessPlan(AccessPattern.RANDOM, deps, self.bucket_size, dirty=dirty)

    def _result(self, cycles: float, metrics: Metrics) -> MemcachedResult:
        return MemcachedResult(self.n_ops * GET_BASE_CYCLES + cycles, metrics, self.n_ops)

    def run_trackfm(self, runtime: TrackFMRuntime) -> MemcachedResult:
        # Two memory dependencies per GET (bucket and item); each
        # hits or misses with the aggregate rate.
        hr = self.hit_rate(runtime.object_size, runtime.config.local_capacity_objects)
        return self._result(
            runtime.cost_plan(self._gets(2 * self.n_ops), hr), runtime.metrics
        )

    def run_fastswap(self, runtime: FastswapRuntime) -> MemcachedResult:
        hr = self.hit_rate(runtime.page_size, runtime.config.local_capacity_pages)
        return self._result(
            runtime.cost_plan(self._gets(2 * self.n_ops), hr), runtime.metrics
        )

    def hybrid_split(
        self, local_memory: int, object_size: int, page_size: int = BASE_PAGE
    ) -> Tuple[int, int]:
        """(bucket, item) local memory under the §5 hybrid placement.

        The bucket array is dense (every byte of a cached page is a
        useful bucket), so it gets memory first — up to its full
        footprint or half the budget; items take the rest.
        """
        bucket_local = max(page_size, min(self.buckets_bytes, local_memory // 2))
        return bucket_local, max(object_size, local_memory - bucket_local)

    def run_hybrid(
        self, buckets: FastswapRuntime, items: TrackFMRuntime
    ) -> MemcachedResult:
        """The §5 hybrid: bucket array on kernel pages, items on objects.

        The bucket array is dense and intensely reused — ideal for
        pages, whose hits cost nothing and which GETs do not dirty.
        Items are sparse and fine-grained — ideal for small objects.
        Size the two runtimes with :meth:`hybrid_split`.
        """
        bucket_hr = self.region_hit_rate(
            buckets.page_size, "buckets", buckets.config.local_capacity_pages
        )
        item_hr = self.region_hit_rate(
            items.object_size, "items", items.config.local_capacity_objects
        )
        cycles = buckets.cost_plan(self._gets(self.n_ops, dirty=False), bucket_hr)
        cycles += items.cost_plan(self._gets(self.n_ops), item_hr)
        return self._result(
            cycles, Metrics.aggregate((buckets.metrics, items.metrics))
        )

    def run_local(self, runtime: LocalRuntime) -> MemcachedResult:
        return self._result(
            runtime.cost_plan(self._gets(2 * self.n_ops)), runtime.metrics
        )
