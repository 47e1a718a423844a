"""Zipf-skewed hashmap lookups (the §4.3/§4.4 microbenchmark).

The paper's setup: a C++ STL ``unordered_map`` with 4-byte keys and
values, a 2 GB working set, 50 M lookups sampled from a Zipf(1.02)
distribution, with the access trace itself stored in a 190 MB heap
array.  Temporal locality is high (hot keys dominate), spatial locality
is nil (hashing scatters neighbours), and the granularity is tiny —
precisely where object size choice and I/O amplification matter
(Figs. 9 and 13).

An STL ``unordered_map`` lookup touches two heap regions: the bucket
array (8 B per bucket) and the node the bucket points at (~32 B,
allocated in insertion order).  Both are modelled: every key's zipf
mass lands on the far-memory granule (object or page) holding its
bucket and on the granule holding its node.  The steady-state cache
behaviour is Che's LRU approximation over the combined granule heat —
which captures both the dilution effect (big granules mix hot and cold
entries) and the tail churn behind the paper's I/O-amplification
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import WorkloadError
from repro.fastswap.runtime import FastswapRuntime
from repro.sim.local import LocalRuntime
from repro.sim.metrics import Metrics
from repro.sim.plan import AccessPattern, AccessPlan
from repro.trackfm.runtime import GuardStrategy, TrackFMRuntime
from repro.units import is_power_of_two

#: Per-lookup base cost (hashing, comparisons, call overhead).
LOOKUP_BODY_CYCLES = 60.0

#: STL layout: 8-byte bucket slots, ~32-byte nodes (key+value+next+hash).
BUCKET_BYTES = 8
NODE_BYTES = 32
#: 4-byte keys and values.
KEY_BYTES = 4

#: Local slots the streaming key trace keeps claimed: a prefetch window
#: of objects under TrackFM, a readahead window of pages under Fastswap.
TRACE_WINDOW_OBJECTS = 16
TRACE_WINDOW_PAGES = 8


@dataclass
class HashmapResult:
    """Outcome of one hashmap run."""

    cycles: float
    metrics: Metrics
    n_lookups: int

    def throughput_mops(self, cpu_hz: float = 2.4e9) -> float:
        """MOps/s, the Fig. 9 metric."""
        if self.cycles <= 0:
            return 0.0
        return self.n_lookups / (self.cycles / cpu_hz) / 1e6

    def execution_seconds(self, cpu_hz: float = 2.4e9) -> float:
        """Wall seconds, the Fig. 13a metric."""
        return self.cycles / cpu_hz

    def amplification(self, working_set: int) -> float:
        return self.metrics.amplification(working_set)


@dataclass
class HashmapWorkload:
    """One hashmap configuration (sizes already scaled)."""

    working_set: int
    n_lookups: int
    skew: float = 1.02
    #: The on-heap array holding the pre-generated key trace.
    trace_bytes: int = 0
    seed: int = 7
    body_cycles: float = LOOKUP_BODY_CYCLES

    def __post_init__(self) -> None:
        if self.working_set <= 0 or self.n_lookups <= 0:
            raise WorkloadError("working set and lookups must be positive")
        self._heat_cache: Dict[int, np.ndarray] = {}

    @property
    def n_keys(self) -> int:
        return max(1, self.working_set // (BUCKET_BYTES + NODE_BYTES))

    @property
    def buckets_bytes(self) -> int:
        return self.n_keys * BUCKET_BYTES

    # -- heat aggregation ----------------------------------------------------

    def _granule_heat(self, granule_size: int) -> np.ndarray:
        """Combined bucket+node granule popularity (cached per size)."""
        if not is_power_of_two(granule_size):
            raise WorkloadError("granule size must be a power of two")
        cached = self._heat_cache.get(granule_size)
        if cached is not None:
            return cached
        n = self.n_keys
        ranks = np.arange(1, n + 1, dtype=np.float64)
        mass = ranks ** (-self.skew)
        mass /= mass.sum()
        keys = np.arange(n, dtype=np.uint64)
        # Bucket of each rank: Fibonacci hash scatters hot keys.
        buckets = ((keys * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(n)).astype(
            np.int64
        )
        bucket_gran = (buckets * BUCKET_BYTES) // granule_size
        # Node of each rank: insertion order is a fixed permutation.
        rng = np.random.default_rng(self.seed)
        node_index = rng.permutation(n).astype(np.int64)
        node_gran = (self.buckets_bytes + node_index * NODE_BYTES) // granule_size
        n_granules = int(max(bucket_gran.max(), node_gran.max())) + 1
        heat = np.zeros(n_granules, dtype=np.float64)
        np.add.at(heat, bucket_gran, mass * 0.5)
        np.add.at(heat, node_gran, mass * 0.5)
        self._heat_cache[granule_size] = heat
        return heat

    def hit_rate(self, granule_size: int, cache_granules: int) -> float:
        """Steady-state LRU hit rate (Che's approximation).

        A real LRU under zipf traffic keeps churning tail granules
        through the cache, so hit rates sit well below the ideal
        hottest-K bound — this refetch churn is the I/O amplification
        Fig. 13 measures.
        """
        from repro.sim.che import lru_hit_rate

        heat = self._granule_heat(granule_size)
        return lru_hit_rate(heat, cache_granules)

    # -- runtime models ---------------------------------------------------------
    #
    # Each run costs its plans onto the runtime(s) a caller passes and
    # returns the runtime's metrics, so pass fresh runtimes per run.

    def _lookups(self) -> AccessPlan:
        """Bucket + node per lookup, each hitting with the granule hit rate."""
        return AccessPlan(AccessPattern.RANDOM, 2 * self.n_lookups, KEY_BYTES)

    def _trace(self, granule: int) -> AccessPlan:
        """Streaming the key trace once: one read per lookup, no body
        (the lookup's covers it), over whole granules (floor division,
        where a scan rounds up)."""
        return AccessPlan(
            AccessPattern.SEQUENTIAL, self.n_lookups, KEY_BYTES,
            footprint=max(1, self.trace_bytes // granule) * granule,
            body_cycles=0.0,
        )

    def _cache_granules(self, capacity: int, window: int) -> int:
        """Local slots left for buckets and nodes beside the trace window."""
        return max(1, capacity - (window if self.trace_bytes else 0))

    def _result(self, cycles: float, metrics: Metrics) -> HashmapResult:
        cycles += self.n_lookups * self.body_cycles
        return HashmapResult(cycles=cycles, metrics=metrics, n_lookups=self.n_lookups)

    def _cost_lookups(self, runtime: TrackFMRuntime) -> float:
        hr = self.hit_rate(
            runtime.object_size,
            self._cache_granules(
                runtime.config.local_capacity_objects, TRACE_WINDOW_OBJECTS
            ),
        )
        return runtime.cost_plan(self._lookups(), hr)

    def _cost_trace(self, runtime: TrackFMRuntime, chunked: bool) -> float:
        if not self.trace_bytes:
            return 0.0
        strategy = (
            GuardStrategy.CHUNKED_PREFETCH if chunked else GuardStrategy.NAIVE
        )
        return runtime.cost_plan(self._trace(runtime.object_size), 0.0, strategy)

    def run_trackfm(
        self, runtime: TrackFMRuntime, chunk_trace: bool = True
    ) -> HashmapResult:
        """TrackFM at the runtime's compile-time object size."""
        cycles = self._cost_lookups(runtime)
        cycles += self._cost_trace(runtime, chunk_trace)
        return self._result(cycles, runtime.metrics)

    def run_trackfm_multisize(
        self, buckets: TrackFMRuntime, trace: TrackFMRuntime
    ) -> HashmapResult:
        """Multiple object sizes (§3.2 future work): per-region classes.

        The buckets/nodes (fine-grained, random) use a small class; the
        streaming key trace (sequential) uses a large one — the per-site
        recommendation :func:`repro.compiler.size_classes.recommend_object_sizes`
        produces for exactly this shape.  Each class is its own runtime.
        """
        cycles = self._cost_lookups(buckets)
        cycles += self._cost_trace(trace, chunked=True)
        return self._result(
            cycles, Metrics.aggregate((buckets.metrics, trace.metrics))
        )

    def run_fastswap(self, runtime: FastswapRuntime) -> HashmapResult:
        """Fastswap: same workload at page granularity."""
        page = runtime.page_size
        hr = self.hit_rate(
            page,
            self._cache_granules(
                runtime.config.local_capacity_pages, TRACE_WINDOW_PAGES
            ),
        )
        cycles = runtime.cost_plan(self._lookups(), hr)
        if self.trace_bytes:
            # One major fault per trace page, no reclaim and no
            # readahead credit (swap readahead thrashes under the
            # random bucket traffic).
            cycles += runtime.cost_plan(self._trace(page), 0.0, under_pressure=False)
        return self._result(cycles, runtime.metrics)

    def run_local(self, runtime: LocalRuntime) -> HashmapResult:
        return self._result(runtime.cost_plan(self._lookups()), runtime.metrics)
