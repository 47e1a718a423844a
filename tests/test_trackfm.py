"""TrackFM runtime: pointers, state table, guards, chunk streams."""

import pytest

from repro.aifm.pool import PoolConfig
from repro.errors import PointerError, RuntimeConfigError
from repro.machine.cache import AlwaysHitCache, AlwaysMissCache
from repro.machine.costs import AccessKind, GuardKind
from repro.sim.plan import AccessPattern, AccessPlan
from repro.trackfm.pointer import (
    TFM_BASE,
    decode_tfm_pointer,
    encode_tfm_pointer,
    is_tfm_pointer,
    object_id_of,
)
from repro.trackfm.runtime import GuardStrategy, TrackFMRuntime
from repro.trackfm.state_table import ObjectStateTable
from repro.units import GB, KB, MB


def make_runtime(object_size=4 * KB, local_objects=4, heap_objects=64, cache=None):
    config = PoolConfig(
        object_size=object_size,
        local_memory=local_objects * object_size,
        heap_size=heap_objects * object_size,
    )
    return TrackFMRuntime(config, cache=cache or AlwaysHitCache())


def scan(n, elem, write=False, entries=1):
    return AccessPlan(AccessPattern.SEQUENTIAL, n, elem, entries=entries, is_write=write)


class TestPointers:
    def test_encode_decode_roundtrip(self):
        for offset in (0, 1, 4096, (1 << 60) - 1):
            ptr = encode_tfm_pointer(offset)
            assert is_tfm_pointer(ptr)
            assert decode_tfm_pointer(ptr) == offset

    def test_base_is_2_to_60(self):
        assert TFM_BASE == 1 << 60
        assert encode_tfm_pointer(0) == TFM_BASE

    def test_canonical_pointers_not_tfm(self):
        for addr in (0, 0x1000, (1 << 47) - 1):
            assert not is_tfm_pointer(addr)

    def test_out_of_range_offset(self):
        with pytest.raises(PointerError):
            encode_tfm_pointer(1 << 60)
        with pytest.raises(PointerError):
            encode_tfm_pointer(-1)

    def test_decode_non_tfm_raises(self):
        with pytest.raises(PointerError):
            decode_tfm_pointer(0x1000)

    def test_object_id_is_shift(self):
        ptr = encode_tfm_pointer(3 * 4096 + 17)
        assert object_id_of(ptr, 4096) == 3
        assert object_id_of(ptr, 64) == (3 * 4096 + 17) // 64

    def test_object_id_requires_power_of_two(self):
        with pytest.raises(PointerError):
            object_id_of(encode_tfm_pointer(0), 100)


class TestStateTable:
    def test_size_matches_paper_math(self):
        # §3.2: a 32 GB heap of 4 KB objects -> 2^23 entries = 64 MB.
        config = PoolConfig(
            object_size=4 * KB, local_memory=1 * MB, heap_size=32 * GB
        )
        from repro.aifm.pool import ObjectPool

        table = ObjectStateTable(ObjectPool(config))
        assert table.num_entries == 1 << 23
        assert table.size_bytes == 64 * MB
        assert "64.0MB" in table.describe()

    def test_lookup_coherent_with_pool(self):
        rt = make_runtime()
        ptr = rt.tfm_malloc(100)
        obj = object_id_of(ptr, rt.object_size)
        safe, _ = rt.table.is_safe(obj)
        assert not safe  # never localized yet
        rt.access(ptr)
        safe, _ = rt.table.is_safe(obj)
        assert safe

    def test_cache_hit_flag_propagates(self):
        rt = make_runtime(cache=AlwaysMissCache())
        ptr = rt.tfm_malloc(8)
        rt.access(ptr)
        _, hit = rt.table.lookup(object_id_of(ptr, rt.object_size))
        assert hit is False


class TestMalloc:
    def test_malloc_returns_non_canonical(self):
        rt = make_runtime()
        ptr = rt.tfm_malloc(64)
        assert is_tfm_pointer(ptr)

    def test_distinct_allocations_disjoint(self):
        rt = make_runtime()
        a = rt.tfm_malloc(100)
        bb = rt.tfm_malloc(100)
        ra = rt.allocation_of(a)
        rb = rt.allocation_of(bb)
        assert ra.end <= rb.offset or rb.end <= ra.offset

    def test_free_releases(self):
        rt = make_runtime(heap_objects=2)
        a = rt.tfm_malloc(4 * KB)
        b2 = rt.tfm_malloc(4 * KB)
        rt.tfm_free(a)
        rt.tfm_free(b2)
        c = rt.tfm_malloc(4 * KB)  # recycled
        assert is_tfm_pointer(c)

    def test_free_keeps_an_object_a_live_neighbour_shares(self):
        # Both 16-byte allocations pack into object 0; the second does
        # not cover its first byte, and freeing the first must keep it.
        rt = make_runtime()
        a = rt.tfm_malloc(16)
        b2 = rt.tfm_malloc(16)
        rt.access(b2, AccessKind.WRITE)
        rt.tfm_free(a)
        rt.access(b2, AccessKind.READ)
        assert rt.metrics.remote_fetches == 1
        assert rt.metrics.guard_count(GuardKind.SLOW) == 1
        assert rt.metrics.guard_count(GuardKind.FAST) == 1

    def test_freeing_a_pinned_allocation_drops_only_its_pins(self):
        rt = make_runtime()
        pinned = rt.tfm_malloc_pinned(16)
        other = rt.tfm_malloc_pinned(16)
        neighbour = rt.tfm_malloc(16)  # object 0 too
        residency = rt.pool.residency
        rt.tfm_free_pinned(pinned)
        assert residency.is_pinned(0)  # the other pinned allocation
        rt.tfm_free_pinned(other)
        assert not residency.is_pinned(0)
        assert 0 in residency  # still resident for the neighbour
        rt.access(neighbour)
        assert rt.metrics.remote_fetches == 0

    def test_freeing_a_pinned_allocation_keeps_a_chunk_streams_pin(self):
        rt = make_runtime(object_size=64)
        ptr = rt.tfm_malloc(16)
        rt.chunk_begin(0)
        rt.chunk_access(ptr, AccessKind.READ, stream=0)  # pins object 0
        pinned = rt.tfm_malloc_pinned(16)  # object 0, already pinned
        rt.tfm_free_pinned(pinned)
        assert rt.pool.residency.is_pinned(0)
        rt.chunk_end(0)
        assert not rt.pool.residency.is_pinned(0)

    def test_a_pinned_allocation_outlives_a_chunk_streams_pin(self):
        rt = make_runtime(object_size=64)
        ptr = rt.tfm_malloc(16)
        rt.chunk_begin(0)
        rt.chunk_access(ptr, AccessKind.READ, stream=0)  # pins object 0
        rt.tfm_malloc_pinned(16)  # object 0 too
        rt.chunk_end(0)
        assert rt.pool.residency.is_pinned(0)

    def test_chunk_stream_survives_the_free_of_its_pinned_object(self):
        rt = make_runtime(object_size=64)
        ptr = rt.tfm_malloc(8 * 64)
        rt.chunk_begin(0, prefetch=True)
        for obj in range(3):
            rt.chunk_access(ptr + obj * 64, AccessKind.READ, stream=0, prefetch=True)
        rt.tfm_free(ptr)
        assert not rt.pool.residency.is_pinned(2)
        rt.chunk_access(ptr + 3 * 64, AccessKind.READ, stream=0, prefetch=True)
        assert rt.pool.residency.is_pinned(3)
        rt.chunk_end(0)
        assert not any(rt.pool.residency.is_pinned(o) for o in range(rt.pool.num_objects))

    def test_free_non_tfm_pointer_rejected(self):
        rt = make_runtime()
        with pytest.raises(PointerError):
            rt.tfm_free(0x1234)

    def test_calloc(self):
        rt = make_runtime()
        ptr = rt.tfm_calloc(8, 16)
        assert rt.allocation_of(ptr).size >= 128


class TestGuards:
    def test_custody_miss_for_canonical_pointer(self):
        rt = make_runtime()
        result = rt.guards.guard(0x1000, AccessKind.READ)
        assert result.kind is GuardKind.CUSTODY_MISS
        assert result.cycles == rt.costs.custody_miss

    def test_first_access_slow_with_fetch(self):
        rt = make_runtime()
        ptr = rt.tfm_malloc(8)
        result = rt.guards.guard(ptr, AccessKind.READ)
        assert result.kind is GuardKind.SLOW
        assert result.remote_fetch
        assert result.cycles > 30_000

    def test_second_access_fast(self):
        rt = make_runtime()
        ptr = rt.tfm_malloc(8)
        rt.guards.guard(ptr, AccessKind.READ)
        result = rt.guards.guard(ptr, AccessKind.READ)
        assert result.kind is GuardKind.FAST
        assert result.cycles == 21

    def test_write_guard_costs(self):
        rt = make_runtime(cache=AlwaysMissCache())
        ptr = rt.tfm_malloc(8)
        rt.guards.guard(ptr, AccessKind.WRITE)
        result = rt.guards.guard(ptr, AccessKind.WRITE)
        assert result.kind is GuardKind.FAST
        assert result.cycles == 309  # uncached fast write (Table 1)

    def test_guard_counts_in_metrics(self):
        rt = make_runtime()
        ptr = rt.tfm_malloc(8)
        rt.guards.guard(ptr, AccessKind.READ)
        rt.guards.guard(ptr, AccessKind.READ)
        rt.guards.guard(0x10, AccessKind.READ)
        m = rt.metrics
        assert m.guard_count(GuardKind.SLOW) == 1
        assert m.guard_count(GuardKind.FAST) == 1
        assert m.guard_count(GuardKind.CUSTODY_MISS) == 1

    def test_access_spanning_objects_guards_both(self):
        rt = make_runtime(object_size=64)
        ptr = rt.tfm_malloc(256)
        rt.access(ptr + 60, AccessKind.READ, size=8)
        assert rt.metrics.guard_count(GuardKind.SLOW) == 2


class TestChunkStreams:
    def test_chunk_begin_charges_setup(self):
        rt = make_runtime()
        cycles = rt.chunk_begin(0)
        assert cycles == rt.costs.chunk_setup

    def test_chunk_access_boundary_vs_locality(self):
        rt = make_runtime(object_size=64)
        ptr = rt.tfm_malloc(256)
        rt.chunk_begin(0)
        first = rt.chunk_access(ptr, AccessKind.READ, stream=0)
        assert first > rt.costs.locality_guard  # includes fetch
        within = rt.chunk_access(ptr + 8, AccessKind.READ, stream=0)
        assert within == pytest.approx(
            rt.costs.boundary_check + rt.costs.local_access
        )
        crossing = rt.chunk_access(ptr + 64, AccessKind.READ, stream=0)
        assert crossing > within
        rt.chunk_end(0)
        assert rt.metrics.guard_count(GuardKind.BOUNDARY) == 3
        assert rt.metrics.guard_count(GuardKind.LOCALITY) == 2

    def test_chunk_pins_current_object(self):
        rt = make_runtime(object_size=64, local_objects=2)
        ptr = rt.tfm_malloc(64)
        rt.chunk_begin(0)
        rt.chunk_access(ptr, AccessKind.READ, stream=0)
        obj = object_id_of(ptr, 64)
        assert rt.pool.residency.is_pinned(obj)
        rt.chunk_end(0)
        assert not rt.pool.residency.is_pinned(obj)

    def test_chunk_access_without_begin_raises(self):
        rt = make_runtime()
        ptr = rt.tfm_malloc(8)
        with pytest.raises(RuntimeConfigError):
            rt.chunk_access(ptr, AccessKind.READ, stream=3)

    def test_chunk_prefetch_clipped_to_allocation(self):
        rt = make_runtime(object_size=64, local_objects=32, heap_objects=128)
        ptr = rt.tfm_malloc(4 * 64)  # 4 objects
        rt.chunk_begin(0)
        for i in range(4 * 8):
            rt.chunk_access(ptr + i * 8, AccessKind.READ, stream=0, prefetch=True)
        rt.chunk_end(0)
        # No prefetch should have gone past the allocation's last object.
        fetched_bytes = rt.metrics.bytes_fetched
        assert fetched_bytes <= 4 * 64

    def test_chunk_prefetch_clip_follows_the_allocator(self):
        """Each prefetching crossing clips its targets to the allocation
        the allocator holds at the pointer right then: the clip moves
        when the stream walks into the next allocation, and when the
        stream's memory is freed and re-allocated between two crossings."""
        rt = make_runtime(object_size=64, local_objects=32, heap_objects=128)
        issued = []
        prefetch = rt.pool.prefetch

        def spy(obj_id, *rest):
            issued.append(obj_id)
            return prefetch(obj_id, *rest)

        rt.pool.prefetch = spy
        a = rt.tfm_malloc(4 * 64)  # objects 0-3
        b = rt.tfm_malloc(16 * 64)  # objects 4-19
        rt.chunk_begin(0, prefetch=True)

        def cross(obj, prefetch=True):
            before = len(issued)
            rt.chunk_access(a + obj * 64, AccessKind.READ, stream=0, prefetch=prefetch)
            return issued[before:]

        # The stride prefetcher runs 8 ahead: clipped to a, then to b.
        assert [cross(obj) for obj in range(6)] == [[], [], [3], [], [19], []]
        # Leave b without a prefetching crossing, free it, and fill its
        # regions with one-object allocations.
        cross(0, prefetch=False)
        rt.tfm_free(b)
        small = [rt.tfm_malloc(64) for _ in range(16)]
        # Stride 2 from object 14: 16, 18, ... lie in b's old range but
        # past object 14's own allocation.
        assert [cross(obj) for obj in (10, 12, 14)] == [[], [], []]
        cross(0, prefetch=False)
        for ptr in small:
            rt.tfm_free(ptr)
        # Outside every allocation: the whole heap is the clip.
        assert cross(16) == [32, 34, 36, 38, 40, 42, 44, 46]
        assert cross(18) == [48, 50, 52, 54, 56, 58, 60, 62]

    def test_chunk_prefetch_clip_after_the_stream_allocation_is_freed(self):
        """A stream keeps its clip between crossings; once its allocation
        is freed, the next crossing clips as if it had never kept one."""
        rt = make_runtime(object_size=64, local_objects=32, heap_objects=128)
        issued = []
        prefetch = rt.pool.prefetch

        def spy(obj_id, *rest):
            issued.append(obj_id)
            return prefetch(obj_id, *rest)

        rt.pool.prefetch = spy
        a = rt.tfm_malloc(8 * 64)  # objects 0-7
        rt.tfm_malloc(8 * 64)  # objects 8-15

        def cross(obj, prefetch=True):
            before = len(issued)
            rt.chunk_access(a + obj * 64, AccessKind.READ, stream=0, prefetch=prefetch)
            return issued[before:]

        rt.chunk_begin(0, prefetch=True)
        assert [cross(obj) for obj in range(3)] == [[], [], [3, 4, 5, 6, 7]]
        cross(9, prefetch=False)  # the pin leaves a
        rt.tfm_free(a)
        # No allocation holds object 3 now: the whole heap is the clip.
        assert cross(3) == [11, 12, 13, 14, 15, 16, 17, 18]

    def test_chunk_end_unknown_stream_is_noop(self):
        rt = make_runtime()
        rt.chunk_end(42)  # must not raise


class TestSequentialScan:
    def test_naive_counts_guards(self):
        rt = make_runtime(object_size=4 * KB, local_objects=8, heap_objects=64)
        cycles = rt.cost_plan(scan(1024, 8), 0.0, GuardStrategy.NAIVE)
        assert cycles > 0
        m = rt.metrics
        # 1024 elems * 8B = 2 objects: 2 slow guards, rest fast.
        assert m.guard_count(GuardKind.SLOW) == 2
        assert m.guard_count(GuardKind.FAST) == 1022
        assert m.remote_fetches == 2

    def test_chunked_cheaper_than_naive_for_dense_loops(self):
        rt1 = make_runtime()
        naive = rt1.cost_plan(scan(100_000, 4), 0.0, GuardStrategy.NAIVE)
        rt2 = make_runtime()
        chunked = rt2.cost_plan(scan(100_000, 4), 0.0, GuardStrategy.CHUNKED)
        assert chunked < naive

    def test_prefetch_cheaper_than_blocking(self):
        rt1 = make_runtime()
        plain = rt1.cost_plan(scan(100_000, 4), 0.0, GuardStrategy.CHUNKED)
        rt2 = make_runtime()
        pref = rt2.cost_plan(scan(100_000, 4), 0.0, GuardStrategy.CHUNKED_PREFETCH)
        assert pref < plain

    def test_resident_fraction_reduces_cost(self):
        rt1 = make_runtime()
        cold = rt1.cost_plan(scan(10_000, 8), 0.0, GuardStrategy.NAIVE)
        rt2 = make_runtime()
        warm = rt2.cost_plan(scan(10_000, 8), 0.9, GuardStrategy.NAIVE)
        assert warm < cold

    def test_write_scan_accounts_evacuation(self):
        rt = make_runtime()
        rt.cost_plan(scan(10_000, 8, write=True), 0.0, GuardStrategy.CHUNKED)
        assert rt.metrics.bytes_evacuated > 0

    def test_loop_entries_multiply_setup(self):
        rt1 = make_runtime()
        once = rt1.cost_plan(scan(1000, 8), 0.0, GuardStrategy.CHUNKED)
        rt2 = make_runtime()
        many = rt2.cost_plan(scan(1000, 8, entries=100), 0.0, GuardStrategy.CHUNKED)
        assert many - once == pytest.approx(99 * rt1.costs.chunk_setup)

    def test_invalid_fraction(self):
        rt = make_runtime()
        with pytest.raises(RuntimeConfigError):
            rt.cost_plan(scan(10, 8), 1.5, GuardStrategy.NAIVE)

    def test_zero_elements(self):
        rt = make_runtime()
        assert rt.cost_plan(scan(0, 8)) == 0.0

    def test_naive_plan_with_fewer_accesses_than_objects(self):
        # 4 accesses of 8 KB span 8 objects: 8 slow guards, no fast one.
        rt = make_runtime()
        cycles = rt.cost_plan(scan(4, 8 * KB), 0.0, GuardStrategy.NAIVE)
        c = rt.costs
        fetch = rt.pool.backend.link.transfer_cycles(4 * KB)
        assert cycles == 4 * c.local_access + 8 * (c.slow_guard_read_uncached + fetch)
        assert rt.metrics.guard_count(GuardKind.FAST) == 0
        assert rt.metrics.guard_count(GuardKind.SLOW) == 8


class TestTierConsistency:
    """The per-access and closed-form tiers must agree (docs/architecture.md)."""

    def test_naive_scan_counts_match_replay(self):
        n, elem = 2048, 8  # 16 KB = 4 objects
        replay = make_runtime(local_objects=8)
        ptr = replay.tfm_malloc(n * elem)
        for i in range(n):
            replay.access(ptr + i * elem, AccessKind.READ, size=elem)

        closed = make_runtime(local_objects=8)
        closed.cost_plan(scan(n, elem), 0.0, GuardStrategy.NAIVE)

        rm, cm = replay.metrics, closed.metrics
        assert rm.guard_count(GuardKind.SLOW) == cm.guard_count(GuardKind.SLOW)
        assert rm.guard_count(GuardKind.FAST) == cm.guard_count(GuardKind.FAST)
        assert rm.remote_fetches == cm.remote_fetches
        assert rm.bytes_fetched == cm.bytes_fetched
        assert rm.accesses == cm.accesses

    def test_naive_scan_cycles_close_to_replay(self):
        # Cycles agree up to the cache-hit pattern of the state-table
        # lookups (the closed form assumes one uncached lookup per
        # object; replay with AlwaysHitCache under-counts those).
        n, elem = 2048, 8
        replay = make_runtime(local_objects=8)
        ptr = replay.tfm_malloc(n * elem)
        replay_cycles = sum(
            replay.access(ptr + i * elem, AccessKind.READ, size=elem)
            for i in range(n)
        )
        closed = make_runtime(local_objects=8)
        closed_cycles = closed.cost_plan(scan(n, elem), 0.0, GuardStrategy.NAIVE)
        assert replay_cycles == pytest.approx(closed_cycles, rel=0.02)

    def test_chunked_scan_counts_match_replay(self):
        n, elem = 2048, 8
        replay = make_runtime(local_objects=8)
        ptr = replay.tfm_malloc(n * elem)
        replay.chunk_begin(0)
        for i in range(n):
            replay.chunk_access(ptr + i * elem, AccessKind.READ, stream=0)
        replay.chunk_end(0)

        closed = make_runtime(local_objects=8)
        closed.cost_plan(scan(n, elem), 0.0, GuardStrategy.CHUNKED)
        rm, cm = replay.metrics, closed.metrics
        assert rm.guard_count(GuardKind.BOUNDARY) == cm.guard_count(GuardKind.BOUNDARY)
        assert rm.guard_count(GuardKind.LOCALITY) == cm.guard_count(GuardKind.LOCALITY)
        assert rm.remote_fetches == cm.remote_fetches
        assert rm.bytes_fetched == cm.bytes_fetched
