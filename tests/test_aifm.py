"""AIFM substrate: metadata formats, allocator, pool, scope, prefetcher."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aifm.allocator import RegionAllocator
from repro.aifm.objectmeta import (
    DIRTY_BIT,
    EVACUATING_BIT,
    ObjectMeta,
    UNSAFE_MASK,
    encode_local,
    encode_remote,
)
from repro.aifm.pool import ObjectPool, PoolConfig
from repro.aifm.prefetcher import StridePrefetcher
from repro.aifm.scope import DerefScope
from repro.errors import (
    EvacuationError,
    OutOfMemoryError,
    PointerError,
    RuntimeConfigError,
)
from repro.units import KB, MB


class TestObjectMeta:
    def test_local_roundtrip(self):
        word = encode_local(0xABC000, dirty=True, hot=True)
        meta = ObjectMeta(word)
        assert meta.is_local and not meta.is_remote
        assert meta.data_addr == 0xABC000
        assert meta.is_dirty and meta.is_hot
        assert not meta.is_evacuating

    def test_remote_roundtrip(self):
        word = encode_remote(obj_id=12345, obj_size=4096, ds_id=7, shared=True)
        meta = ObjectMeta(word)
        assert meta.is_remote
        assert meta.obj_id == 12345
        assert meta.obj_size == 4096
        assert meta.ds_id == 7

    def test_safety_mask(self):
        assert ObjectMeta(encode_local(0x1000)).is_safe
        assert not ObjectMeta(encode_remote(1, 64)).is_safe
        assert not ObjectMeta(encode_local(0x1000, evacuating=True)).is_safe
        # Dirty/hot local objects are still safe to access.
        assert ObjectMeta(encode_local(0x1000, dirty=True, hot=True)).is_safe

    def test_unsafe_mask_is_remote_or_evacuating(self):
        assert encode_remote(0, 64) & UNSAFE_MASK
        assert encode_local(0, evacuating=True) & UNSAFE_MASK
        assert not (encode_local(0, dirty=True) & UNSAFE_MASK)

    def test_field_bounds(self):
        with pytest.raises(PointerError):
            encode_local(1 << 47)
        with pytest.raises(PointerError):
            encode_remote(1 << 38, 64)
        with pytest.raises(PointerError):
            encode_remote(0, 1 << 16)
        with pytest.raises(PointerError):
            encode_remote(0, 64, ds_id=256)

    def test_transitions(self):
        meta = ObjectMeta(encode_local(0x40))
        assert meta.with_dirty().is_dirty
        assert meta.with_hot().is_hot
        assert meta.with_evacuating().is_evacuating
        assert not meta.with_dirty().with_dirty(False).is_dirty

    def test_remote_transitions_rejected(self):
        meta = ObjectMeta(encode_remote(1, 64))
        with pytest.raises(PointerError):
            meta.with_dirty()
        with pytest.raises(PointerError):
            meta.data_addr
        with pytest.raises(PointerError):
            ObjectMeta(encode_local(0)).obj_id


class TestRegionAllocator:
    def test_small_allocations_share_a_region(self):
        alloc = RegionAllocator(heap_size=64 * KB, object_size=4 * KB)
        a = alloc.allocate(100)
        b = alloc.allocate(100)
        assert a.object_range(4 * KB) == b.object_range(4 * KB)

    def test_large_allocation_spans_objects(self):
        alloc = RegionAllocator(heap_size=64 * KB, object_size=4 * KB)
        a = alloc.allocate(10 * KB)
        first, last = a.object_range(4 * KB)
        assert last - first == 3

    def test_free_and_recycle(self):
        alloc = RegionAllocator(heap_size=8 * KB, object_size=4 * KB)
        a = alloc.allocate(4 * KB)
        b = alloc.allocate(4 * KB)
        alloc.free(a.offset)
        alloc.free(b.offset)
        c = alloc.allocate(4 * KB)  # recycled region, not OOM
        assert c.offset in (a.offset, b.offset)

    def test_oom(self):
        alloc = RegionAllocator(heap_size=8 * KB, object_size=4 * KB)
        alloc.allocate(8 * KB)
        with pytest.raises(OutOfMemoryError):
            alloc.allocate(4 * KB)

    def test_free_unknown_offset(self):
        alloc = RegionAllocator(heap_size=8 * KB, object_size=4 * KB)
        with pytest.raises(PointerError):
            alloc.free(123)

    def test_allocation_at_interior_offset(self):
        alloc = RegionAllocator(heap_size=64 * KB, object_size=4 * KB)
        a = alloc.allocate(1000)
        assert alloc.allocation_at(a.offset + 500) == a
        assert alloc.allocation_at(a.offset) == a

    def test_bytes_allocated_tracking(self):
        alloc = RegionAllocator(heap_size=64 * KB, object_size=4 * KB)
        a = alloc.allocate(128)
        assert alloc.bytes_allocated == 128
        alloc.free(a.offset)
        assert alloc.bytes_allocated == 0

    def test_zero_size_clamped(self):
        alloc = RegionAllocator(heap_size=8 * KB, object_size=4 * KB)
        a = alloc.allocate(0)
        assert a.size > 0


class TestObjectPool:
    def make_pool(self, local_objects=4, object_size=4 * KB) -> ObjectPool:
        config = PoolConfig(
            object_size=object_size,
            local_memory=local_objects * object_size,
            heap_size=64 * object_size,
        )
        return ObjectPool(config)

    def test_initially_all_remote(self):
        pool = self.make_pool()
        assert pool.meta(0).is_remote
        assert not pool.is_safe(0)

    def test_first_touch_fetches(self):
        pool = self.make_pool()
        hit, cycles = pool.ensure_local(0)
        assert hit is False
        assert cycles > 30_000  # a blocking TCP fetch
        assert pool.meta(0).is_local
        assert pool.is_safe(0)
        assert pool.metrics.remote_fetches == 1
        assert pool.metrics.bytes_fetched == 4 * KB

    def test_second_touch_hits(self):
        pool = self.make_pool()
        pool.ensure_local(0)
        hit, cycles = pool.ensure_local(0)
        assert hit is True
        assert cycles == 0.0

    def test_eviction_flips_meta_remote(self):
        pool = self.make_pool(local_objects=1)
        pool.ensure_local(0)
        pool.ensure_local(1)
        assert pool.meta(0).is_remote
        assert pool.meta(1).is_local

    def test_dirty_eviction_writes_back(self):
        pool = self.make_pool(local_objects=1)
        pool.ensure_local(0, write=True)
        pool.ensure_local(1)
        assert pool.metrics.bytes_evacuated == 4 * KB
        assert pool.metrics.evictions == 1

    def test_clean_eviction_free(self):
        pool = self.make_pool(local_objects=1)
        pool.ensure_local(0)
        pool.ensure_local(1)
        assert pool.metrics.bytes_evacuated == 0

    def test_prefetch_cheaper_than_fetch(self):
        pool = self.make_pool()
        cost = pool.prefetch(3)
        _, fetch = self.make_pool().ensure_local(3)
        assert cost < fetch
        assert pool.metrics.prefetches_useful == 1
        hit, cycles = pool.ensure_local(3)
        assert hit is True

    def test_prefetch_resident_is_free(self):
        pool = self.make_pool()
        pool.ensure_local(5)
        assert pool.prefetch(5) == 0.0

    def test_object_of_offset(self):
        pool = self.make_pool()
        assert pool.object_of_offset(0) == 0
        assert pool.object_of_offset(4 * KB) == 1
        assert pool.object_of_offset(4 * KB - 1) == 0
        with pytest.raises(PointerError):
            pool.object_of_offset(64 * 4 * KB)

    def test_bad_object_id(self):
        pool = self.make_pool()
        for obj_id in (9999, 64, -1):
            with pytest.raises(PointerError):
                pool.ensure_local(obj_id)
            with pytest.raises(PointerError):
                pool.prefetch(obj_id)
        assert pool.resident_objects == 0

    def test_free_object_drops_residency(self):
        pool = self.make_pool()
        pool.ensure_local(0)
        pool.free_object(0)
        assert pool.meta(0).is_remote
        assert pool.resident_objects == 0

    def test_config_validation(self):
        with pytest.raises(RuntimeConfigError):
            PoolConfig(object_size=100, local_memory=1 * MB, heap_size=1 * MB)
        with pytest.raises(RuntimeConfigError):
            PoolConfig(object_size=4 * KB, local_memory=1 * KB, heap_size=1 * MB)
        # Object ids must fit the remote word's 38-bit field.
        PoolConfig(object_size=1, local_memory=1, heap_size=1 << 38)
        with pytest.raises(RuntimeConfigError):
            PoolConfig(object_size=1, local_memory=1, heap_size=(1 << 38) + 1)

    def test_local_bytes_in_use(self):
        pool = self.make_pool(local_objects=4)
        pool.ensure_local(0)
        pool.ensure_local(1)
        assert pool.local_bytes_in_use == 8 * KB


_POOL_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["read", "write", "prefetch", "expel", "materialize", "free",
             "reinstate", "pin", "unpin"]
        ),
        st.integers(0, 7),
    ),
    max_size=40,
)


class TestMetadataWords:
    """Every pool operation leaves ``meta_words`` equal to a reference
    that writes each word it touches with ``encode_local``/``encode_remote``."""

    @staticmethod
    def _local(obj_id, size, dirty):
        return encode_local((obj_id * size) & ((1 << 47) - 1), dirty=dirty, hot=True)

    @settings(max_examples=200, deadline=None)
    @given(
        object_size=st.sampled_from([64, 256, 4 * KB, 64 * KB]),
        capacity=st.integers(1, 4),
        use_clock=st.booleans(),
        ops=_POOL_OPS,
    )
    def test_words_match_the_encoders(self, object_size, capacity, use_clock, ops):
        pool = ObjectPool(PoolConfig(
            object_size=object_size,
            local_memory=capacity * object_size,
            heap_size=8 * object_size,
            use_clock=use_clock,
        ))
        residency = pool.residency
        size_field = min(object_size, (1 << 16) - 1)
        want = [encode_remote(i, size_field) for i in range(8)]
        assert pool.meta_words.tolist() == want
        for op, obj_id in ops:
            before = set(residency.resident_ids())
            try:
                if op in ("read", "write"):
                    pool.ensure_local(obj_id, write=op == "write")
                elif op == "prefetch":
                    pool.prefetch(obj_id)
                elif op == "expel":
                    pool.expel(obj_id)
                elif op == "materialize":
                    pool.materialize(obj_id)
                elif op == "free":
                    pool.free_object(obj_id)
                elif op == "reinstate":
                    pool.reinstate_dirty(obj_id)
                elif op == "pin":
                    pool.pin(obj_id)
                elif residency.is_pinned(obj_id):
                    pool.unpin(obj_id)
            except EvacuationError:
                # Every resident object is pinned: no word moved.
                assert pool.meta_words.tolist() == want
                continue
            after = set(residency.resident_ids())
            for victim in before - after:
                want[victim] = encode_remote(victim, size_field)
            if op in ("read", "write"):
                want[obj_id] = self._local(obj_id, object_size, residency.is_dirty(obj_id))
            elif op == "prefetch" and obj_id not in before:
                want[obj_id] = self._local(obj_id, object_size, False)
            elif op == "materialize":
                want[obj_id] = self._local(obj_id, object_size, False)
            elif op == "free":
                want[obj_id] = encode_remote(obj_id, size_field)
            elif op == "reinstate":
                want[obj_id] = self._local(obj_id, object_size, True)
            assert pool.meta_words.tolist() == want, (op, obj_id)


class TestDerefScope:
    def test_scope_pins_and_releases(self):
        config = PoolConfig(object_size=4 * KB, local_memory=16 * KB, heap_size=64 * KB)
        pool = ObjectPool(config)
        pool.ensure_local(0)
        with DerefScope(pool) as scope:
            scope.pin(0)
            assert pool.residency.is_pinned(0)
            assert scope.pinned_count == 1
        assert not pool.residency.is_pinned(0)

    def test_use_outside_with_block(self):
        config = PoolConfig(object_size=4 * KB, local_memory=16 * KB, heap_size=64 * KB)
        pool = ObjectPool(config)
        scope = DerefScope(pool)
        with pytest.raises(EvacuationError):
            scope.pin(0)


class TestStridePrefetcher:
    def test_sequential_stream_detected(self):
        pf = StridePrefetcher(depth=4, confidence_threshold=2)
        assert pf.observe(0) == []
        assert pf.observe(1) == []
        targets = pf.observe(2)
        assert targets == [3, 4, 5, 6]

    def test_no_reissue(self):
        pf = StridePrefetcher(depth=4, confidence_threshold=2)
        pf.observe(0)
        pf.observe(1)
        first = pf.observe(2)
        second = pf.observe(3)
        assert set(first).isdisjoint(second)

    def test_strided_stream(self):
        pf = StridePrefetcher(depth=2, confidence_threshold=2)
        pf.observe(0)
        pf.observe(10)
        targets = pf.observe(20)
        assert targets == [30, 40]

    def test_random_stream_silent(self):
        pf = StridePrefetcher(depth=4, confidence_threshold=3)
        issued = []
        for obj in (5, 99, 3, 42, 7, 1000):
            issued.extend(pf.observe(obj))
        assert issued == []

    def test_streams_independent(self):
        pf = StridePrefetcher(depth=2, confidence_threshold=2)
        pf.observe(0, stream=0)
        pf.observe(100, stream=1)
        pf.observe(1, stream=0)
        pf.observe(200, stream=1)
        assert pf.observe(2, stream=0) == [3, 4]

    def test_same_object_repeats_ignored(self):
        pf = StridePrefetcher(depth=2, confidence_threshold=2)
        pf.observe(0)
        pf.observe(0)
        pf.observe(1)
        # The duplicate did not reset stride learning.
        assert pf.observe(2) == [3, 4]

    def test_reset(self):
        pf = StridePrefetcher(depth=2, confidence_threshold=2)
        pf.observe(0)
        pf.observe(1)
        pf.reset()
        assert pf.observe(2) == []

    def test_negative_stride_stops_at_zero(self):
        pf = StridePrefetcher(depth=4, confidence_threshold=2)
        pf.observe(3)
        pf.observe(2)
        targets = pf.observe(1)
        assert targets == [0]

    def test_config_validation(self):
        with pytest.raises(RuntimeConfigError):
            StridePrefetcher(depth=0)
        with pytest.raises(RuntimeConfigError):
            StridePrefetcher(confidence_threshold=0)
