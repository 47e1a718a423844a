"""The AIFM runtime facade and its library-style data structures."""

import pytest

from repro.aifm.pool import PoolConfig
from repro.aifm.runtime import AIFMRuntime
from repro.aifm.datastructures import RemoteArray, RemoteHashMap
from repro.errors import PointerError, WorkloadError
from repro.sim.plan import AccessPattern, AccessPlan
from repro.units import KB, MB


def make_runtime(local_objects=4, object_size=4 * KB, prefetch_depth=8):
    config = PoolConfig(
        object_size=object_size,
        local_memory=local_objects * object_size,
        heap_size=64 * object_size,
    )
    return AIFMRuntime(config, prefetch_depth=prefetch_depth)


class TestAIFMRuntime:
    def test_allocate_and_access(self):
        rt = make_runtime()
        alloc = rt.allocate(100)
        cycles = rt.access(alloc.offset)
        assert cycles > 30_000  # first touch fetches
        assert rt.access(alloc.offset) < 100  # hot deref is cheap

    def test_hot_deref_cost_below_trackfm_fast_guard(self):
        # §4.1: AIFM's smart-pointer indirection is cheaper than a guard.
        rt = make_runtime()
        alloc = rt.allocate(8)
        rt.access(alloc.offset)
        hot = rt.access(alloc.offset)
        assert hot == rt.deref_overhead + rt.config.costs.local_access
        assert rt.deref_overhead < 21

    def test_scope_pins_across_accesses(self):
        rt = make_runtime(local_objects=2)
        a = rt.allocate(4 * KB)
        with rt.scope() as scope:
            rt.access(a.offset, scope=scope)
            obj = rt.pool.object_of_offset(a.offset)
            assert rt.pool.residency.is_pinned(obj)
        assert not rt.pool.residency.is_pinned(obj)

    def test_access_spanning_objects(self):
        rt = make_runtime()
        a = rt.allocate(2 * 4 * KB)
        rt.access(a.offset + 4 * KB - 4, size=8)
        assert rt.metrics.remote_fetches == 2

    def test_prefetcher_engaged_on_sequential(self):
        rt = make_runtime(local_objects=16)
        a = rt.allocate(8 * 4 * KB)
        for i in range(8):
            rt.access(a.offset + i * 4 * KB, stream=0)
        assert rt.metrics.prefetches_issued > 0

    def test_free_releases_objects(self):
        rt = make_runtime()
        a = rt.allocate(2 * 4 * KB)
        rt.access(a.offset)
        rt.free(a)
        assert rt.pool.resident_objects == 0

    def test_zero_size_access_rejected(self):
        rt = make_runtime()
        a = rt.allocate(8)
        with pytest.raises(PointerError):
            rt.access(a.offset, size=0)

    def test_sequential_scan_metrics(self):
        rt = make_runtime()
        rt.cost_plan(AccessPlan(AccessPattern.SEQUENTIAL, 4096, 8))
        assert rt.metrics.accesses == 4096
        assert rt.metrics.bytes_fetched == 8 * 4 * KB
        assert rt.metrics.prefetches_useful == 8

    def test_empty_scan_costs_nothing(self):
        rt = make_runtime()
        assert rt.cost_plan(AccessPlan(AccessPattern.SEQUENTIAL, 0, 8)) == 0.0
        assert rt.metrics.remote_fetches == 0

    def test_write_scan_evacuates(self):
        rt = make_runtime()
        rt.cost_plan(AccessPlan(AccessPattern.SEQUENTIAL, 4096, 8, is_write=True))
        assert rt.metrics.bytes_evacuated > 0


class TestRemoteArray:
    def test_listing1_usage(self):
        # The paper's Listing 1, faithfully: scope + at().
        rt = make_runtime()
        array = RemoteArray(rt, length=100, elem_size=8)
        total = 0.0
        for i in range(100):
            with rt.scope() as scope:
                total += array.at(scope, i)
        assert total > 0
        assert rt.metrics.accesses == 100

    def test_bounds_checked(self):
        rt = make_runtime()
        array = RemoteArray(rt, length=10)
        with rt.scope() as scope:
            with pytest.raises(PointerError):
                array.at(scope, 10)
            with pytest.raises(PointerError):
                array.at(scope, -1)

    def test_set_dirties(self):
        rt = make_runtime(local_objects=1)
        array = RemoteArray(rt, length=1024, elem_size=8)
        with rt.scope() as scope:
            array.set(scope, 0)
        # Evict by touching a different object.
        with rt.scope() as scope:
            array.at(scope, 1023)
        assert rt.metrics.bytes_evacuated > 0

    def test_scan_uses_iterator_path(self):
        rt = make_runtime()
        array = RemoteArray(rt, length=4096, elem_size=8)
        cycles = array.scan()
        assert cycles > 0
        assert rt.metrics.accesses >= 4096

    def test_invalid_construction(self):
        rt = make_runtime()
        with pytest.raises(WorkloadError):
            RemoteArray(rt, length=0)

    def test_free(self):
        rt = make_runtime()
        array = RemoteArray(rt, length=16, elem_size=8)
        with rt.scope() as scope:
            array.at(scope, 0)
        array.free()
        assert rt.pool.resident_objects == 0


class TestRemoteHashMap:
    def test_get_put(self):
        rt = make_runtime()
        hm = RemoteHashMap(rt, capacity=1000)
        with rt.scope() as scope:
            first = hm.get(scope, 42)
        with rt.scope() as scope:
            second = hm.get(scope, 42)
        assert second < first  # second lookup hits

    def test_distinct_keys_distinct_buckets_mostly(self):
        rt = make_runtime(local_objects=32)
        hm = RemoteHashMap(rt, capacity=4096)
        with rt.scope() as scope:
            for key in range(50):
                hm.get(scope, key)
        # 50 keys over 4096 buckets across 16 objects: several objects hit.
        assert rt.metrics.remote_fetches > 2

    def test_put_marks_dirty(self):
        rt = make_runtime(local_objects=1)
        hm = RemoteHashMap(rt, capacity=4096, entry_size=16)
        with rt.scope() as scope:
            hm.put(scope, 1)
        # Force eviction of the dirty bucket object by touching another.
        dirty_obj = rt.pool.object_of_offset(hm._bucket_offset(1))
        other = (dirty_obj + 1) % rt.pool.config.num_objects
        rt.pool.ensure_local(other)
        assert rt.metrics.bytes_evacuated > 0

    def test_invalid_construction(self):
        rt = make_runtime()
        with pytest.raises(WorkloadError):
            RemoteHashMap(rt, capacity=0)
