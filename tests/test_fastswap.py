"""The Fastswap kernel-paging baseline."""

import pytest

from repro.errors import PointerError, RuntimeConfigError
from repro.fastswap.runtime import FastswapConfig, FastswapRuntime
from repro.machine.costs import AccessKind
from repro.sim.plan import AccessPattern, AccessPlan
from repro.units import KB, MB


def make_runtime(local_pages=4, heap_pages=64) -> FastswapRuntime:
    return FastswapRuntime(
        FastswapConfig(local_memory=local_pages * 4 * KB, heap_size=heap_pages * 4 * KB)
    )


class TestConfig:
    def test_capacity_math(self):
        cfg = FastswapConfig(local_memory=1 * MB, heap_size=4 * MB)
        assert cfg.local_capacity_pages == 256
        assert cfg.num_pages == 1024

    def test_validation(self):
        with pytest.raises(RuntimeConfigError):
            FastswapConfig(local_memory=100, heap_size=1 * MB)
        with pytest.raises(RuntimeConfigError):
            FastswapConfig(local_memory=1 * MB, heap_size=1 * MB, page_size=1000)


class TestAccessPath:
    def test_first_touch_major_faults(self):
        rt = make_runtime()
        off = rt.allocate(100)
        cycles = rt.access(off)
        assert cycles >= 34_000
        assert rt.metrics.major_faults == 1
        assert rt.metrics.bytes_fetched == 4 * KB

    def test_resident_access_costs_nothing_extra(self):
        # The defining property of kernel paging: no software cost on hits.
        rt = make_runtime()
        off = rt.allocate(100)
        rt.access(off)
        cycles = rt.access(off)
        assert cycles == rt.config.costs.local_access
        assert rt.metrics.major_faults == 1

    def test_same_page_shares_fault(self):
        rt = make_runtime()
        off = rt.allocate(4 * KB)
        rt.access(off)
        rt.access(off + 512)
        assert rt.metrics.major_faults == 1

    def test_write_fault_more_expensive(self):
        r = make_runtime()
        w = make_runtime()
        off_r = r.allocate(8)
        off_w = w.allocate(8)
        assert w.access(off_w, AccessKind.WRITE) > r.access(off_r, AccessKind.READ)

    def test_eviction_reclaim_cost(self):
        rt = make_runtime(local_pages=1)
        a = rt.allocate(4 * KB)
        b = rt.allocate(4 * KB)
        rt.access(a)
        cycles = rt.access(b)
        assert cycles > 34_000 + rt.config.reclaim_cycles - 1
        assert rt.metrics.evictions == 1

    def test_dirty_page_writeback(self):
        rt = make_runtime(local_pages=1)
        a = rt.allocate(4 * KB)
        b = rt.allocate(4 * KB)
        rt.access(a, AccessKind.WRITE)
        rt.access(b)
        assert rt.metrics.bytes_evacuated == 4 * KB

    def test_access_spanning_pages(self):
        rt = make_runtime()
        off = rt.allocate(2 * 4 * KB)
        rt.access(off + 4 * KB - 4, size=8)
        assert rt.metrics.major_faults == 2

    def test_out_of_heap_offset(self):
        rt = make_runtime(heap_pages=1)
        with pytest.raises(PointerError):
            rt.access(4 * KB + 1)

    def test_heap_exhaustion(self):
        rt = make_runtime(heap_pages=1)
        rt.allocate(4 * KB)
        with pytest.raises(PointerError):
            rt.allocate(4 * KB)


def scan(n, elem, is_write=False):
    return AccessPlan(AccessPattern.SEQUENTIAL, n, elem, is_write=is_write)


class TestScan:
    def test_page_granularity_io(self):
        rt = make_runtime(local_pages=2, heap_pages=64)
        rt.cost_plan(scan(512 * 4, 8))  # 16 KB = 4 pages
        assert rt.metrics.major_faults == 4
        assert rt.metrics.bytes_fetched == 4 * 4 * KB

    def test_scan_amplification_vs_trackfm(self):
        # Fastswap always moves whole pages; with 8-byte elements and a
        # sparse touch pattern the amplification shows in bytes moved.
        rt = make_runtime()
        rt.cost_plan(scan(100, 8))  # 800 bytes -> still a whole page
        assert rt.metrics.bytes_fetched == 4 * KB

    def test_resident_fraction(self):
        rt1 = make_runtime()
        cold = rt1.cost_plan(scan(10_000, 8))
        rt2 = make_runtime()
        warm = rt2.cost_plan(scan(10_000, 8), resident_fraction=0.9)
        assert warm < cold

    def test_write_scan_writes_back(self):
        rt = make_runtime()
        rt.cost_plan(scan(10_000, 8, is_write=True))
        assert rt.metrics.bytes_evacuated > 0

    def test_pressure_flag(self):
        rt1 = make_runtime()
        relaxed = rt1.cost_plan(scan(10_000, 8), under_pressure=False)
        rt2 = make_runtime()
        pressured = rt2.cost_plan(scan(10_000, 8), under_pressure=True)
        assert pressured > relaxed


class TestProbes:
    def test_fault_probe_costs(self):
        rt = make_runtime()
        assert rt.fault_probe(AccessKind.READ, remote=False) == 1_300
        assert rt.fault_probe(AccessKind.READ, remote=True) == 34_000
        assert rt.fault_probe(AccessKind.WRITE, remote=True) == 35_000
        assert rt.metrics.minor_faults == 1
        assert rt.metrics.major_faults == 2
