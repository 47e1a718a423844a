"""The full STREAM kernel set and cross-kernel invariants."""

import pytest

from repro.aifm.pool import PoolConfig
from repro.fastswap.runtime import FastswapConfig, FastswapRuntime
from repro.sim.local import LocalRuntime
from repro.trackfm.runtime import GuardStrategy, TrackFMRuntime
from repro.units import KB, MB
from repro.workloads.stream import StreamKernel, StreamWorkload


def tfm(ws, frac):
    return TrackFMRuntime(
        PoolConfig(
            object_size=4 * KB,
            local_memory=max(4 * KB, int(ws * frac)),
            heap_size=2 * ws,
        )
    )


class TestKernelShapes:
    def test_array_counts(self):
        ws = 12 * MB
        assert StreamWorkload(ws, kernel=StreamKernel.SUM).arrays == 1
        assert StreamWorkload(ws, kernel=StreamKernel.COPY).arrays == 2
        assert StreamWorkload(ws, kernel=StreamKernel.SCALE).arrays == 2
        assert StreamWorkload(ws, kernel=StreamKernel.TRIAD).arrays == 3

    def test_accesses_per_element(self):
        ws = 12 * MB
        assert StreamWorkload(ws, kernel=StreamKernel.SUM).accesses_per_elem == 1
        assert StreamWorkload(ws, kernel=StreamKernel.COPY).accesses_per_elem == 2
        assert StreamWorkload(ws, kernel=StreamKernel.TRIAD).accesses_per_elem == 3

    def test_working_set_split_across_arrays(self):
        ws = 12 * MB
        for kernel in StreamKernel:
            wl = StreamWorkload(ws, kernel=kernel)
            assert wl.array_bytes * wl.arrays == pytest.approx(ws, rel=0.01)

    def test_one_scan_per_array(self):
        for kernel in StreamKernel:
            wl = StreamWorkload(12 * MB, kernel=kernel)
            plans = wl._plans(None)
            assert len(plans) == wl.arrays
            assert {p.n_elems for p in plans} == {wl.elems_per_array}

    def test_triad_has_one_write(self):
        wl = StreamWorkload(12 * MB, kernel=StreamKernel.TRIAD)
        writes = [p.is_write for p in wl._plans(None)]
        assert writes.count(True) == 1
        assert writes.count(False) == 2


class TestKernelBehaviour:
    @pytest.mark.parametrize("kernel", list(StreamKernel))
    def test_all_kernels_run_on_all_runtimes(self, kernel):
        ws = 4 * MB
        wl = StreamWorkload(ws, kernel=kernel)
        assert wl.run_trackfm(tfm(ws, 0.5), GuardStrategy.CHUNKED_PREFETCH) > 0
        assert (
            wl.run_fastswap(
                FastswapRuntime(FastswapConfig(local_memory=ws // 2, heap_size=2 * ws))
            )
            > 0
        )
        assert wl.run_local(LocalRuntime()) > 0

    @pytest.mark.parametrize("kernel", list(StreamKernel))
    def test_chunking_always_helps_streams(self, kernel):
        ws = 4 * MB
        naive = StreamWorkload(ws, kernel=kernel).run_trackfm(
            tfm(ws, 0.5), GuardStrategy.NAIVE
        )
        chunked = StreamWorkload(ws, kernel=kernel).run_trackfm(
            tfm(ws, 0.5), GuardStrategy.CHUNKED
        )
        assert chunked < naive

    def test_write_kernels_evacuate(self):
        ws = 4 * MB
        rt = tfm(ws, 0.25)
        StreamWorkload(ws, kernel=StreamKernel.TRIAD).run_trackfm(
            rt, GuardStrategy.CHUNKED_PREFETCH
        )
        assert rt.metrics.bytes_evacuated > 0

    def test_sum_never_evacuates(self):
        ws = 4 * MB
        rt = tfm(ws, 0.25)
        StreamWorkload(ws, kernel=StreamKernel.SUM).run_trackfm(
            rt, GuardStrategy.CHUNKED_PREFETCH
        )
        assert rt.metrics.bytes_evacuated == 0

    def test_more_local_memory_never_hurts(self):
        ws = 4 * MB
        cycles = [
            StreamWorkload(ws).run_trackfm(tfm(ws, f), GuardStrategy.CHUNKED_PREFETCH)
            for f in (0.1, 0.3, 0.5, 0.8, 1.0)
        ]
        assert cycles == sorted(cycles, reverse=True)

    def test_bandwidth_scales_with_accesses(self):
        ws = 4 * MB
        cycles = 2.4e9  # one simulated second
        bw_sum = StreamWorkload(ws, kernel=StreamKernel.SUM).bandwidth_mb_per_s(cycles)
        bw_triad = StreamWorkload(ws, kernel=StreamKernel.TRIAD).bandwidth_mb_per_s(cycles)
        assert bw_sum == pytest.approx(bw_triad, rel=0.01)  # same bytes touched/working set
