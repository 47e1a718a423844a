"""Workloads: zipf, STREAM, hashmap, k-means."""

import numpy as np
import pytest

from repro.aifm.pool import PoolConfig
from repro.aifm.runtime import AIFMRuntime
from repro.bench.harness import model_fastswap, model_trackfm
from repro.errors import WorkloadError
from repro.fastswap.runtime import FastswapConfig, FastswapRuntime
from repro.sim.local import LocalRuntime
from repro.trackfm.runtime import GuardStrategy, TrackFMRuntime
from repro.units import KB, MB
from repro.workloads.hashmap import HashmapWorkload
from repro.workloads.kmeans import ChunkMode, KMeansWorkload
from repro.workloads.stream import StreamKernel, StreamWorkload
from repro.workloads.zipf import ZipfGenerator


class TestZipf:
    def test_determinism(self):
        a = ZipfGenerator(1000, 1.02, seed=1).sample(100)
        b = ZipfGenerator(1000, 1.02, seed=1).sample(100)
        assert np.array_equal(a, b)

    def test_range(self):
        keys = ZipfGenerator(100, 1.1).sample(10_000)
        assert keys.min() >= 0
        assert keys.max() < 100

    def test_skew_concentrates_mass(self):
        low = ZipfGenerator(10_000, 1.01)
        high = ZipfGenerator(10_000, 1.5)
        assert high.hot_fraction(10) > low.hot_fraction(10)

    def test_head_dominates(self):
        gen = ZipfGenerator(100_000, 1.2, seed=3)
        keys = gen.sample(50_000)
        head = np.count_nonzero(keys < 1000) / len(keys)
        assert head > 0.5

    def test_expected_hit_rate_monotone(self):
        gen = ZipfGenerator(10_000, 1.05)
        rates = [gen.expected_hit_rate(k) for k in (10, 100, 1000, 10_000)]
        assert rates == sorted(rates)
        assert rates[-1] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ZipfGenerator(0, 1.0)
        with pytest.raises(WorkloadError):
            ZipfGenerator(10, -1.0)
        with pytest.raises(WorkloadError):
            ZipfGenerator(10, 1.0).sample(0)


def tfm_runtime(working_set, frac, object_size=4 * KB):
    return TrackFMRuntime(
        PoolConfig(
            object_size=object_size,
            local_memory=max(object_size, int(working_set * frac)),
            heap_size=2 * working_set,
        )
    )


class TestStream:
    def test_local_baseline_cheapest(self):
        ws = 4 * MB
        wl = StreamWorkload(ws)
        local = wl.run_local(LocalRuntime())
        tfm = wl.run_trackfm(tfm_runtime(ws, 0.5), GuardStrategy.CHUNKED_PREFETCH)
        assert local < tfm

    def test_chunking_beats_naive(self):
        ws = 4 * MB
        naive = StreamWorkload(ws).run_trackfm(tfm_runtime(ws, 0.5), GuardStrategy.NAIVE)
        chunked = StreamWorkload(ws).run_trackfm(tfm_runtime(ws, 0.5), GuardStrategy.CHUNKED)
        assert 1.2 < naive / chunked < 2.5  # Fig. 7's band

    def test_prefetch_helps_more_at_low_memory(self):
        ws = 4 * MB

        def speedup(frac):
            plain = StreamWorkload(ws).run_trackfm(tfm_runtime(ws, frac), GuardStrategy.CHUNKED)
            pref = StreamWorkload(ws).run_trackfm(
                tfm_runtime(ws, frac), GuardStrategy.CHUNKED_PREFETCH
            )
            return plain / pref

        assert speedup(0.1) > speedup(0.9)  # Fig. 11's trend

    def test_trackfm_beats_fastswap(self):
        ws = 4 * MB
        tfm = StreamWorkload(ws).run_trackfm(
            tfm_runtime(ws, 0.25), GuardStrategy.CHUNKED_PREFETCH
        )
        fs = StreamWorkload(ws).run_fastswap(
            FastswapRuntime(FastswapConfig(local_memory=ws // 4, heap_size=2 * ws))
        )
        assert fs / tfm > 1.5  # Fig. 12's direction

    def test_copy_touches_twice_the_data(self):
        ws = 4 * MB
        s = StreamWorkload(ws, kernel=StreamKernel.SUM)
        c = StreamWorkload(ws, kernel=StreamKernel.COPY)
        assert c.elems_per_array == s.elems_per_array // 2

    def test_bandwidth_metric(self):
        wl = StreamWorkload(4 * MB)
        assert wl.bandwidth_mb_per_s(0) == 0.0
        bw = wl.bandwidth_mb_per_s(2.4e9)  # one second of cycles
        expected = wl.passes * wl.elems_per_array * wl.elem_size / 1e6
        assert bw == pytest.approx(expected)

    def test_aifm_runs(self):
        ws = 4 * MB
        rt = AIFMRuntime(
            PoolConfig(object_size=4 * KB, local_memory=ws // 2, heap_size=2 * ws)
        )
        cycles = StreamWorkload(ws).run_aifm(rt)
        assert cycles > 0
        assert rt.metrics.accesses > 0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            StreamWorkload(0)
        with pytest.raises(WorkloadError):
            StreamWorkload(1 * MB, passes=0)


class TestHashmap:
    def make(self, ws=2 * MB, lookups=10_000):
        return HashmapWorkload(working_set=ws, n_lookups=lookups, trace_bytes=256 * KB)

    def test_smaller_objects_higher_throughput(self):
        # Fig. 9's claim at constrained local memory.
        wl = self.make()
        local = wl.working_set // 4
        t_small = wl.run_trackfm(model_trackfm(256, local)).throughput_mops()
        t_big = wl.run_trackfm(model_trackfm(4 * KB, local)).throughput_mops()
        assert t_small > t_big

    def test_trackfm_moves_less_data_than_fastswap(self):
        wl = self.make()
        local = wl.working_set // 4
        tfm = wl.run_trackfm(model_trackfm(64, local))
        fsw = wl.run_fastswap(model_fastswap(local))
        assert tfm.metrics.total_bytes_transferred < fsw.metrics.total_bytes_transferred / 10

    def test_trackfm_faster_than_fastswap(self):
        wl = self.make()
        local = wl.working_set // 4
        tfm = wl.run_trackfm(model_trackfm(64, local))
        assert tfm.cycles < wl.run_fastswap(model_fastswap(local)).cycles

    def test_hit_rate_monotone_in_cache_size(self):
        wl = self.make()
        rates = [wl.hit_rate(64, c) for c in (10, 100, 1000, 10_000)]
        assert rates == sorted(rates)

    def test_local_run_has_no_faults(self):
        res = self.make().run_local(LocalRuntime())
        assert res.metrics.total_guards == 0
        assert res.metrics.major_faults == 0

    def test_more_local_memory_faster(self):
        wl = self.make()
        slow = wl.run_trackfm(model_trackfm(256, wl.working_set // 20))
        fast = wl.run_trackfm(model_trackfm(256, wl.working_set // 2))
        assert fast.cycles < slow.cycles

    def test_amplification_metric(self):
        wl = self.make()
        res = wl.run_fastswap(model_fastswap(wl.working_set // 10))
        assert res.amplification(wl.working_set) > 1.0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            HashmapWorkload(working_set=0, n_lookups=10)


class TestKMeans:
    def make(self):
        return KMeansWorkload(n_points=20_000)

    def test_all_loops_slows_down(self):
        wl = self.make()
        rt = model_trackfm(4 * KB, wl.working_set // 4)
        s = wl.speedup_vs_baseline(ChunkMode.ALL_LOOPS, rt)
        assert s < 0.5  # the ~4x slowdown of Fig. 8

    def test_filtered_speeds_up(self):
        wl = self.make()
        rt = model_trackfm(4 * KB, wl.working_set // 4)
        s = wl.speedup_vs_baseline(ChunkMode.HIGH_DENSITY, rt)
        assert 1.5 < s < 3.5  # the ~2.5x speedup of Fig. 8

    def test_baseline_speedup_is_one(self):
        wl = self.make()
        rt = model_trackfm(4 * KB, wl.working_set)
        assert wl.speedup_vs_baseline(ChunkMode.BASELINE, rt) == 1.0

    def test_metrics_populated(self):
        wl = self.make()
        rt = model_trackfm(4 * KB, wl.working_set // 4)
        _, metrics = wl.run(rt, ChunkMode.HIGH_DENSITY)
        assert metrics.accesses == wl.accesses_per_iteration() * wl.iterations
        assert metrics.remote_fetches > 0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            KMeansWorkload(n_points=0)
