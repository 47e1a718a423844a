"""Workloads: dataframe, analytics, memcached, NAS."""

import numpy as np
import pytest

from repro.bench.harness import model_aifm, model_fastswap, model_trackfm
from repro.errors import WorkloadError
from repro.sim.local import LocalRuntime
from repro.units import KB, MB
from repro.workloads.analytics import (
    AnalyticsChunking,
    AnalyticsWorkload,
    build_taxi_frame,
    run_taxi_pipeline,
)
from repro.workloads.dataframe import AccessPattern, Column, DataFrame
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.nas import NAS_SUITE, NasModel, build_nas_ir, nas_by_name


class TestDataFrame:
    def make(self, n=1000):
        rng = np.random.default_rng(0)
        return DataFrame(
            [
                Column("a", n, 8, rng.integers(0, 100, n).astype(np.float64)),
                Column("b", n, 8, rng.integers(0, 10, n).astype(np.int64)),
            ]
        )

    def test_scan_sum_value_and_plan(self):
        df = self.make()
        total = df.scan_sum("a")
        assert total == pytest.approx(float(np.sum(df.column("a").values)))
        plan = df.plans[-1]
        assert plan.pattern is AccessPattern.SEQUENTIAL
        assert plan.n_elems == 1000

    def test_filter_count(self):
        df = self.make()
        count = df.filter_count("a", lambda v: v > 50)
        assert count == int(np.count_nonzero(df.column("a").values > 50))

    def test_combine_creates_column(self):
        df = self.make()
        df.combine("a", "b", "c", lambda x, y: x + y)
        assert "c" in df.column_names()
        assert df.column("c").values[0] == df.column("a").values[0] + df.column("b").values[0]
        # Three plans: two reads + one write.
        writes = [p for p in df.plans if p.is_write]
        assert len(writes) == 1

    def test_groupby_agg_values(self):
        df = self.make()
        out = df.groupby_agg("b", "a", n_groups=10, agg="sum")
        assert len(out) == 10
        keys = df.column("b").values.astype(np.int64) % 10
        expected = float(np.sum(df.column("a").values[keys == 3]))
        assert out[3] == pytest.approx(expected)

    def test_groupby_logs_short_loops_plan(self):
        df = self.make()
        df.groupby_agg("b", "a", n_groups=50)
        short = [p for p in df.plans if p.pattern is AccessPattern.SHORT_LOOPS]
        assert len(short) == 1
        assert short[0].entries == 50
        assert short[0].iterations_per_entry == pytest.approx(1000 / 50)

    def test_agg_variants(self):
        df = self.make()
        assert df.groupby_agg("b", "a", 5, agg="mean")
        assert df.groupby_agg("b", "a", 5, agg="max")
        with pytest.raises(WorkloadError):
            df.groupby_agg("b", "a", 5, agg="median")

    def test_mismatched_column_length_rejected(self):
        df = self.make()
        with pytest.raises(WorkloadError):
            df.add_column(Column("short", 10, 8))

    def test_shape_only_columns(self):
        df = DataFrame([Column("x", 100, 8)])
        assert df.scan_sum("x") == 0.0  # no values: shape-only
        assert df.plans

    def test_reset_plans(self):
        df = self.make()
        df.scan_sum("a")
        plans = df.reset_plans()
        assert plans and df.plans == []


class TestAnalytics:
    def make(self):
        return AnalyticsWorkload(working_set=31 * MB)

    def trackfm(self, wl, local, policy=AnalyticsChunking.HIGH_DENSITY):
        return wl.run_trackfm(model_trackfm(4 * KB, local), policy)

    def test_taxi_pipeline_produces_both_patterns(self):
        frame = build_taxi_frame(10_000, with_values=True)
        plans = run_taxi_pipeline(frame)
        patterns = {p.pattern for p in plans}
        assert patterns == {AccessPattern.SEQUENTIAL, AccessPattern.SHORT_LOOPS}

    def test_system_ordering_at_low_memory(self):
        # Fig. 14: AIFM <= TrackFM << Fastswap.
        wl = self.make()
        local = wl.working_set // 10
        t, _ = self.trackfm(wl, local)
        f, _ = wl.run_fastswap(model_fastswap(local))
        a, _ = wl.run_aifm(model_aifm(4 * KB, local))
        l, _ = wl.run_local(LocalRuntime())
        assert l < a < t < f

    def test_trackfm_within_25_percent_of_aifm(self):
        wl = self.make()
        local = wl.working_set // 10
        t, _ = self.trackfm(wl, local)
        a, _ = wl.run_aifm(model_aifm(4 * KB, local))
        assert t / a < 1.25

    def test_chunking_policy_ordering(self):
        # Fig. 15: filtered < baseline < all-loops (at moderate memory).
        wl = self.make()
        local = wl.working_set // 2
        base, _ = self.trackfm(wl, local, AnalyticsChunking.BASELINE)
        alll, _ = self.trackfm(wl, local, AnalyticsChunking.ALL_LOOPS)
        filt, _ = self.trackfm(wl, local, AnalyticsChunking.HIGH_DENSITY)
        assert filt < base < alll

    def test_fastswap_converges_with_memory(self):
        wl = self.make()
        low, _ = wl.run_fastswap(model_fastswap(wl.working_set // 10))
        high, _ = wl.run_fastswap(model_fastswap(wl.working_set))
        assert high < low / 3

    def test_fault_counts_exceed_guard_counts(self):
        # Fig. 14b: Fastswap faults > TrackFM slow guards.
        wl = self.make()
        local = wl.working_set // 10
        _, tm = self.trackfm(wl, local)
        _, fm = wl.run_fastswap(model_fastswap(local))
        assert fm.major_faults > tm.slow_path_guards

    def test_validation(self):
        with pytest.raises(WorkloadError):
            AnalyticsWorkload(working_set=0)


class TestMemcached:
    def make(self, skew=1.05):
        return MemcachedWorkload(
            working_set=12 * MB, n_keys=100_000, n_ops=50_000, skew=skew
        )

    def test_trackfm_beats_fastswap_at_low_skew(self):
        wl = self.make(skew=1.0)
        local = 1 * MB
        tfm = wl.run_trackfm(model_trackfm(64, local))
        fsw = wl.run_fastswap(model_fastswap(local))
        assert tfm.cycles < fsw.cycles

    def test_gap_narrows_with_skew(self):
        # Fig. 16a: Fastswap converges as temporal locality rises.
        def ratio(skew):
            wl = self.make(skew=skew)
            fsw = wl.run_fastswap(model_fastswap(1 * MB))
            return fsw.cycles / wl.run_trackfm(model_trackfm(64, 1 * MB)).cycles

        assert ratio(1.0) > ratio(1.3)

    def test_io_amplification_gap(self):
        # Fig. 16c: Fastswap moves far more data.
        wl = self.make(skew=1.0)
        tfm = wl.run_trackfm(model_trackfm(64, 1 * MB))
        fsw = wl.run_fastswap(model_fastswap(1 * MB))
        assert fsw.metrics.total_bytes_transferred > 20 * tfm.metrics.total_bytes_transferred

    def test_all_local_fastest(self):
        wl = self.make()
        local = wl.run_local(LocalRuntime())
        assert local.cycles < wl.run_trackfm(model_trackfm(64, 1 * MB)).cycles

    def test_slab_layout_groups_size_classes(self):
        wl = self.make()
        sizes = wl._item_sizes
        offsets = wl._item_offsets
        for cls in np.unique(sizes):
            cls_offsets = np.sort(offsets[sizes == cls])
            assert np.all(np.diff(cls_offsets) == cls)

    def test_throughput_unit(self):
        res = self.make().run_local(LocalRuntime())
        assert 0 < res.throughput_kops() < 1e6

    def test_validation(self):
        with pytest.raises(WorkloadError):
            MemcachedWorkload(working_set=0, n_keys=1, n_ops=1)


class TestNas:
    def test_suite_matches_table3(self):
        names = [b.name for b in NAS_SUITE]
        assert names == ["CG", "FT", "IS", "MG", "SP"]
        ft = nas_by_name("FT")
        assert ft.paper_memory_gb == 6
        assert ft.klass == "C"
        assert nas_by_name("IS").paper_memory_gb == 34

    def test_unknown_name(self):
        with pytest.raises(WorkloadError):
            nas_by_name("LU")

    def test_trackfm_wins_except_ft(self):
        # Fig. 17a at 25% local memory.
        for bench in NAS_SUITE:
            ws = bench.working_set(1024)
            model = NasModel(bench, working_set=ws)
            local = ws // 4
            tfm = model.slowdown(model_trackfm(4 * KB, local))
            fsw = model.slowdown(model_fastswap(local))
            if bench.name == "FT":
                assert tfm > fsw
            else:
                assert tfm < fsw

    def test_o1_rescues_ft(self):
        bench = nas_by_name("FT")
        ws = bench.working_set(1024)
        model = NasModel(bench, working_set=ws)
        o1 = model.slowdown(model_trackfm(4 * KB, ws // 4), o1=True)
        unopt = model.slowdown(model_trackfm(4 * KB, ws // 4), o1=False)
        assert o1 < unopt / 3

    def test_unknown_system(self):
        model = NasModel(nas_by_name("CG"), working_set=1 * MB)
        with pytest.raises(WorkloadError):
            model.slowdown(LocalRuntime())

    def test_ir_kernels_execute(self):
        from repro.sim.interpreter import Interpreter

        for name in ("FT", "SP", "CG"):
            m = build_nas_ir(name, n=16)
            result = Interpreter(m).run("main")
            assert result.value == 0  # zeroed heap sums to zero

    def test_ir_kernels_redundancy_ordering(self):
        ft = build_nas_ir("FT", n=8).memory_access_count()
        sp = build_nas_ir("SP", n=8).memory_access_count()
        cg = build_nas_ir("CG", n=8).memory_access_count()
        assert ft > sp > cg
