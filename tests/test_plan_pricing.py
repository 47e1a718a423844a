"""The runtimes' one closed-form entry, ``cost_plan``, and the workload
models that price their plans through it."""

import ast
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.workloads
from repro.aifm.pool import PoolConfig
from repro.aifm.runtime import AIFMRuntime
from repro.bench.harness import model_aifm, model_fastswap, model_trackfm
from repro.fastswap.runtime import FastswapConfig, FastswapRuntime
from repro.machine.costs import DEFAULT_COSTS, GuardKind
from repro.net.backends import make_tcp_backend
from repro.sim.local import LocalRuntime
from repro.sim.plan import AccessPattern, AccessPlan
from repro.trackfm.multipool import MultiPoolRuntime
from repro.trackfm.runtime import GuardStrategy, TrackFMRuntime
from repro.units import BASE_PAGE, KB, MB, ceil_div
from repro.workloads.analytics import AnalyticsWorkload
from repro.workloads.hashmap import HashmapWorkload
from repro.workloads.kmeans import ChunkMode, KMeansWorkload
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.nas import NasModel, nas_by_name

MODELS = Path(repro.workloads.__file__).parent


def trackfm(object_size, local, **pool):
    return TrackFMRuntime(
        PoolConfig(object_size=object_size, local_memory=local, heap_size=object_size, **pool)
    )


def fastswap(local, **config):
    return FastswapRuntime(FastswapConfig(local_memory=local, heap_size=BASE_PAGE, **config))


def wire(size):
    return make_tcp_backend().link.wire_cycles(size)


class TestDefaultConfigReproducesModels:
    """Each model's cycles at the default config, pinned."""

    def test_nas(self):
        cg = NasModel(nas_by_name("CG"), working_set=4 * MB)
        assert cg.run_trackfm(model_trackfm(4 * KB, 1 * MB))[0] == pytest.approx(
            33144232.992, rel=1e-12
        )
        assert cg.run_fastswap(model_fastswap(1 * MB))[0] == 80124096.0
        assert cg.run_local(LocalRuntime()) == 22020096.0
        ft = NasModel(nas_by_name("FT"), working_set=4 * MB)
        assert ft.run_trackfm(model_trackfm(4 * KB, 1 * MB), o1=False)[0] == 346761054.0

    def test_analytics(self):
        wl = AnalyticsWorkload(working_set=4 * MB)
        assert wl.run_trackfm(model_trackfm(4 * KB, 1 * MB))[0] == pytest.approx(
            41051957.648, rel=1e-12
        )
        assert wl.run_fastswap(model_fastswap(1 * MB))[0] == pytest.approx(
            79965863.68, rel=1e-12
        )
        assert wl.run_aifm(model_aifm(4 * KB, 1 * MB))[0] == pytest.approx(
            37181771.872, rel=1e-12
        )
        assert wl.run_local(LocalRuntime())[0] == 16777120.0

    @pytest.mark.parametrize(
        "mode, cycles",
        [
            (ChunkMode.BASELINE, 123508512.0),
            (ChunkMode.ALL_LOOPS, 561592482.88),
            (ChunkMode.HIGH_DENSITY, 53643282.88),
        ],
    )
    def test_kmeans(self, mode, cycles):
        wl = KMeansWorkload(n_points=20_000)
        rt = model_trackfm(4 * KB, wl.working_set // 3)
        assert wl.run(rt, mode)[0] == pytest.approx(cycles, rel=1e-12)

    def test_hashmap(self):
        wl = HashmapWorkload(working_set=2 * MB, n_lookups=10_000, trace_bytes=256 * KB)
        local = 512 * KB
        assert wl.run_trackfm(model_trackfm(256, local)).cycles == pytest.approx(
            159322115.872, rel=1e-12
        )
        assert wl.run_fastswap(model_fastswap(local)).cycles == 338512000.0
        multi = wl.run_trackfm_multisize(model_trackfm(64, local), model_trackfm(4 * KB, local))
        assert multi.cycles == pytest.approx(87966551.392, rel=1e-12)
        assert wl.run_local(LocalRuntime()).cycles == 1320000.0

    def test_memcached(self):
        wl = MemcachedWorkload(working_set=4 * MB, n_keys=20_000, n_ops=20_000, skew=1.05)
        assert wl.run_trackfm(model_trackfm(64, 1 * MB)).cycles == pytest.approx(
            1986484261.12, rel=1e-12
        )
        assert wl.run_fastswap(model_fastswap(1 * MB)).cycles == pytest.approx(
            2131687607.296, rel=1e-12
        )
        buckets, items = wl.hybrid_split(1 * MB, 64)
        hybrid = wl.run_hybrid(model_fastswap(buckets), model_trackfm(64, items))
        assert hybrid.cycles == pytest.approx(1988332261.12, rel=1e-12)
        assert wl.run_local(LocalRuntime()).cycles == 1961440000.0


class TestConfigReachesModels:
    """A runtime's config moves a model's cycles by exactly the term it books."""

    def test_nas_fastswap_reclaim(self):
        model = NasModel(nas_by_name("IS"), working_set=4 * MB)
        base, metrics = model.run_fastswap(fastswap(1 * MB))
        moved, _ = model.run_fastswap(fastswap(1 * MB, reclaim_cycles=3_500.0))
        assert metrics.major_faults > 0
        assert moved - base == pytest.approx(metrics.major_faults * 1_500.0, rel=1e-12)

    def test_analytics_aifm_deref(self):
        wl = AnalyticsWorkload(working_set=4 * MB)
        config = PoolConfig(object_size=4 * KB, local_memory=1 * MB, heap_size=4 * KB)
        base, metrics = wl.run_aifm(AIFMRuntime(config))
        moved, _ = wl.run_aifm(AIFMRuntime(config, deref_overhead=13.0))
        assert moved - base == pytest.approx(metrics.accesses * 4.0, rel=1e-12)

    def test_analytics_trackfm_evac_sync(self):
        wl = AnalyticsWorkload(working_set=4 * MB)
        base, metrics = wl.run_trackfm(trackfm(4 * KB, 1 * MB))
        moved, _ = wl.run_trackfm(trackfm(4 * KB, 1 * MB, evac_sync_fraction=0.5))
        written_back = metrics.bytes_evacuated // (4 * KB)
        assert written_back > 0
        assert moved - base == pytest.approx(written_back * wire(4 * KB) * 0.25, rel=1e-9)

    def test_kmeans_chunk_setup(self):
        wl = KMeansWorkload(n_points=5_000, iterations=2)
        costs = replace(DEFAULT_COSTS, chunk_setup=DEFAULT_COSTS.chunk_setup + 100.0)
        base, _ = wl.run(trackfm(4 * KB, 64 * KB), ChunkMode.ALL_LOOPS)
        moved, _ = wl.run(trackfm(4 * KB, 64 * KB, costs=costs), ChunkMode.ALL_LOOPS)
        assert moved - base == pytest.approx(2 * wl.n_points * 100.0, rel=1e-12)

    def test_hashmap_fastswap_reclaim(self):
        wl = HashmapWorkload(working_set=2 * MB, n_lookups=10_000, trace_bytes=256 * KB)
        base = wl.run_fastswap(fastswap(512 * KB))
        moved = wl.run_fastswap(fastswap(512 * KB, reclaim_cycles=2_250.0))
        # Only the lookups' misses reclaim; the trace stream does not.
        assert base.metrics.evictions > 0
        assert moved.cycles - base.cycles == pytest.approx(
            base.metrics.evictions * 250.0, rel=1e-12
        )

    def test_memcached_writeback_shares(self):
        wl = MemcachedWorkload(working_set=4 * MB, n_keys=20_000, n_ops=20_000, skew=1.05)
        base = wl.run_fastswap(fastswap(1 * MB))
        moved = wl.run_fastswap(fastswap(1 * MB, writeback_sync_fraction=0.75))
        pages = base.metrics.bytes_evacuated // BASE_PAGE
        assert pages == base.metrics.major_faults > 0
        assert moved.cycles - base.cycles == pytest.approx(
            pages * wire(BASE_PAGE) * 0.5, rel=1e-9
        )
        base = wl.run_trackfm(trackfm(64, 1 * MB))
        moved = wl.run_trackfm(trackfm(64, 1 * MB, evac_sync_fraction=0.0))
        objects = base.metrics.bytes_evacuated // 64
        assert objects == base.metrics.guard_count(GuardKind.SLOW) > 0
        assert base.cycles - moved.cycles == pytest.approx(
            objects * wire(64) * 0.25, rel=1e-9
        )


def plans(random_ok=True):
    patterns = list(AccessPattern) if random_ok else [
        AccessPattern.SEQUENTIAL, AccessPattern.SHORT_LOOPS,
    ]

    @st.composite
    def build(draw):
        n = draw(st.integers(1, 5_000))
        elem = draw(st.sampled_from([1, 2, 4, 8, 16, 64]))
        footprint = draw(st.none() | st.integers(1, n * elem))
        return AccessPlan(
            draw(st.sampled_from(patterns)), n, elem,
            entries=draw(st.integers(1, 50)),
            is_write=draw(st.booleans()),
            footprint=footprint,
            body_cycles=draw(st.none() | st.floats(0.0, 100.0)),
            dirty=draw(st.booleans()),
        )

    return build()


OBJECT_SIZES = st.sampled_from([64, 256, 1024, 4096])
FRACTIONS = st.floats(0.0, 1.0)


def priced(metrics, call):
    """(returned cycles, accesses booked) and check the bundle's cycles delta."""
    cycles0, accesses0 = metrics.cycles, metrics.accesses
    cycles = call()
    assert metrics.cycles - cycles0 == pytest.approx(cycles, rel=1e-12, abs=1e-9)
    return cycles, metrics.accesses - accesses0


def objects_of(plan, granule):
    nbytes = plan.n_elems * plan.elem_size if plan.footprint is None else plan.footprint
    return max(1, ceil_div(nbytes, granule))


class TestCostPlanBookkeeping:
    @settings(max_examples=150, deadline=None)
    @given(plans(), FRACTIONS, OBJECT_SIZES, st.sampled_from(list(GuardStrategy)))
    def test_trackfm(self, plan, resident, object_size, strategy):
        rt = trackfm(object_size, object_size)
        m = rt.metrics
        _, accesses = priced(m, lambda: rt.cost_plan(plan, resident, strategy))
        assert accesses == plan.n_elems
        assert m.bytes_fetched == m.remote_fetches * object_size
        if plan.pattern is AccessPattern.RANDOM:
            # A lookup's miss evicts a victim.
            assert m.evictions == m.remote_fetches
        if plan.pattern is AccessPattern.RANDOM or strategy is GuardStrategy.NAIVE:
            assert m.guard_count(GuardKind.FAST) + m.guard_count(GuardKind.SLOW) == plan.n_elems
        else:
            assert m.guard_count(GuardKind.BOUNDARY) == plan.n_elems
            assert m.guard_count(GuardKind.LOCALITY) == objects_of(plan, object_size)

    @settings(max_examples=60, deadline=None)
    @given(plans(), FRACTIONS, st.sampled_from(list(GuardStrategy)))
    def test_multipool_forwards_the_plan(self, plan, resident, strategy):
        pool = MultiPoolRuntime(local_memory=64 * KB, heap_size=1 * MB)
        ptr = pool.tfm_malloc(4 * KB, object_size=4 * KB)
        direct = trackfm(4 * KB, 64 * KB // 3)
        inner = pool.runtime_of_class(4 * KB)
        cycles, accesses = priced(
            inner.metrics, lambda: pool.cost_plan(ptr, plan, resident, strategy)
        )
        assert cycles == direct.cost_plan(plan, resident, strategy)
        assert accesses == plan.n_elems
        assert inner.metrics.as_dict() == direct.metrics.as_dict()

    @settings(max_examples=100, deadline=None)
    @given(plans(random_ok=False), FRACTIONS, OBJECT_SIZES)
    def test_aifm(self, plan, resident, object_size):
        rt = model_aifm(object_size, object_size)
        m = rt.metrics
        _, accesses = priced(m, lambda: rt.cost_plan(plan, resident))
        assert accesses == plan.n_elems
        assert m.bytes_fetched == m.remote_fetches * object_size

    @settings(max_examples=100, deadline=None)
    @given(plans(), FRACTIONS, st.booleans(), st.floats(1.0, 2.0))
    def test_fastswap(self, plan, resident, under_pressure, refaults):
        rt = model_fastswap(BASE_PAGE)
        m = rt.metrics
        _, accesses = priced(
            m, lambda: rt.cost_plan(plan, resident, under_pressure, refaults)
        )
        assert accesses == plan.n_elems
        assert m.bytes_fetched == m.major_faults * BASE_PAGE
        assert m.evictions == (m.major_faults if under_pressure else 0)

    @settings(max_examples=50, deadline=None)
    @given(plans())
    def test_local(self, plan):
        rt = LocalRuntime()
        cycles, accesses = priced(rt.metrics, lambda: rt.cost_plan(plan))
        body = DEFAULT_COSTS.local_access if plan.body_cycles is None else plan.body_cycles
        assert cycles == plan.n_elems * body
        assert accesses == plan.n_elems
        assert rt.metrics.bytes_fetched == 0

    def test_aifm_rejects_lookups(self):
        from repro.errors import RuntimeConfigError

        with pytest.raises(RuntimeConfigError):
            model_aifm(4 * KB, 4 * KB).cost_plan(AccessPlan(AccessPattern.RANDOM, 10, 8))


def test_multipool_forwards_loop_entries():
    def chunked(entries):
        pool = MultiPoolRuntime(local_memory=64 * KB, heap_size=1 * MB)
        ptr = pool.tfm_malloc(64 * KB, object_size=4 * KB)
        plan = AccessPlan(AccessPattern.SEQUENTIAL, 8192, 8, entries=entries)
        return pool.cost_plan(ptr, plan, 0.0, GuardStrategy.CHUNKED)

    assert chunked(2) - chunked(1) == DEFAULT_COSTS.chunk_setup


def test_models_hold_no_pricing():
    """Pricing lives in the runtimes: no model reads a cost table, builds
    a link, or writes a reclaim, writeback or deref constant."""
    banned = {
        "CostTable", "DEFAULT_COSTS", "make_tcp_backend", "make_rdma_backend",
        "transfer_cycles", "wire_cycles", "fast_guard", "slow_guard_local",
        "fastswap_fault", "chunk_setup", "boundary_check", "locality_guard",
        "local_access", "reclaim_cycles", "sync_fraction", "writeback_sync_fraction",
        "deref_overhead", "AIFM_DEREF_OVERHEAD",
    }
    for name in ("nas", "analytics", "kmeans", "hashmap", "memcached"):
        tree = ast.parse((MODELS / f"{name}.py").read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        used |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not used & banned, (name, sorted(used & banned))
