"""The §5 extensions: autotuning, heap pruning, hybrid placement."""

import pytest

from repro.aifm.pool import PoolConfig
from repro.analysis.profiler import profile_module
from repro.compiler.autotune import autotune_object_size
from repro.compiler.heap_pruning import (
    ELIDED_MD,
    HeapPruningPass,
    PINNED_MD,
    trace_allocation_sites,
)
from repro.compiler.pipeline import ChunkingPolicy, CompilerConfig, TrackFMCompiler
from repro.errors import PassError, PointerError, RuntimeConfigError
from repro.hybrid.runtime import HybridRuntime, Placement
from repro.ir import IRBuilder, I64, PTR, VOID, Module, verify_module
from repro.ir.instructions import Call, Load
from repro.ir.values import Constant
from repro.machine.costs import AccessKind, GuardKind
from repro.sim.interpreter import Interpreter
from repro.sim.irrun import TWIN_BASE, TrackFMProgram
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import KB, MB

from irprograms import build_sum_loop


def build_hot_cold(hot=32, cold=2048, free_hot=False, realloc_hot=False):
    """Loop doing one hot-table lookup + one cold-array read per trip.

    ``free_hot`` frees the hot table before returning.  ``realloc_hot``
    instead writes its last slot, reallocates it to twice the size and
    adds that slot, read through the new pointer, to the result.
    """
    m = Module("hotcold")
    f = m.add_function("main", I64)
    entry, header, body, done = (
        f.add_block(n) for n in ("entry", "header", "body", "done")
    )
    b = IRBuilder(entry)
    hotp = b.call(PTR, "malloc", [Constant(I64, hot * 8)], name="hot")
    coldp = b.call(PTR, "malloc", [Constant(I64, cold * 8)], name="cold")
    b.br(header)
    b.set_block(header)
    i = b.phi(I64, name="i")
    s = b.phi(I64, name="s")
    b.condbr(b.icmp("slt", i, cold), body, done)
    b.set_block(body)
    hv = b.load(I64, b.gep(hotp, b.srem(i, hot), 8))
    cv = b.load(I64, b.gep(coldp, i, 8))
    s2 = b.add(s, b.add(hv, cv))
    i2 = b.add(i, 1)
    b.br(header)
    i.add_incoming(Constant(I64, 0), entry)
    i.add_incoming(i2, body)
    s.add_incoming(Constant(I64, 0), entry)
    s.add_incoming(s2, body)
    b.set_block(done)
    if free_hot:
        b.call(VOID, "free", [hotp])
    if realloc_hot:
        b.store(41, b.gep(hotp, hot - 1, 8))
        grown = b.call(PTR, "realloc", [hotp, Constant(I64, 2 * hot * 8)], name="grown")
        b.ret(b.add(s, b.load(I64, b.gep(grown, hot - 1, 8))))
        return m
    b.ret(s)
    return m


class TestAutotune:
    def test_picks_best_size_and_reports_trials(self):
        result = autotune_object_size(
            lambda: build_sum_loop(n=2048, elem=8),
            local_memory=8 * KB,
            heap_size=1 * MB,
            sizes=(256, 1024, 4096),
        )
        assert result.best_size in (256, 1024, 4096)
        assert len(result.trials) == 3
        assert result.best_trial.cycles == min(t.cycles for t in result.trials.values())
        assert result.speedup_over_worst() >= 1.0
        assert "best object size" in result.summary()

    def test_sequential_probe_prefers_large_objects(self):
        result = autotune_object_size(
            lambda: build_sum_loop(n=4096, elem=8),
            local_memory=8 * KB,
            heap_size=1 * MB,
            sizes=(64, 4096),
        )
        assert result.best_size == 4096

    def test_empty_sizes_rejected(self):
        with pytest.raises(PassError):
            autotune_object_size(
                lambda: build_sum_loop(), local_memory=8 * KB, heap_size=1 * MB, sizes=()
            )


class TestTraceAllocationSites:
    def test_direct_and_gep(self):
        m = Module()
        f = m.add_function("main", I64)
        b = IRBuilder(f.add_block("entry"))
        p = b.call(PTR, "malloc", [Constant(I64, 64)])
        q = b.gep(p, 2, 8)
        v = b.load(I64, q)
        b.ret(v)
        sites = trace_allocation_sites(q)
        assert sites == {p}

    def test_phi_merge(self):
        m = build_hot_cold()
        f = m.get_function("main")
        loads = [i for i in f.instructions() if isinstance(i, Load)]
        for load in loads:
            sites = trace_allocation_sites(load.pointer)
            assert sites is not None and len(sites) == 1

    def test_unknown_for_argument(self):
        m = Module()
        f = m.add_function("main", I64, [PTR], ["p"])
        b = IRBuilder(f.add_block("entry"))
        v = b.load(I64, f.args[0])
        b.ret(v)
        assert trace_allocation_sites(f.args[0]) is None

    def test_unknown_for_loaded_pointer(self):
        m = Module()
        f = m.add_function("main", I64)
        b = IRBuilder(f.add_block("entry"))
        slot = b.alloca(8)
        loaded = b.load(PTR, slot)
        b.ret(Constant(I64, 0))
        assert trace_allocation_sites(loaded) is None


class TestHeapPruning:
    def compile_pruned(self, budget=1024):
        module = build_hot_cold()
        profile = profile_module(build_hot_cold())
        config = CompilerConfig(
            chunking=ChunkingPolicy.NONE, pin_budget_bytes=budget
        )
        compiled = TrackFMCompiler(config).compile(module, profile=profile)
        return compiled

    def test_hot_site_pinned_cold_not(self):
        compiled = self.compile_pruned()
        calls = [
            i
            for i in compiled.module.get_function("main").instructions()
            if isinstance(i, Call) and i.callee in ("tfm_malloc", "tfm_malloc_pinned")
        ]
        by_name = {c.name: c for c in calls}
        assert by_name["hot"].callee == "tfm_malloc_pinned"
        assert by_name["cold"].callee == "tfm_malloc"
        assert by_name["hot"].metadata.get(PINNED_MD)

    def test_guards_elided_on_pinned_accesses(self):
        compiled = self.compile_pruned()
        loads = [
            i
            for i in compiled.module.get_function("main").instructions()
            if isinstance(i, Load)
        ]
        elided = [l for l in loads if l.metadata.get(ELIDED_MD)]
        assert len(elided) == 1
        assert compiled.ctx.get_stat("heap-pruning.guards_elided") == 1
        verify_module(compiled.module)

    def test_pruned_program_correct_and_cheaper(self):
        def run(budget):
            module = build_hot_cold()
            profile = profile_module(build_hot_cold())
            config = CompilerConfig(
                chunking=ChunkingPolicy.NONE, pin_budget_bytes=budget
            )
            compiled = TrackFMCompiler(config).compile(module, profile=profile)
            rt = TrackFMRuntime(
                PoolConfig(object_size=4 * KB, local_memory=16 * KB, heap_size=1 * MB)
            )
            value = TrackFMProgram(compiled.module, rt).run("main").value
            return value, rt.metrics

        base_value, base_metrics = run(0)
        pruned_value, pruned_metrics = run(1024)
        assert pruned_value == base_value  # semantics preserved
        assert pruned_metrics.cycles < base_metrics.cycles
        assert pruned_metrics.total_guards < base_metrics.total_guards

    @pytest.mark.parametrize("budget", [0, 1024])
    def test_freeing_a_pinned_allocation(self, budget):
        # The pinned site returns a canonical twin and its free becomes
        # tfm_free: the runtime must release it, not reject the pointer.
        expected = Interpreter(build_hot_cold(free_hot=True)).run("main").value
        config = CompilerConfig(chunking=ChunkingPolicy.NONE, pin_budget_bytes=budget)
        compiled = TrackFMCompiler(config).compile(
            build_hot_cold(free_hot=True), profile=profile_module(build_hot_cold())
        )
        assert compiled.ctx.get_stat("heap-pruning.sites_pinned") == (1 if budget else 0)
        rt = TrackFMRuntime(
            PoolConfig(object_size=4 * KB, local_memory=16 * KB, heap_size=1 * MB)
        )
        program = TrackFMProgram(compiled.module, rt)
        assert program.run("main").value == expected
        # Only the cold array is still live, and the hot table's twin
        # and pins are gone.
        assert [a.size for a in rt.allocator.live_allocations()] == [2048 * 8]
        assert not program.interp.memory.is_mapped(TWIN_BASE)
        assert not any(rt.pool.residency.is_pinned(o) for o in range(rt.pool.num_objects))

    @pytest.mark.parametrize("budget", [0, 1024])
    def test_reallocating_a_pinned_allocation(self, budget):
        # The pinned site's realloc gets its canonical twin: the runtime
        # must copy from it and release it, as free does.
        expected = Interpreter(build_hot_cold(realloc_hot=True)).run("main").value
        config = CompilerConfig(chunking=ChunkingPolicy.NONE, pin_budget_bytes=budget)
        compiled = TrackFMCompiler(config).compile(
            build_hot_cold(realloc_hot=True), profile=profile_module(build_hot_cold())
        )
        assert compiled.ctx.get_stat("heap-pruning.sites_pinned") == (1 if budget else 0)
        rt = TrackFMRuntime(
            PoolConfig(object_size=4 * KB, local_memory=16 * KB, heap_size=1 * MB)
        )
        program = TrackFMProgram(compiled.module, rt)
        assert program.run("main").value == expected
        # The cold array and the grown table are live; the old table's
        # twin and pins are gone.
        assert sorted(a.size for a in rt.allocator.live_allocations()) == [2 * 32 * 8, 2048 * 8]
        assert not program.interp.memory.is_mapped(TWIN_BASE)
        assert not any(rt.pool.residency.is_pinned(o) for o in range(rt.pool.num_objects))

    def test_realloc_still_rejects_other_canonical_pointers(self):
        program = TrackFMProgram(Module("m"), TrackFMRuntime(
            PoolConfig(object_size=4 * KB, local_memory=16 * KB, heap_size=1 * MB)
        ))
        with pytest.raises(PointerError, match="not a TrackFM pointer"):
            program.interp.intrinsics["tfm_realloc"](TWIN_BASE + 64, 16)

    def test_budget_respected(self):
        # A 1-byte budget pins nothing.
        compiled = self.compile_pruned(budget=1)
        assert compiled.ctx.get_stat("heap-pruning.sites_pinned") == 0

    def test_zero_budget_disables(self):
        compiled = self.compile_pruned(budget=0)
        assert compiled.ctx.get_stat("heap-pruning.sites_pinned") == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            HeapPruningPass(-1)


class TestPinnedRuntime:
    def test_pinned_objects_never_evicted(self):
        rt = TrackFMRuntime(
            PoolConfig(object_size=4 * KB, local_memory=8 * KB, heap_size=1 * MB)
        )
        offset = rt.tfm_malloc_pinned(4 * KB)
        obj = rt.pool.object_of_offset(offset)
        assert rt.pool.residency.is_pinned(obj)
        # Pressure the pool: the pinned object must survive.
        ptr = rt.tfm_malloc(16 * 4 * KB)
        for i in range(16):
            rt.access(ptr + i * 4 * KB, AccessKind.READ)
        assert obj in rt.pool.residency
        assert rt.pool.meta(obj).is_local

    def test_pinned_allocation_costs_no_fetch(self):
        rt = TrackFMRuntime(
            PoolConfig(object_size=4 * KB, local_memory=32 * KB, heap_size=1 * MB)
        )
        rt.tfm_malloc_pinned(8 * KB)
        assert rt.metrics.remote_fetches == 0
        assert rt.metrics.bytes_fetched == 0


class TestHybridRuntime:
    def make(self):
        return HybridRuntime(
            local_memory=64 * KB, heap_size=1 * MB, object_size=256
        )

    def test_placement_routing(self):
        rt = self.make()
        obj_handle = rt.allocate(512, Placement.OBJECTS)
        page_handle = rt.allocate(512, Placement.PAGES)
        rt.access(obj_handle)
        rt.access(page_handle)
        tfm, fsw = rt.split()
        assert tfm.total_guards > 0
        assert fsw.major_faults == 1

    def test_merged_metrics(self):
        rt = self.make()
        a = rt.allocate(64, Placement.OBJECTS)
        b = rt.allocate(64, Placement.PAGES)
        rt.access(a)
        rt.access(b)
        merged = rt.metrics
        assert merged.accesses == 2
        assert merged.remote_fetches == 2

    def test_page_hits_cost_nothing_extra(self):
        rt = self.make()
        h = rt.allocate(64, Placement.PAGES)
        rt.access(h)
        hot = rt.access(h)
        assert hot == rt.fastswap.config.costs.local_access

    def test_bounds_checked(self):
        rt = self.make()
        h = rt.allocate(64, Placement.OBJECTS)
        with pytest.raises(PointerError):
            rt.access(h, offset=60, size=8)

    def test_invalid_fraction(self):
        with pytest.raises(RuntimeConfigError):
            HybridRuntime(64 * KB, 1 * MB, page_fraction=0.0)
