"""Structurally-real NAS mini-kernels: semantics and compiler behaviour."""

import pytest

from repro.aifm.pool import PoolConfig
from repro.compiler import ChunkingPolicy, CompilerConfig, TrackFMCompiler
from repro.machine.cache import AlwaysHitCache
from repro.machine.costs import GuardKind
from repro.sim.interpreter import Interpreter
from repro.sim.irrun import TrackFMProgram
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import KB, MB, align_up
from repro.workloads.nas_kernels import (
    KERNELS,
    build_cg_kernel,
    build_ft_kernel,
    build_is_kernel,
    build_mg_kernel,
    build_sp_kernel,
    cg_reference,
    ft_reference,
    is_reference,
    lcg_fill_reference,
    mg_reference,
    sp_reference,
)


def far_runtime(local=32 * KB):
    return TrackFMRuntime(
        PoolConfig(object_size=4 * KB, local_memory=local, heap_size=2 * MB),
        cache=AlwaysHitCache(),
    )


class TestReferencesMatchInterpreter:
    @pytest.mark.parametrize("name", list(KERNELS))
    def test_kernel_matches_python_reference(self, name):
        build, reference = KERNELS[name]
        result = Interpreter(build(), max_steps=5_000_000).run("main")
        assert result.value == reference()

    def test_lcg_fill_reference_deterministic(self):
        assert lcg_fill_reference(5, 1, 100) == lcg_fill_reference(5, 1, 100)
        assert lcg_fill_reference(5, 1, 100) != lcg_fill_reference(5, 2, 100)

    def test_cg_scales_with_size(self):
        small = Interpreter(build_cg_kernel(16, 2)).run("main").value
        assert small == cg_reference(16, 2)

    def test_is_histogram_conserves_keys(self):
        # sum over hist equals n_keys: check via a direct reference.
        n_keys, n_buckets = 64, 8
        keys = lcg_fill_reference(n_keys, 7, n_buckets)
        assert len(keys) == n_keys
        assert Interpreter(build_is_kernel(n_keys, n_buckets)).run("main").value == is_reference(
            n_keys, n_buckets
        )

    def test_sp_recurrence_depends_on_order(self):
        # The sweep is genuinely loop-carried: changing c changes a[n-1].
        assert sp_reference(64, 3) != sp_reference(64, 5)
        assert Interpreter(build_sp_kernel(64, 5)).run("main").value == sp_reference(64, 5)


class TestCompiledKernels:
    @pytest.mark.parametrize("name", list(KERNELS))
    def test_far_memory_run_matches_reference(self, name):
        build, reference = KERNELS[name]
        module = build()
        compiled = TrackFMCompiler(CompilerConfig()).compile(module)
        program = TrackFMProgram(compiled.module, far_runtime(), max_steps=10_000_000)
        assert program.run("main").value == reference()

    def test_mg_stencil_is_chunked(self):
        # Unit-stride stencil: the chunking candidates are found and the
        # cost model accepts the long sweeps.
        module = build_mg_kernel(n=100_000 // 8)
        compiled = TrackFMCompiler(CompilerConfig()).compile(module)
        assert compiled.loops_chunked >= 1

    def test_cg_gather_not_chunked(self):
        # x[col[j]] has no induction-variable stride: the gather access
        # must stay under a full guard.
        module = build_cg_kernel(n_rows=4096, nnz_per_row=4)
        compiled = TrackFMCompiler(CompilerConfig()).compile(module)
        assert compiled.guards_inserted >= 1

    def test_ft_column_major_confounds_loop_analysis(self):
        # The inner index is mul(row, cols) + col — an affine function
        # of the IV, not the IV itself, so the chunking analysis cannot
        # claim it (the paper's §4.5 FT pathology) and the access stays
        # under a full guard.
        from repro.compiler.guard_transform import GUARDED_MD
        from repro.ir.instructions import Load

        module = build_ft_kernel(rows=64, cols=64)
        compiled = TrackFMCompiler(CompilerConfig()).compile(module)
        main = compiled.module.get_function("main")
        traversal_loads = [
            inst
            for inst in main.instructions()
            if isinstance(inst, Load) and inst.parent.name.startswith("inner")
        ]
        assert traversal_loads
        assert all(l.metadata.get(GUARDED_MD) for l in traversal_loads)
        assert not any(l.metadata.get("tfm.chunked") for l in traversal_loads)

    def test_is_scatter_guarded_every_access(self):
        module = build_is_kernel(n_keys=256, n_buckets=32)
        compiled = TrackFMCompiler(
            CompilerConfig(chunking=ChunkingPolicy.NONE)
        ).compile(module)
        rt = far_runtime()
        program = TrackFMProgram(compiled.module, rt, max_steps=10_000_000)
        assert program.run("main").value == is_reference(256, 32)
        # Histogram does 1 read + 1 write per key through guards.
        assert rt.metrics.total_guards > 2 * 256

    def test_kernels_survive_o1(self):
        for name, (build, reference) in KERNELS.items():
            module = build()
            compiled = TrackFMCompiler(CompilerConfig(run_o1=True)).compile(module)
            program = TrackFMProgram(
                compiled.module, far_runtime(), max_steps=10_000_000
            )
            assert program.run("main").value == reference(), name


#: Reduced sizes and heap footprints (bytes of heap allocations) of the
#: five kernels, in the host benchmark's ``nas`` shape: 256 B objects and
#: local memory a quarter of the footprint.
_ENGINE_SHAPES = {
    "CG": ((256, 4), lambda rows, k: 16 * rows * k + 8 * rows),
    "IS": ((2048, 64), lambda keys, buckets: 8 * (keys + buckets)),
    "MG": ((2048,), lambda n: 16 * n),
    "SP": ((2048,), lambda n: 8 * n),
    "FT": ((24, 24), lambda rows, cols: 8 * rows * cols),
}


class TestEngineAgreement:
    """Legacy and decoded engines agree on every kernel the benchmark runs:
    value, IR steps and every simulated metric."""

    @staticmethod
    def _run(name, engine, programmed):
        sizes, footprint = _ENGINE_SHAPES[name]
        fp = footprint(*sizes)
        config = CompilerConfig(object_size=256, enable_programmed_prefetch=programmed)
        compiled = TrackFMCompiler(config).compile(KERNELS[name][0](*sizes))
        runtime = TrackFMRuntime(
            PoolConfig(
                object_size=256,
                local_memory=max(256, fp // 4 // 256 * 256),
                heap_size=align_up(2 * fp + 4 * KB, 256),
            )
        )
        result = TrackFMProgram(
            compiled.module, runtime, max_steps=10_000_000, engine=engine
        ).run("main")
        return result.value, result.steps, runtime.metrics.as_dict()

    @pytest.mark.parametrize("programmed", [False, True], ids=["stride", "programmed"])
    @pytest.mark.parametrize("name", list(KERNELS))
    def test_engines_agree(self, name, programmed):
        legacy = self._run(name, "legacy", programmed)
        decoded = self._run(name, "decoded", programmed)
        assert decoded == legacy
        assert legacy[0] == KERNELS[name][1](*_ENGINE_SHAPES[name][0])
        # Every kernel but FT's column walk runs chunked streams at these sizes.
        assert ("boundary" in legacy[2]["guards"]) == (name != "FT")
