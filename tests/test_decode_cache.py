"""Pre-decode cache: invalidation, callee resolution, engine equivalence.

The decoded engine (:mod:`repro.sim.decode`) is a performance feature
with zero semantic budget: it must match the legacy IR-walking engine
value for value, step for step, metric for metric.  These tests pin

* cache behaviour — reuse while the IR is untouched, re-decode after
  any pass (the :class:`PassManager` invalidation hook) and after
  out-of-band instruction surgery (the instruction-count safety net);
* equivalence across the differential fuzzer's program shapes and the
  hand-built ``irprograms`` modules: identical values, identical step
  counts, and identical ``Metrics.as_dict()`` on compiled far-memory
  runs;
* error parity for the paths the decoder rewrites (entry-block phis,
  fall-through blocks, ``max_steps``, faulting accesses) and the
  block-hook contract the profiler relies on;
* the generated code itself: one Python frame per IR call, names that
  stay data, and tracebacks that show the generated line.
"""

from __future__ import annotations

import sys
import traceback

import pytest

from repro.aifm.pool import PoolConfig
from repro.compiler import CompilerConfig, TrackFMCompiler
from repro.compiler.guard_analysis import GuardAnalysisPass
from repro.compiler.guard_transform import GuardTransformPass
from repro.compiler.pass_manager import PassContext, PassManager
from repro.errors import InterpError, SegmentationFault
from repro.ir import IRBuilder, I32, I64, Module, verify_module
from repro.ir.values import Constant
from repro.machine.cache import AlwaysHitCache
from repro.sim.decode import decode_module
from repro.sim.interpreter import Interpreter
from repro.sim.irrun import TrackFMProgram
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import KB, MB

from irgen import generate_module
from irprograms import build_sum_loop, build_write_then_sum

#: A small seed slice is plenty here: the engine leg of
#: ``tests/test_fuzz_differential.py`` runs legacy against decoded over
#: the whole fuzz corpus, raw and compiled (50 seeds per PR, 500 nightly).
EQUIV_SEEDS = list(range(12))


class TestCacheLifecycle:
    def test_cache_hit_without_mutation(self):
        m = build_sum_loop()
        assert decode_module(m) is decode_module(m)

    def test_pass_manager_invalidates_after_each_pass(self):
        m = build_sum_loop()
        before = decode_module(m)
        ctx = PassContext(config=CompilerConfig())
        PassManager([GuardAnalysisPass(), GuardTransformPass()]).run(m, ctx)
        after = decode_module(m)
        assert after is not before
        assert after.epoch > before.epoch

    def test_analysis_only_pass_still_invalidates(self):
        # The manager can't know whether a pass wrote IR, so even a pure
        # analysis bumps the epoch — correctness over cache retention.
        m = build_sum_loop()
        before = decode_module(m)
        PassManager([GuardAnalysisPass()]).run(m, PassContext(config=CompilerConfig()))
        assert decode_module(m) is not before

    def test_instruction_count_safety_net(self):
        # Out-of-band surgery (no pass, no invalidate call): the decode
        # cache notices through the instruction count.
        m = build_sum_loop()
        before = decode_module(m)
        f = m.get_function("main")
        extra = f.add_block("extra")  # unreachable, but changes the count
        IRBuilder(extra).ret(Constant(I64, 0))
        assert decode_module(m) is not before

    def test_explicit_invalidate(self):
        m = build_sum_loop()
        before = decode_module(m)
        m.invalidate_decode()
        assert decode_module(m) is not before

    def test_register_intrinsic_resets_callee_cache(self):
        # First run resolves "tfm_mystery" -> unresolved; registering
        # the intrinsic must drop that cached resolution.
        m = Module()
        f = m.add_function("main", I64)
        b = IRBuilder(f.add_block("entry"))
        b.ret(b.call(I64, "tfm_mystery", []))
        verify_module(m)
        interp = Interpreter(m, engine="decoded")
        with pytest.raises(InterpError, match="unresolved"):
            interp.run("main")
        interp.register_intrinsic("tfm_mystery", lambda: 99)
        assert interp.run("main").value == 99


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", EQUIV_SEEDS)
    def test_raw_value_and_steps_match(self, seed):
        module = generate_module(seed)
        verify_module(module)
        legacy = Interpreter(module, engine="legacy", max_steps=5_000_000).run("main")
        decoded = Interpreter(module, engine="decoded", max_steps=5_000_000).run("main")
        assert decoded.value == legacy.value, f"seed {seed}: value diverged"
        assert decoded.steps == legacy.steps, f"seed {seed}: step count diverged"
        assert decoded.output == legacy.output, f"seed {seed}: output diverged"

    @pytest.mark.parametrize("seed", EQUIV_SEEDS[::3])
    def test_compiled_far_memory_metrics_match(self, seed):
        results = {}
        for engine in ("legacy", "decoded"):
            compiled = TrackFMCompiler(CompilerConfig()).compile(generate_module(seed))
            runtime = TrackFMRuntime(
                PoolConfig(object_size=256, local_memory=1 * KB, heap_size=1 * MB),
                cache=AlwaysHitCache(),
            )
            result = TrackFMProgram(
                compiled.module, runtime, max_steps=5_000_000, engine=engine
            ).run("main")
            results[engine] = (result.value, result.steps, runtime.metrics.as_dict())
        assert results["decoded"] == results["legacy"], f"seed {seed}: metrics diverged"

    @pytest.mark.parametrize("ty", [I64, I32], ids=["i64", "i32"])
    def test_sdiv_srem_wrap_matches(self, ty):
        # The decoded engine wraps 64-bit quotients and remainders inline;
        # the minimum divided by -1 is the one case that overflows.
        lo = -(1 << (ty.bits - 1))
        cases = [(lo, -1), (lo, 3), (lo + 1, lo), (-7, 2), (7, -3), (-7, -3)]
        for op in ("sdiv", "srem"):
            for a, c in cases:
                m = Module()
                f = m.add_function("main", ty)
                b = IRBuilder(f.add_block("entry"))
                b.ret(getattr(b, op)(Constant(ty, a), Constant(ty, c)))
                got = {
                    engine: Interpreter(m, engine=engine).run("main").value
                    for engine in ("legacy", "decoded")
                }
                assert got["decoded"] == got["legacy"], (op, a, c, got)

    @pytest.mark.parametrize(
        "build", [build_sum_loop, build_write_then_sum], ids=["sum_loop", "write_sum"]
    )
    def test_irprogram_shapes_match(self, build):
        for engine in ("legacy", "decoded"):
            module = build()
            interp = Interpreter(module, engine=engine)
            result = interp.run("main")
            if engine == "legacy":
                expected = (result.value, result.steps)
            else:
                assert (result.value, result.steps) == expected

    def test_fingerprint_workloads_match(self):
        # The bench-regress workloads themselves, end to end.
        from repro.bench.regress import WORKLOADS

        for name, build in WORKLOADS.items():
            compiled_l = TrackFMCompiler(CompilerConfig()).compile(build())
            compiled_d = TrackFMCompiler(CompilerConfig()).compile(build())
            rt_l = TrackFMRuntime(
                PoolConfig(object_size=256, local_memory=2 * KB, heap_size=1 * MB),
                cache=AlwaysHitCache(),
            )
            rt_d = TrackFMRuntime(
                PoolConfig(object_size=256, local_memory=2 * KB, heap_size=1 * MB),
                cache=AlwaysHitCache(),
            )
            legacy = TrackFMProgram(compiled_l.module, rt_l, engine="legacy").run("main")
            decoded = TrackFMProgram(compiled_d.module, rt_d, engine="decoded").run("main")
            assert (legacy.value, legacy.steps) == (decoded.value, decoded.steps), name
            assert rt_l.metrics.as_dict() == rt_d.metrics.as_dict(), name


class TestErrorAndHookParity:
    def _engines(self):
        return ("legacy", "decoded")

    def test_max_steps_parity(self):
        for engine in self._engines():
            m = build_sum_loop(n=1000)
            interp = Interpreter(m, engine=engine, max_steps=50)
            with pytest.raises(InterpError, match="max_steps=50"):
                interp.run("main")
            assert interp.steps == 51, engine

    def test_entry_phi_rejected(self):
        for engine in self._engines():
            m = Module()
            f = m.add_function("main", I64)
            entry = f.add_block("entry")
            b = IRBuilder(entry)
            phi = b.phi(I64)
            b.ret(phi)
            with pytest.raises(InterpError, match="phi in entry block"):
                Interpreter(m, engine=engine).run("main")

    def test_fell_through_block(self):
        for engine in self._engines():
            m = Module()
            f = m.add_function("main", I64)
            b = IRBuilder(f.add_block("entry"))
            b.add(Constant(I64, 1), 2)  # no terminator
            with pytest.raises(InterpError, match="fell through"):
                Interpreter(m, engine=engine).run("main")

    def test_arity_error_parity(self):
        for engine in self._engines():
            m = build_sum_loop()
            with pytest.raises(InterpError, match="expects"):
                Interpreter(m, engine=engine).run("main", [1, 2, 3])

    def test_block_hook_sequence_matches(self):
        visits = {}
        for engine in self._engines():
            m = build_sum_loop(n=5)
            seen = []
            interp = Interpreter(
                m, engine=engine, block_hook=lambda f, name: seen.append(name)
            )
            interp.run("main")
            visits[engine] = seen
        assert visits["decoded"] == visits["legacy"]
        assert visits["decoded"]  # the hook actually fired

    @pytest.mark.parametrize("kind", ["load", "store"])
    def test_faulting_access_leaves_steps_like_legacy(self, kind):
        # An unguarded access through an address nothing maps is the
        # GP fault of §3.1; it raises mid-block, after three ops.
        steps = {}
        for engine in self._engines():
            m = Module()
            f = m.add_function("main", I64)
            b = IRBuilder(f.add_block("entry"))
            x = b.add(Constant(I64, 1), 2)
            y = b.add(x, 3)
            p = b.inttoptr(Constant(I64, 0x1234))
            if kind == "load":
                b.load(I64, p)
            else:
                b.store(y, p)
            b.ret(y)
            interp = Interpreter(m, engine=engine)
            with pytest.raises(SegmentationFault):
                interp.run("main")
            steps[engine] = interp.steps
        assert steps == {"legacy": 4, "decoded": 4}


#: Set by a hostile name's payload, should the name ever run as code.
HOSTILE_RAN: list = []


def _countdown_module() -> Module:
    """``down(n) = n == 0 ? 0 : down(n - 1) + 1`` and a ``main(n)``."""
    m = Module()
    down = m.add_function("down", I64, [I64], ["n"])
    entry, base, rec = (down.add_block(name) for name in ("entry", "base", "rec"))
    b = IRBuilder(entry)
    b.condbr(b.icmp("eq", down.args[0], 0), base, rec)
    IRBuilder(base).ret(Constant(I64, 0))
    rb = IRBuilder(rec)
    rb.ret(rb.add(rb.call(I64, "down", [rb.sub(down.args[0], 1)]), 1))
    main = m.add_function("main", I64, [I64], ["n"])
    mb = IRBuilder(main.add_block("entry"))
    mb.ret(mb.call(I64, "down", [main.args[0]]))
    verify_module(m)
    return m


class TestGeneratedCode:
    def test_recursion_depth_900_under_the_default_limit(self):
        # One Python frame per IR call: 900 nested IR calls fit the
        # default recursion limit with the test runner's frames on top.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            result = Interpreter(_countdown_module(), engine="decoded").run("main", [900])
        finally:
            sys.setrecursionlimit(limit)
        assert result.value == 900

    def test_hostile_names_stay_data(self):
        payload = f"__import__('sys').modules[{__name__!r}].HOSTILE_RAN.append(1)"
        fname, helper_name, block_name, helper_block = (
            f"q'\"\n{payload}\n#",
            f'"""\n{payload}\n"""',
            f"x');{payload};('",
            f"\\\n{payload}",
        )
        m = Module()
        helper = m.add_function(helper_name, I64, [I64])
        hb = IRBuilder(helper.add_block(helper_block))
        hb.ret(hb.add(helper.args[0], 1))
        f = m.add_function(fname, I64)
        b = IRBuilder(f.add_block(block_name))
        b.add(b.call(I64, helper_name, [Constant(I64, 41)]), 1)  # falls through
        results = {}
        for engine in ("legacy", "decoded"):
            seen = []
            interp = Interpreter(
                m, engine=engine, block_hook=lambda fn, name: seen.append((fn.name, name))
            )
            with pytest.raises(InterpError, match="fell through") as exc:
                interp.run(fname)
            results[engine] = (str(exc.value), seen, interp.steps)
        assert results["decoded"] == results["legacy"]
        assert results["decoded"][1] == [(fname, block_name), (helper_name, helper_block)]
        assert HOSTILE_RAN == []

    def test_traceback_shows_the_generated_line(self):
        m = Module()
        f = m.add_function("main", I64, [I64], ["d"])
        b = IRBuilder(f.add_block("entry"))
        b.ret(b.srem(Constant(I64, 7), f.args[0]))
        with pytest.raises(InterpError, match="srem by zero") as exc:
            Interpreter(m, engine="decoded").run("main", [0])
        text = "".join(traceback.format_exception(exc.type, exc.value, exc.tb))
        frame = text[text.index('File "<decoded @main'):]
        assert frame.splitlines()[1].strip().startswith("raise InterpError(")
