"""Where generated code books a guard or a deref inline, and where it calls.

The decoded engine's generated code runs the hit path of
``tfm_guard_read``/``tfm_guard_write``/``tfm_chunk_deref``/
``tfm_chunk_deref_write`` in place (``repro.sim.codegen``) and enters
the runtime only for a slow guard, an object crossing or a custody
miss.  These tests pin both halves on the host benchmark's ``nas``
kernels: which accesses still enter, and that a traced run or the
adaptive hybrid keeps every guard a call.  That the inline bodies book
exactly what the entries book is the engine leg of
``tests/test_fuzz_differential.py``.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.compiler import CompilerConfig, TrackFMCompiler
from repro.hybrid.runtime import AdaptiveHybridRuntime
from repro.machine.costs import GuardKind
from repro.sim.irrun import TrackFMProgram
from repro.trace import CAT_GUARD, Tracer
from repro.trackfm.guards import GuardEngine
from repro.trackfm.pointer import is_tfm_pointer
from repro.trackfm.runtime import TrackFMRuntime
from repro.workloads import nas_kernels

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "host"))
from workloads import OBJECT_SIZE, Nas  # noqa: E402

GUARD_ENTRIES = ("tfm_guard_read", "tfm_guard_write")
DEREF_ENTRIES = ("tfm_chunk_deref", "tfm_chunk_deref_write")


@pytest.fixture
def calls(monkeypatch):
    """Class-level spies: calls per (``guard``/``deref``/``engine``,
    whether the pointer is a TrackFM pointer)."""
    counts: Counter = Counter()

    def spy(owner, name, family):
        original = getattr(owner, name)

        def counted(self, ptr, *rest):
            counts[family, is_tfm_pointer(ptr)] += 1
            return original(self, ptr, *rest)

        monkeypatch.setattr(owner, name, counted)

    for name in GUARD_ENTRIES:
        spy(TrackFMRuntime, name, "guard")
    for name in DEREF_ENTRIES:
        spy(TrackFMRuntime, name, "deref")
    spy(GuardEngine, "guard", "engine")
    return counts


def _compiled(kernel: str, *sizes: int):
    module = nas_kernels.KERNELS[kernel][0](*sizes)
    return TrackFMCompiler(CompilerConfig(object_size=OBJECT_SIZE)).compile(module).module


def _family(counts: Counter, family: str) -> int:
    return counts[family, True] + counts[family, False]


class TestWhereTheRuntimeIsEntered:
    def test_nas_kernels_enter_only_off_the_hit_path(self, calls):
        # The benchmark's five kernels, sizes and pools (seed 1).
        nas = Nas(seed=1)
        guards: Counter = Counter()
        for kernel, module in nas.prepare():
            compiled = TrackFMCompiler(CompilerConfig(object_size=OBJECT_SIZE)).compile(module)
            runtime = TrackFMRuntime(nas.pools[kernel])
            result = TrackFMProgram(compiled.module, runtime, engine="decoded").run("main")
            assert result.value == nas.expected[kernel]
            guards.update(runtime.metrics.guards)
        # Hits of both kinds ran, inline.
        assert guards[GuardKind.FAST] > 0 and guards[GuardKind.BOUNDARY] > 0
        assert _family(calls, "guard") == guards[GuardKind.SLOW] + guards[GuardKind.CUSTODY_MISS]
        assert _family(calls, "deref") == guards[GuardKind.LOCALITY] + calls["deref", False]
        # Every guard entry guards once; no hit reaches the engine.
        assert _family(calls, "engine") == _family(calls, "guard")

    def test_legacy_engine_enters_on_every_access(self, calls):
        # The executable spec calls the entries on every guarded access.
        runtime = TrackFMRuntime(Nas(seed=1).pools["MG"])
        TrackFMProgram(_compiled("MG", 1024), runtime, engine="legacy").run("main")
        count = runtime.metrics.guard_count
        guarded = count(GuardKind.FAST) + count(GuardKind.SLOW) + count(GuardKind.CUSTODY_MISS)
        assert _family(calls, "guard") == guarded
        assert _family(calls, "deref") == count(GuardKind.BOUNDARY)

    def test_traced_run_emits_the_legacy_engines_guard_events(self):
        events = {}
        for engine in ("legacy", "decoded"):
            runs = []
            for kernel, sizes in (("CG", (256, 4)), ("MG", (1024,))):
                runtime = TrackFMRuntime(Nas(seed=1).pools[kernel], tracer=Tracer())
                TrackFMProgram(_compiled(kernel, *sizes), runtime, engine=engine).run("main")
                runs.append([
                    (e.name, e.ts, e.args) for e in runtime.tracer.events if e.cat == CAT_GUARD
                ])
            events[engine] = runs
        assert events["decoded"] == events["legacy"]
        names = {name for run in events["decoded"] for name, _ts, _args in run}
        assert GuardKind.FAST.value in names

    def test_adaptive_hybrid_profiles_every_guarded_access(self, calls):
        runtime = AdaptiveHybridRuntime(
            local_memory=8 * 1024, heap_size=64 * 1024, object_size=OBJECT_SIZE,
            epoch_accesses=64,
        )
        assert runtime.inline_state() is None
        program = TrackFMProgram(_compiled("CG", 256, 4), runtime)
        assert program.run("main").value == nas_kernels.KERNELS["CG"][1](256, 4)
        # Guarded accesses: every access but the chunked ones, each of
        # which books one boundary check.
        metrics = runtime.metrics
        guarded = metrics.accesses - metrics.guard_count(GuardKind.BOUNDARY)
        assert guarded > 0
        assert runtime.profiler.total_accesses == guarded == calls["guard", True]


class TestInlineStateBinding:
    def test_bound_for_the_run_only(self):
        runtime = TrackFMRuntime(Nas(seed=1).pools["SP"])
        program = TrackFMProgram(_compiled("SP", 512), runtime)
        seen = []
        program.interp.block_hook = lambda _f, _b: seen.append(program.interp.inline_state)
        program.run("main")
        assert seen and all(state is not None for state in seen)
        assert program.interp.inline_state is None

    def test_unbound_after_a_run_that_raises(self):
        runtime = TrackFMRuntime(Nas(seed=1).pools["SP"])
        program = TrackFMProgram(_compiled("SP", 512), runtime, max_steps=100)
        with pytest.raises(Exception, match="max_steps"):
            program.run("main")
        assert program.interp.inline_state is None

    def test_none_when_traced(self):
        runtime = TrackFMRuntime(Nas(seed=1).pools["SP"])
        assert runtime.inline_state() is not None
        runtime.set_tracer(Tracer())
        assert runtime.inline_state() is None
