"""Seeded differential fuzzing: generated programs through the stack.

Complements the hypothesis-driven ``test_differential.py`` with fixed,
reproducible seeds over a *richer* program space (branches, calls,
pointer chases — see :mod:`tests.irgen`).  Each seed's program runs

1. untouched, under the plain interpreter (ground truth);
2. fully TrackFM-compiled — with the guard-safety sanitizer verifying
   every pipeline stage — on a memory-constrained far-memory runtime;
3. TrackFM-compiled on the *adaptive hybrid* runtime, whose online
   selector migrates regions between the object and page tiers while
   the program runs (the fuzz oracle for the migration protocol);
4. on both interpreter engines, raw and compiled: the decoded engine
   must match the legacy engine (the executable spec) in value, steps
   and output, and on compiled runs in every ``Metrics`` field, the
   state-table cache and the residency set too — also when
   ``max_steps`` cuts the run short anywhere in it.  Compiled runs take
   each of :data:`FAR_RUNTIMES`, so the generated code's inline guard
   and deref hits meet set-associative cache hits and misses under
   CLOCK and LRU residency;

and the results must be identical.  The seed is in the test id and the
assertion message: ``generate_module(<seed>)`` reproduces any failure
exactly.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.aifm.pool import PoolConfig
from repro.compiler import ChunkingPolicy, CompilerConfig, TrackFMCompiler
from repro.errors import InterpError
from repro.hybrid.runtime import AdaptiveHybridRuntime
from repro.integrity import IntegrityConfig
from repro.ir import verify_module
from repro.machine.cache import AlwaysHitCache, CacheModel
from repro.net.faults import FaultPlan, RetryPolicy
from repro.sim.interpreter import Interpreter
from repro.sim.irrun import TrackFMProgram
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import BASE_PAGE, MB

from tests.irgen import generate_module

#: Seed corpus: fixed seeds (reproducible; no time/randomness here).
#: PR CI runs the default 50; the nightly fuzz workflow widens the
#: corpus via ``REPRO_FUZZ_SEEDS=500``.
SEEDS = list(range(int(os.environ.get("REPRO_FUZZ_SEEDS", "50"))))

#: Opt-in network fault injection for the far-memory side of every
#: differential run (the nightly fuzz workflow sets e.g.
#: ``REPRO_FUZZ_FAULT_RATE=0.01``).  The retry policy absorbs losses at
#: these rates, so program values must *still* match the raw
#: interpreter — which is exactly what makes it a fuzz oracle for the
#: resilience layer.
FAULT_RATE = float(os.environ.get("REPRO_FUZZ_FAULT_RATE", "0"))

#: Opt-in payload corruption for the same runs (nightly sets e.g.
#: ``REPRO_FUZZ_CORRUPT_RATE=0.01``).  Corrupted fetches are detected
#: and repaired by the integrity checker — values must still match the
#: raw interpreter, making this the fuzz oracle for the integrity layer.
CORRUPT_RATE = float(os.environ.get("REPRO_FUZZ_CORRUPT_RATE", "0"))


#: Local memory of every far runtime: two of the four 256 B objects a
#: generated program touches, so eviction order, hot bits and dirty
#: writebacks show in every leg.
LOCAL_MEMORY = 512

#: The engine leg's far runtimes: name -> (state-table cache factory,
#: CLOCK residency?).  ``always-hit`` is the other legs' posture.  The
#: two others take the cache model's hits and misses through the
#: generated code's inline guard path: under CLOCK and under LRU
#: residency.
FAR_RUNTIMES = {
    "always-hit": (AlwaysHitCache, True),
    "clock": (CacheModel, True),
    # Two one-entry lines in one set: the objects share one line of the
    # default cache, here they contend for it, so its LRU order shows.
    "lru": (lambda: CacheModel(size_bytes=16, line_size=8, ways=2), False),
}


def far_runtime(
    fault_rate: float = FAULT_RATE,
    fault_seed: int = 0,
    corrupt_rate: float = CORRUPT_RATE,
    kind: str = "always-hit",
) -> TrackFMRuntime:
    """A runtime of the :data:`FAR_RUNTIMES` kind ``kind``, faults armed
    as asked."""
    cache, use_clock = FAR_RUNTIMES[kind]
    runtime = TrackFMRuntime(
        PoolConfig(
            object_size=256, local_memory=LOCAL_MEMORY, heap_size=1 * MB,
            use_clock=use_clock,
        ),
        cache=cache(),
    )
    if fault_rate > 0.0 or corrupt_rate > 0.0:
        backend = runtime.pool.backend
        plan = FaultPlan(
            seed=fault_seed,
            drop_rate=fault_rate,
            jitter_cycles=200.0 if fault_rate > 0.0 else 0.0,
            bitflip_rate=corrupt_rate,
            stale_read_rate=corrupt_rate,
            torn_write_rate=corrupt_rate,
            lost_writeback_rate=corrupt_rate,
        )
        backend.link.faults = plan.schedule()
        if fault_rate > 0.0:
            backend.retry_policy = RetryPolicy(max_attempts=8, seed=fault_seed)
    if corrupt_rate > 0.0:
        # A deep repair budget: at these rates quarantine would need
        # many consecutive corrupt re-fetches of one object.
        runtime.enable_integrity(
            IntegrityConfig(seed=fault_seed, max_refetches=4)
        )
    return runtime


def far_run(
    module,
    fault_rate: float = FAULT_RATE,
    fault_seed: int = 0,
    corrupt_rate: float = CORRUPT_RATE,
) -> int:
    """Interpret under a runtime too small to hold the working set."""
    runtime = far_runtime(fault_rate, fault_seed, corrupt_rate)
    return TrackFMProgram(module, runtime, max_steps=5_000_000).run("main").value


def adaptive_far_run(
    module,
    fault_rate: float = FAULT_RATE,
    fault_seed: int = 0,
    corrupt_rate: float = CORRUPT_RATE,
) -> int:
    """The fifth engine: the adaptive hybrid, selector live, both tiers.

    Same memory-starved posture as :func:`far_run`, but region accesses
    flow through the online path selector — regions migrate between the
    object tier and the shadow page tier mid-program, and faults /
    corruption land on both tiers' links.
    """
    runtime = AdaptiveHybridRuntime(
        local_memory=2 * BASE_PAGE,
        heap_size=1 * MB,
        object_size=256,
        epoch_accesses=64,
        cache=AlwaysHitCache(),
    )
    if fault_rate > 0.0 or corrupt_rate > 0.0:
        plan = FaultPlan(
            seed=fault_seed,
            drop_rate=fault_rate,
            jitter_cycles=200.0 if fault_rate > 0.0 else 0.0,
            bitflip_rate=corrupt_rate,
            stale_read_rate=corrupt_rate,
            torn_write_rate=corrupt_rate,
            lost_writeback_rate=corrupt_rate,
        )
        for backend in runtime.remote_backends():
            backend.link.faults = plan.schedule()
            if fault_rate > 0.0:
                backend.retry_policy = RetryPolicy(max_attempts=8, seed=fault_seed)
    if corrupt_rate > 0.0:
        runtime.enable_integrity(IntegrityConfig(seed=fault_seed, max_refetches=4))
    return TrackFMProgram(module, runtime, max_steps=5_000_000).run("main").value


class TestSeededDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_pipeline_matches_raw_interpreter(self, seed):
        raw = generate_module(seed)
        verify_module(raw)
        expected = Interpreter(raw, max_steps=5_000_000).run("main").value

        module = generate_module(seed)
        config = CompilerConfig(verify_guards=True)
        compiled = TrackFMCompiler(config).compile(module)
        got = far_run(compiled.module)
        assert got == expected, (
            f"seed {seed}: far-memory TrackFM run returned {got}, raw "
            f"interpreter returned {expected}; reproduce with "
            f"tests.irgen.generate_module({seed})"
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_adaptive_hybrid_matches_raw_interpreter(self, seed):
        raw = generate_module(seed)
        expected = Interpreter(raw, max_steps=5_000_000).run("main").value

        module = generate_module(seed)
        compiled = TrackFMCompiler(CompilerConfig(verify_guards=True)).compile(module)
        got = adaptive_far_run(compiled.module)
        assert got == expected, (
            f"seed {seed}: adaptive-hybrid run returned {got}, raw "
            f"interpreter returned {expected}; reproduce with "
            f"tests.irgen.generate_module({seed})"
        )

    @pytest.mark.parametrize("seed", SEEDS[::10])
    def test_chunk_all_policy_matches(self, seed):
        raw = generate_module(seed)
        expected = Interpreter(raw, max_steps=5_000_000).run("main").value
        module = generate_module(seed)
        compiled = TrackFMCompiler(
            CompilerConfig(chunking=ChunkingPolicy.ALL, verify_guards=True)
        ).compile(module)
        got = far_run(compiled.module)
        assert got == expected, f"seed {seed}: chunk-all diverged"

    def test_generator_is_deterministic(self):
        from repro.ir import print_module

        assert print_module(generate_module(7)) == print_module(generate_module(7))
        assert print_module(generate_module(7)) != print_module(generate_module(8))


class TestEngineDifferential:
    """The decoded engine against the legacy engine over the whole corpus.

    Compiled runs use :func:`far_runtime`, so the nightly fault and
    corruption rates apply to both engines alike.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_raw_decoded_matches_legacy(self, seed):
        runs = {}
        for engine in ("legacy", "decoded"):
            result = Interpreter(
                generate_module(seed), max_steps=5_000_000, engine=engine
            ).run("main")
            runs[engine] = (result.value, result.steps, result.output)
        assert runs["decoded"] == runs["legacy"], (
            f"seed {seed}: raw decoded run {runs['decoded'][:2]} != legacy "
            f"{runs['legacy'][:2]} (value, steps); reproduce with "
            f"tests.irgen.generate_module({seed})"
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_compiled_decoded_matches_legacy(self, seed):
        for name, module in _compiled(seed).items():
            for kind in FAR_RUNTIMES:
                runs = {}
                for engine in ("legacy", "decoded"):
                    runtime = far_runtime(fault_seed=seed, kind=kind)
                    result = TrackFMProgram(
                        module, runtime, max_steps=5_000_000, engine=engine
                    ).run("main")
                    runs[engine] = (result.value, result.steps, result.output) + _far_state(
                        runtime
                    )
                assert runs["decoded"] == runs["legacy"], (
                    f"seed {seed}: {name} decoded run on the {kind} runtime "
                    f"{runs['decoded'][:2]} != legacy {runs['legacy'][:2]} (value, "
                    f"steps), or output, metrics, cache or residency differ; "
                    f"reproduce with tests.irgen.generate_module({seed})"
                )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_step_limit_stops_both_engines_at_the_same_op(self, seed):
        # Limits of 1, total - 1, total and drawn ones in between: 20
        # drawn on the raw module and on the module compiled onto the
        # always-hit runtime, 5 on the chunk-all module (guards and chunk
        # derefs both) on each cached runtime.
        compiled = _compiled(seed)
        chunked = compiled["chunk-all compiled"]
        runs = [
            ("raw", generate_module(seed), None, 20),
            ("compiled on always-hit", compiled["compiled"], "always-hit", 20),
            ("chunk-all compiled on clock", chunked, "clock", 5),
            ("chunk-all compiled on lru", chunked, "lru", 5),
        ]
        for name, module, far, drawn in runs:
            total = _limited_run(module, far, seed, "legacy", 5_000_000)[1]
            rng = random.Random(seed)
            limits = [1, total - 1, total] + sorted(
                rng.randrange(2, total - 1) for _ in range(drawn)
            )
            for limit in limits:
                legacy = _limited_run(module, far, seed, "legacy", limit)
                decoded = _limited_run(module, far, seed, "decoded", limit)
                assert decoded == legacy, (
                    f"seed {seed}: {name} run at max_steps={limit} differs between "
                    f"engines: decoded {decoded[:2]} vs legacy {legacy[:2]} (outcome, "
                    f"steps), or in block hooks, output, memory, metrics, cache or "
                    f"residency; reproduce with tests.irgen.generate_module({seed})"
                )


def _compiled(seed: int) -> dict:
    """The seed's program compiled as the pipeline chooses, and with
    every loop chunked (the only way its loops reach the chunk derefs)."""
    return {
        name: TrackFMCompiler(config).compile(generate_module(seed)).module
        for name, config in (
            ("compiled", CompilerConfig()),
            ("chunk-all compiled", CompilerConfig(chunking=ChunkingPolicy.ALL)),
        )
    }


def _far_state(runtime: TrackFMRuntime) -> tuple:
    """What a compiled run left in its far runtime: ``Metrics.as_dict()``,
    the state-table cache's hits, misses and per-set LRU order, and the
    residency set's order with CLOCK hot bits, dirty and pinned sets."""
    cache = runtime.table.cache
    residency = runtime.pool.residency
    return (
        runtime.metrics.as_dict(),
        (cache.stats.hits, cache.stats.misses),
        {index: list(tags) for index, tags in cache._sets.items()},
        list(residency._resident.items()),
        sorted(residency._dirty),
        dict(residency._pinned),
    )


def _limited_run(module, far, seed: int, engine: str, max_steps: int) -> tuple:
    """Everything a run observably did, under a step limit.

    ``far`` names the :data:`FAR_RUNTIMES` runtime to run ``module`` on
    (None: the plain interpreter), and adds its :func:`_far_state`.
    """
    if far is not None:
        runtime = far_runtime(fault_seed=seed, kind=far)
        program = TrackFMProgram(module, runtime, max_steps=max_steps, engine=engine)
        interp, run = program.interp, program.run
    else:
        interp = Interpreter(module, max_steps=max_steps, engine=engine)
        run = interp.run
    blocks = []
    interp.block_hook = lambda func, name: blocks.append((func.name, name))
    try:
        outcome = ("value", run("main").value)
    except InterpError as exc:
        outcome = ("error", str(exc))
    regions = [(r.start, bytes(r.data)) for r in interp.memory.regions()]
    state = _far_state(runtime) if far is not None else None
    return outcome, interp.steps, blocks, interp.output, regions, state


class TestFaultedDifferential:
    """A small always-on slice of the fault-injected differential.

    The full corpus only runs faulted when ``REPRO_FUZZ_FAULT_RATE`` is
    set (nightly); these pinned seeds keep the retry path exercised on
    every PR run regardless.
    """

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_low_rate_faults_do_not_change_values(self, seed):
        raw = generate_module(seed)
        expected = Interpreter(raw, max_steps=5_000_000).run("main").value
        module = generate_module(seed)
        compiled = TrackFMCompiler(CompilerConfig(verify_guards=True)).compile(module)
        got = far_run(compiled.module, fault_rate=0.02, fault_seed=seed)
        assert got == expected, (
            f"seed {seed}: faulted far-memory run returned {got}, raw "
            f"interpreter returned {expected}"
        )

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_low_rate_faults_do_not_change_adaptive_values(self, seed):
        raw = generate_module(seed)
        expected = Interpreter(raw, max_steps=5_000_000).run("main").value
        module = generate_module(seed)
        compiled = TrackFMCompiler(CompilerConfig(verify_guards=True)).compile(module)
        got = adaptive_far_run(compiled.module, fault_rate=0.02, fault_seed=seed)
        assert got == expected, (
            f"seed {seed}: faulted adaptive-hybrid run returned {got}, "
            f"raw interpreter returned {expected}"
        )


class TestCorruptedDifferential:
    """A small always-on slice of the corruption-injected differential.

    The full corpus only runs corrupted when ``REPRO_FUZZ_CORRUPT_RATE``
    is set (nightly); these pinned seeds keep the detect → repair path
    exercised on every PR run regardless.
    """

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_low_rate_corruption_does_not_change_values(self, seed):
        raw = generate_module(seed)
        expected = Interpreter(raw, max_steps=5_000_000).run("main").value
        module = generate_module(seed)
        compiled = TrackFMCompiler(CompilerConfig(verify_guards=True)).compile(module)
        got = far_run(compiled.module, fault_rate=0.0, fault_seed=seed, corrupt_rate=0.02)
        assert got == expected, (
            f"seed {seed}: corruption-injected far-memory run returned "
            f"{got}, raw interpreter returned {expected}"
        )

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_low_rate_corruption_does_not_change_adaptive_values(self, seed):
        raw = generate_module(seed)
        expected = Interpreter(raw, max_steps=5_000_000).run("main").value
        module = generate_module(seed)
        compiled = TrackFMCompiler(CompilerConfig(verify_guards=True)).compile(module)
        got = adaptive_far_run(
            compiled.module, fault_rate=0.0, fault_seed=seed, corrupt_rate=0.02
        )
        assert got == expected, (
            f"seed {seed}: corruption-injected adaptive-hybrid run "
            f"returned {got}, raw interpreter returned {expected}"
        )
