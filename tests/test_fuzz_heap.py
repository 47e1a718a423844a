"""The differential fuzzer over programs that free and re-map heap memory.

``tests.irgen.generate_module(seed, heap=True)`` adds a heap buffer that
the main loop reads and writes, then ``realloc``s or ``free``s and
``malloc``s again, every iteration, and a callee with stack slots called
from the loop: each iteration's first access to the buffer meets memory
unmapped since the last one, and under TrackFM a freed offset comes back
as new bytes at the same twin address.  Each seed's program runs raw and
compiled (as the pipeline chooses, and with every loop chunked) on both
interpreter engines and, compiled, on every runtime of
:data:`~tests.test_fuzz_differential.FAR_RUNTIMES`.  Value, steps,
output and far state must agree between the engines, also when
``max_steps`` cuts a run short, and every compiled value must be the raw
one.  The PR gate runs the default 50 seeds; the nightly fuzz workflow
runs 500 (``REPRO_FUZZ_SEEDS``).
"""

from __future__ import annotations

import random

import pytest

from repro.compiler import ChunkingPolicy, CompilerConfig, TrackFMCompiler
from repro.sim.interpreter import Interpreter
from repro.sim.irrun import TrackFMProgram

from irgen import generate_module
from test_fuzz_differential import FAR_RUNTIMES, SEEDS, _far_state, _limited_run, far_runtime

CONFIGS = {
    "compiled": CompilerConfig(verify_guards=True),
    "chunk-all compiled": CompilerConfig(chunking=ChunkingPolicy.ALL, verify_guards=True),
}


def agree_across_engines_and_runtimes(seed: int, mode: str) -> None:
    """The ``generate_module(seed, <mode>=True)`` program, raw and as
    :data:`CONFIGS` compile it, agrees between the engines on every far
    runtime, and every compiled value is the raw one."""
    program = {mode: True}
    again = f"reproduce with tests.irgen.generate_module({seed}, {mode}=True)"
    raw = {}
    for engine in ("legacy", "decoded"):
        result = Interpreter(generate_module(seed, **program), engine=engine).run("main")
        raw[engine] = (result.value, result.steps, result.output)
    assert raw["decoded"] == raw["legacy"], (
        f"seed {seed}: raw {mode} program differs between engines; {again}"
    )
    expected = raw["legacy"][0]
    for name, config in CONFIGS.items():
        module = TrackFMCompiler(config).compile(generate_module(seed, **program)).module
        for kind in FAR_RUNTIMES:
            runs = {}
            for engine in ("legacy", "decoded"):
                runtime = far_runtime(fault_seed=seed, kind=kind)
                result = TrackFMProgram(module, runtime, engine=engine).run("main")
                runs[engine] = (result.value, result.steps, result.output) + _far_state(runtime)
            assert runs["decoded"] == runs["legacy"], (
                f"seed {seed}: {name} {mode} program on the {kind} runtime differs "
                f"between engines; {again}"
            )
            assert runs["legacy"][0] == expected, (
                f"seed {seed}: {name} {mode} program on the {kind} runtime returned "
                f"{runs['legacy'][0]}, the raw program {expected}"
            )


def stop_both_engines_at_the_same_op(seed: int, mode: str) -> None:
    """Limits of 1, total - 1, total and 5 drawn ones stop both engines
    at the same op, on the raw ``generate_module(seed, <mode>=True)``
    program and on its chunk-all module on the CLOCK runtime."""
    program = {mode: True}
    chunked = TrackFMCompiler(CONFIGS["chunk-all compiled"]).compile(
        generate_module(seed, **program)
    ).module
    for name, module, far in (
        ("raw", generate_module(seed, **program), None),
        ("chunk-all compiled on clock", chunked, "clock"),
    ):
        total = _limited_run(module, far, seed, "legacy", 5_000_000)[1]
        rng = random.Random(seed)
        limits = [1, total - 1, total] + sorted(rng.randrange(2, total - 1) for _ in range(5))
        for limit in limits:
            legacy = _limited_run(module, far, seed, "legacy", limit)
            decoded = _limited_run(module, far, seed, "decoded", limit)
            assert decoded == legacy, (
                f"seed {seed}: {name} {mode} program at max_steps={limit} differs "
                f"between engines; reproduce with "
                f"tests.irgen.generate_module({seed}, {mode}=True)"
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_heap_programs_agree_across_engines_and_runtimes(seed):
    agree_across_engines_and_runtimes(seed, "heap")


@pytest.mark.parametrize("seed", SEEDS)
def test_heap_programs_stop_both_engines_at_the_same_op(seed):
    stop_both_engines_at_the_same_op(seed, "heap")
