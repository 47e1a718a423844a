"""The differential fuzzer over the values the code generator's facts reason about.

``tests.irgen.generate_module(seed, facts=True)`` adds ``and``/``or``
masks of both signs, ``sdiv``/``srem`` by divisors of both signs
(``INT64_MIN / -1`` included), round trips through i8/i16/i32
arithmetic, a helper whose arguments no fact bounds, and loops counting
up to ``INT64_MAX`` whose ``v + 1`` stays in range and whose ``v + 2``
wraps.  Each seed's program runs raw and compiled (as the pipeline
chooses, and with every loop chunked) on both interpreter engines and,
compiled, on every runtime of
:data:`~tests.test_fuzz_differential.FAR_RUNTIMES`.  Value, steps,
output and far state must agree between the engines, also when
``max_steps`` cuts a run short, and every compiled value must be the raw
one.  Tier-1 runs the default 50 seeds; the nightly fuzz workflow
runs 500 (``REPRO_FUZZ_SEEDS``).

The soundness check runs on this corpus and on the five NAS kernels:
on the legacy engine (which computes every value without the facts),
every slot :func:`repro.sim.facts.value_facts` marks as an ``int`` or
as an ``int`` in the signed 64-bit range holds one at each of its
definitions, and every op whose wrap the facts drop computes an
in-range result before its wrap.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.compiler import CompilerConfig, TrackFMCompiler
from repro.ir.values import Constant, UndefValue
from repro.sim import interpreter
from repro.sim.decode import OP_BR, OP_CONDBR, OP_RAISE, OP_RET, OP_STORE, decode_module
from repro.sim.facts import INT, INT64, value_facts
from repro.sim.irrun import TrackFMProgram
from repro.workloads import nas_kernels

from irgen import MAX64, MIN64, generate_module
from test_fuzz_differential import SEEDS, far_runtime
from test_fuzz_heap import (
    CONFIGS,
    agree_across_engines_and_runtimes,
    stop_both_engines_at_the_same_op,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "host"))
from workloads import OBJECT_SIZE  # noqa: E402

@pytest.mark.parametrize("seed", SEEDS)
def test_facts_programs_agree_across_engines_and_runtimes(seed):
    agree_across_engines_and_runtimes(seed, "facts")


@pytest.mark.parametrize("seed", SEEDS)
def test_facts_programs_stop_both_engines_at_the_same_op(seed):
    stop_both_engines_at_the_same_op(seed, "facts")


# -- soundness of the facts ------------------------------------------------------


def _srem(a: int, b: int) -> int:
    """The legacy engine's ``srem`` before its wrap."""
    q = abs(a) // abs(b)
    return a - (-q if (a < 0) != (b < 0) else q) * b


#: What an op whose wrap the facts drop computes before the wrap.
_UNWRAPPED = {
    "add": lambda a, b: a + b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "srem": _srem,
}


def _claims(module) -> dict:
    """IR value -> ``(kind, unwrapped)`` for every value a decoded slot
    of ``module`` holds that the facts mark an ``int``, or whose op's
    wrap they drop.  A block's ops are its non-phi instructions in
    order; a branch's copies write its target's phis in order."""
    claims = {}
    for df in decode_module(module).functions.values():
        facts = value_facts(df)
        blocks = df.func.blocks
        for block, ops in zip(blocks, df.blocks):
            for inst, op in zip(block.instructions[len(block.phis()):], ops):
                if op[0] == OP_BR:
                    edges = [op[1:4]]
                elif op[0] == OP_CONDBR:
                    edges = [op[2:5], op[5:8]]
                else:
                    edges = []
                    if op[0] not in (OP_STORE, OP_RET, OP_RAISE) and op[1] is not None:
                        claims[inst] = (facts.kinds[op[1]], id(op) in facts.unwrapped)
                for target, dests, _srcs in edges:
                    if target < len(blocks):
                        for phi, dst in zip(blocks[target].phis(), dests):
                            claims[phi] = (facts.kinds[dst], False)
    return {value: claim for value, claim in claims.items() if claim != (0, False)}


def _checking_frame(claims: dict, seen: dict):
    """A legacy-engine frame whose environment checks every claim at
    each definition it records, and counts the checks in ``seen``."""

    def operand(env, value):
        if isinstance(value, Constant):
            return value.value
        return 0 if isinstance(value, UndefValue) else env[value]

    class Env(dict):
        def __setitem__(self, key, value):
            claim = claims.get(key)
            if claim is not None:
                kind, unwrapped = claim
                assert kind < INT or type(value) is int, (key.short(), value)
                assert kind < INT64 or MIN64 <= value <= MAX64, (key.short(), value)
                if unwrapped:
                    raw = _UNWRAPPED[key.opcode](*(operand(self, v) for v in key.operands))
                    assert MIN64 <= raw <= MAX64, (key.short(), raw)
                seen[claim] = seen.get(claim, 0) + 1
            dict.__setitem__(self, key, value)

    class Frame(interpreter._Frame):
        __slots__ = ()

        def __init__(self, func):
            super().__init__(func)
            self.env = Env()

    return Frame


def _check(monkeypatch, module, run) -> tuple:
    """Call ``run`` (a run of ``module`` on the legacy engine) with every
    claim of the facts checked; returns what it returned and how many
    checks held, by claim."""
    seen: dict = {}
    monkeypatch.setattr(interpreter, "_Frame", _checking_frame(_claims(module), seen))
    try:
        return run(), seen
    finally:
        monkeypatch.undo()


def test_the_facts_hold_at_every_definition_on_the_facts_corpus(monkeypatch):
    seen: dict = {}
    for seed in SEEDS:
        raw = generate_module(seed, facts=True)
        modules = [raw] + [
            TrackFMCompiler(config).compile(generate_module(seed, facts=True)).module
            for config in CONFIGS.values()
        ]
        for module in modules:
            program = TrackFMProgram(module, far_runtime(kind="clock"), engine="legacy")
            for claim, n in _check(monkeypatch, module, lambda: program.run("main"))[1].items():
                seen[claim] = seen.get(claim, 0) + n
    # Every kind of claim was made and held: ints, in-range ints, and
    # in-range results before a dropped wrap.
    assert {(INT, False), (INT64, False), (INT64, True)} <= set(seen), seen


@pytest.mark.parametrize("kernel", sorted(nas_kernels.KERNELS))
def test_the_facts_hold_at_every_definition_on_the_nas_kernels(monkeypatch, kernel):
    build, reference = nas_kernels.KERNELS[kernel]
    compiled = TrackFMCompiler(CompilerConfig(object_size=OBJECT_SIZE)).compile(build()).module
    for module in (build(), compiled):
        program = TrackFMProgram(module, far_runtime(kind="clock"), engine="legacy")
        value, seen = _check(monkeypatch, module, lambda: program.run("main").value)
        assert value == reference()
        assert seen.get((INT64, True)), seen
