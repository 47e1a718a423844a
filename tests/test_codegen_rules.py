"""The generated code's memory spans, posted hit counts and division,
each against the legacy engine.

Code generated by :mod:`repro.sim.codegen` keeps each load or store
site's region span in frame locals and drops every span after a call or
a block hook; it counts inline guard and deref hits in frame locals and
posts them before every call, return and hook; and it divides with
``//`` when both signs are known.  Each test here fails on a generator
that breaks one of those rules:

* a site whose region a call or the block hook unmaps, and maps again
  at the same address, must read the new bytes or fault where the
  legacy engine faults, and a store still converts its value before it
  looks its address up;
* a block hook, a fault and a run cut short by ``max_steps`` must see
  the legacy engine's ``accesses``, guard counts, cycles and state-table
  cache counters;
* ``sdiv``/``srem`` must agree with the legacy engine on every sign
  pair, a zero divisor and the minimum divided by -1.
"""

from __future__ import annotations

import pytest

from repro.compiler import ChunkingPolicy, CompilerConfig, TrackFMCompiler
from repro.errors import InterpError, SegmentationFault
from repro.ir import IRBuilder, F64, I32, I64, PTR, VOID, Module
from repro.ir.values import Constant
from repro.sim.interpreter import Interpreter
from repro.sim.irrun import TrackFMProgram
from repro.workloads import nas_kernels

from irgen import generate_module
from test_fuzz_differential import _far_state, far_runtime

ENGINES = ("legacy", "decoded")

#: Rounds of the loop whose load site meets a region unmapped between them.
ROUNDS = 3

#: How a round ends: name -> (runs on a TrackFM runtime, the site faults).
UNMAPS = {
    "free": (False, True),
    "realloc": (False, True),
    "internal free": (False, True),
    "callee alloca": (False, True),
    "tfm_free": (True, False),
    "internal tfm_free": (True, False),
    "tfm_realloc": (True, True),
}


def _unmap_module(how: str) -> Module:
    """``ROUNDS`` rounds of ``v = load p`` (the site), each recording the
    address it loads from and then unmapping ``p``'s region as ``how``
    says; no other call runs between the unmapping and the next round's
    site.  The exit prints the recorded addresses.

    A libc address is never mapped again, so its next round faults.  A
    callee's alloca is unmapped when the callee returns, and the stack
    never reuses an address: a site can only fault on it.  ``tfm_free``
    followed by ``tfm_malloc`` of the same size maps new bytes at the
    same twin address, written with ``100 + round``; after
    ``tfm_realloc`` the old pointer's twin is unmapped.
    """
    tfm = UNMAPS[how][0]
    m = Module(f"unmap_{how.replace(' ', '_')}")
    size = Constant(I64, 16)

    def alloc(b, value):
        if not tfm:
            p = b.call(PTR, "malloc", [size])
            b.store(value, p)
            return p
        p = b.call(PTR, "tfm_malloc", [size])
        b.store(value, b.call(PTR, "tfm_guard_write", [p]))
        return p

    if how == "internal free":
        f = m.add_function("release", VOID, [PTR], ["x"])
        b = IRBuilder(f.add_block("entry"))
        b.call(VOID, "free", [f.args[0]])
        b.ret()
    elif how == "internal tfm_free":
        f = m.add_function("renew", PTR, [PTR, I64], ["x", "round"])
        b = IRBuilder(f.add_block("entry"))
        b.call(VOID, "tfm_free", [f.args[0]])
        b.ret(alloc(b, b.add(f.args[1], 100)))
    elif how == "callee alloca":
        f = m.add_function("leak", I64, [I64], ["round"])
        b = IRBuilder(f.add_block("entry"))
        slot = b.alloca(16)
        b.store(f.args[0], slot)
        b.ret(b.ptrtoint(slot))

    m.add_global("trace", 8 * ROUNDS)
    f = m.add_function("main", I64)
    entry, loop, exit_ = f.add_block("entry"), f.add_block("loop"), f.add_block("exit")
    b = IRBuilder(entry)
    trace = b.call(PTR, "global_addr.trace")
    first = alloc(b, Constant(I64, 7))
    b.br(loop)
    b.set_block(loop)
    i, p, acc = b.phi(I64, "i"), b.phi(PTR, "p"), b.phi(I64, "acc")
    # A guard hit calls nothing, and neither does a global's address.
    addr = b.call(PTR, "tfm_guard_read", [p]) if tfm else p
    v = b.load(I64, addr)  # the site
    b.store(b.ptrtoint(addr), b.gep(trace, i, 8))
    acc2 = b.add(acc, v)
    nxt = p
    if how == "free":
        b.call(VOID, "free", [p])
    elif how == "realloc":
        b.call(PTR, "realloc", [p, Constant(I64, 32)])
    elif how == "internal free":
        b.call(VOID, "release", [p])
    elif how == "callee alloca":
        nxt = b.inttoptr(b.call(I64, "leak", [i]))
    elif how == "tfm_free":
        b.call(VOID, "tfm_free", [p])
        nxt = alloc(b, b.add(i, 100))
    elif how == "internal tfm_free":
        nxt = b.call(PTR, "renew", [p, i])
    else:
        b.call(PTR, "tfm_realloc", [p, size])
    i2 = b.add(i, 1)
    b.condbr(b.icmp("slt", i2, ROUNDS), loop, exit_)
    zero = Constant(I64, 0)
    for phi, start, again in ((i, zero, i2), (p, first, nxt), (acc, zero, acc2)):
        phi.add_incoming(start, entry)
        phi.add_incoming(again, loop)
    b.set_block(exit_)
    for r in range(ROUNDS):
        b.call(VOID, "print_i64", [b.load(I64, b.gep(trace, Constant(I64, r), 8))])
    b.ret(acc2)
    return m


def _outcome(interp, run) -> tuple:
    """What a run observably did: its value or error, steps and output."""
    try:
        outcome = ("value", run("main").value)
    except InterpError as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, interp.steps, list(interp.output)


@pytest.mark.parametrize("how", list(UNMAPS))
def test_a_site_meets_its_region_unmapped_and_mapped_again(how):
    tfm, faults = UNMAPS[how]
    runs = {}
    for engine in ENGINES:
        module = _unmap_module(how)
        if tfm:
            runtime = far_runtime(kind="clock")
            program = TrackFMProgram(module, runtime, engine=engine)
            runs[engine] = _outcome(program.interp, program.run) + (
                runtime.metrics.as_dict(), runtime.table.cache.stats.hits)
        else:
            interp = Interpreter(module, engine=engine)
            runs[engine] = _outcome(interp, interp.run)
    assert runs["decoded"] == runs["legacy"]
    outcome, _steps, output = runs["legacy"][:3]
    if faults:
        assert outcome[0] == SegmentationFault.__name__, outcome
    else:
        # Every round loads from the same twin address, each time the
        # bytes the round before wrote there.
        assert len(set(output)) == 1 and len(output) == ROUNDS, output
        assert outcome == ("value", 7 + sum(100 + r for r in range(ROUNDS - 1)))


def test_a_site_meets_its_region_renewed_by_the_block_hook():
    # A hook is the one caller that runs between a frame's blocks: here
    # it maps new bytes where the loop's buffer was, once, mid-loop.
    m = Module()
    f = m.add_function("main", I64)
    entry, loop, exit_ = f.add_block("entry"), f.add_block("loop"), f.add_block("exit")
    b = IRBuilder(entry)
    p = b.call(PTR, "malloc", [Constant(I64, 16)])
    b.store(Constant(I64, 7), p)
    b.br(loop)
    b.set_block(loop)
    i, acc = b.phi(I64, "i"), b.phi(I64, "acc")
    acc2 = b.add(acc, b.load(I64, p))  # the site
    i2 = b.add(i, 1)
    b.condbr(b.icmp("slt", i2, ROUNDS), loop, exit_)
    for phi, again in ((i, i2), (acc, acc2)):
        phi.add_incoming(Constant(I64, 0), entry)
        phi.add_incoming(again, loop)
    b.set_block(exit_)
    b.ret(acc2)
    got = {}
    for engine in ENGINES:
        interp = Interpreter(m, engine=engine)
        visits = []

        def hook(func, name, interp=interp, visits=visits):
            visits.append(name)
            if visits.count("loop") == 2:
                start = interp.memory.regions()[-1].start
                interp.memory.unmap(start)
                interp.memory.map_region(start, 16)
                interp.memory.write_bytes(start, (100).to_bytes(8, "little"))

        interp.block_hook = hook
        got[engine] = _outcome(interp, interp.run)
    assert got["decoded"] == got["legacy"]
    assert got["legacy"][0] == ("value", 7 + 100 * (ROUNDS - 1))


@pytest.mark.parametrize("ty, value, error", [
    (I64, float("nan"), ValueError),
    (F64, 1 << 2000, OverflowError),
    (PTR, -5, OverflowError),
], ids=["i64", "f64", "ptr"])
def test_a_store_converts_its_value_before_it_checks_the_address(ty, value, error):
    m = Module()
    f = m.add_function("put", I64, [ty], ["v"])
    b = IRBuilder(f.add_block("entry"))
    b.store(f.args[0], b.inttoptr(Constant(I64, 0x1234)))  # mapped nowhere
    b.ret(Constant(I64, 0))
    for engine in ENGINES:
        interp = Interpreter(m, engine=engine)
        with pytest.raises(error):
            interp.run("put", [value])
        assert interp.steps == 2, engine


def test_a_fault_after_inline_hits_leaves_them_booked():
    # Two guard hits, then a load from an address nothing maps: the
    # fault leaves the frame with the hits counted and not yet posted.
    m = Module()
    f = m.add_function("main", I64)
    b = IRBuilder(f.add_block("entry"))
    p = b.call(PTR, "tfm_malloc", [Constant(I64, 16)])
    b.store(Constant(I64, 1), b.call(PTR, "tfm_guard_write", [p]))
    v = b.load(I64, b.call(PTR, "tfm_guard_read", [p]))
    b.store(v, b.call(PTR, "tfm_guard_write", [p]))
    b.ret(b.load(I64, b.inttoptr(Constant(I64, 0x1234))))
    runs = {}
    for engine in ENGINES:
        runtime = far_runtime(kind="clock")
        program = TrackFMProgram(m, runtime, engine=engine)
        runs[engine] = _outcome(program.interp, program.run) + (
            runtime.metrics.as_dict(), runtime.table.cache.stats.hits)
    assert runs["decoded"] == runs["legacy"]
    assert runs["legacy"][0][0] == SegmentationFault.__name__
    assert runs["legacy"][3]["guards"]["fast"] == 2


def _cut_short(module, kind: str, engine: str, max_steps: int) -> tuple:
    """A run stopped by ``max_steps``, with no block hook: what it left."""
    runtime = far_runtime(kind=kind)
    program = TrackFMProgram(module, runtime, max_steps=max_steps, engine=engine)
    return _outcome(program.interp, program.run) + _far_state(runtime)


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_a_run_cut_short_without_a_hook_leaves_every_hit_booked(seed):
    # Without a hook nothing posts the counts at a block's start, so a
    # segment that crosses ``max_steps`` meets hits not yet posted.
    module = TrackFMCompiler(CompilerConfig(chunking=ChunkingPolicy.ALL)).compile(
        generate_module(seed)).module
    total = _cut_short(module, "clock", "legacy", 5_000_000)[1]
    for limit in range(total // 7, total, total // 7):
        legacy = _cut_short(module, "clock", "legacy", limit)
        assert legacy[0][0] == "InterpError"
        assert _cut_short(module, "clock", "decoded", limit) == legacy, limit


def _hooked_run(module, kind: str, engine: str) -> list:
    """Every block the run enters, with what its metrics and state-table
    cache read when the hook saw it."""
    runtime = far_runtime(kind=kind)
    program = TrackFMProgram(module, runtime, max_steps=5_000_000, engine=engine)
    metrics, stats = runtime.metrics, runtime.table.cache.stats
    seen = []

    def hook(func, name):
        guards = sorted((k.value, n) for k, n in metrics.guards.items())
        seen.append((func.name, name, metrics.accesses, guards, metrics.cycles,
                     stats.hits, stats.misses))

    program.interp.block_hook = hook
    program.run("main")
    return seen


def _hook_modules():
    """Fuzz programs with every loop chunked (guards and derefs), and two
    NAS kernels at a small size."""
    chunk_all = CompilerConfig(chunking=ChunkingPolicy.ALL)
    for seed in (0, 3, 8):
        yield f"seed {seed}", TrackFMCompiler(chunk_all).compile(generate_module(seed)).module
    for kernel, sizes in (("CG", (32, 4)), ("IS", (128, 16))):
        module = nas_kernels.KERNELS[kernel][0](*sizes)
        yield kernel, TrackFMCompiler(CompilerConfig(object_size=256)).compile(module).module


@pytest.mark.parametrize("kind", ["clock", "lru"])
def test_a_block_hook_sees_the_legacy_engines_counts(kind):
    booked = set()
    for name, module in _hook_modules():
        legacy = _hooked_run(module, kind, "legacy")
        decoded = _hooked_run(module, kind, "decoded")
        assert len(decoded) == len(legacy), name
        for i, (got, want) in enumerate(zip(decoded, legacy)):
            assert got == want, f"{name}: block {i} of {len(legacy)}"
        booked |= {k for k, _n in legacy[-1][3]}
    # The runs booked guard and deref hits.
    assert {"fast", "boundary"} <= booked, booked


_BOUNDS = {64: (-(1 << 63), (1 << 63) - 1), 32: (-(1 << 31), (1 << 31) - 1)}


def _operands(bits: int) -> list:
    lo, hi = _BOUNDS[bits]
    return [lo, lo + 1, -7, -2, -1, 0, 1, 2, 7, hi - 1, hi]


@pytest.mark.parametrize("op", ["sdiv", "srem"])
@pytest.mark.parametrize("ty", [I64, I32], ids=["i64", "i32"])
def test_division_agrees_with_the_legacy_engine(op, ty):
    module = Module()
    f = module.add_function("div", ty, [ty, ty], ["a", "b"])
    b = IRBuilder(f.add_block("entry"))
    b.ret(getattr(b, op)(f.args[0], f.args[1]))
    for a in _operands(ty.bits):
        for d in _operands(ty.bits):
            got = {}
            for engine in ENGINES:
                interp = Interpreter(module, engine=engine)
                try:
                    got[engine] = ("value", interp.run("div", [a, d]).value, interp.steps)
                except InterpError as exc:
                    got[engine] = ("error", str(exc), interp.steps)
            assert got["decoded"] == got["legacy"], (op, ty, a, d)
