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
  pair, a zero divisor and the minimum divided by -1;
* a value fact (:mod:`repro.sim.facts`) may drop an ``int()`` or a wrap
  only where neither can change the result: not for an argument or a
  phi that may hold anything, not after an ``add``, ``sub``, ``mul`` or
  ``sdiv`` of in-range operands, and not after ``x + c`` unless ``c`` is
  0 or 1 and the true edge of ``x < b`` is the only way into the code.
"""

from __future__ import annotations

import pytest

from repro.compiler import ChunkingPolicy, CompilerConfig, TrackFMCompiler
from repro.errors import InterpError, SegmentationFault
from repro.ir import IRBuilder, F64, I32, I64, PTR, VOID, Module
from repro.ir.values import Constant
from repro.sim.decode import decode_module
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


# -- value facts --------------------------------------------------------------

MIN64, MAX64 = _BOUNDS[64]


def _agree(module, entry: str = "main", args=()) -> tuple:
    """``entry(args)`` on both engines on a TrackFM runtime: the outcome,
    steps, output and metrics must be equal; returns the outcome."""
    runs = {}
    for engine in ENGINES:
        runtime = far_runtime()
        program = TrackFMProgram(module, runtime, engine=engine)
        outcome = _outcome(program.interp, lambda _main: program.run(entry, list(args)))
        runs[engine] = outcome + (runtime.metrics.as_dict(),)
    assert runs["decoded"] == runs["legacy"], (entry, args)
    return runs["legacy"][0]


def _wraps(module, name: str) -> int:
    """The 64-bit wrap tests in ``@name``'s generated source."""
    source = decode_module(module).functions[name].source
    return source.count(f"if not {MIN64} <=")


def _loaded(b, f, n: int) -> list:
    """``f``'s first ``n`` arguments stored and loaded back: the same
    values, known to be in range."""
    slot = b.alloca(8 * n)
    out = []
    for k in range(n):
        b.store(f.args[k], b.gep(slot, k, 8))
        out.append(b.load(I64, b.gep(slot, k, 8)))
    return out


_BINOPS = ("add", "sub", "mul", "and_", "or_", "xor")


@pytest.mark.parametrize("op", _BINOPS)
def test_only_bitwise_ops_of_in_range_operands_drop_their_wrap(op):
    # Loaded operands are in range: ``and``/``or``/``xor`` are closed
    # there, ``add``/``sub``/``mul`` overflow at the extremes.
    module = Module()
    f = module.add_function("op", I64, [I64, I64], ["a", "b"])
    b = IRBuilder(f.add_block("entry"))
    b.ret(getattr(b, op)(*_loaded(b, f, 2)))
    assert _wraps(module, "op") == (0 if op in ("and_", "or_", "xor") else 1)
    for x in _operands(64):
        for y in _operands(64):
            _agree(module, "op", [x, y])


@pytest.mark.parametrize("op", _BINOPS)
def test_an_argument_of_unknown_range_keeps_every_wrap(op):
    # An argument may hold any int: ``and`` with a negative constant
    # keeps its high bits, so the result still wraps.
    module = Module()
    f = module.add_function("op", I64, [I64], ["a"])
    b = IRBuilder(f.add_block("entry"))
    b.ret(getattr(b, op)(f.args[0], -8))
    assert _wraps(module, "op") == 1
    for x in (MAX64 + 1, (1 << 64) + 5, MIN64 - 9, -(1 << 70)):
        _agree(module, "op", [x])


@pytest.mark.parametrize("op", ["sdiv", "srem"])
def test_srem_of_in_range_operands_drops_its_wrap_and_sdiv_keeps_it(op):
    module = Module()
    f = module.add_function("div", I64, [I64, I64], ["a", "b"])
    b = IRBuilder(f.add_block("entry"))
    b.ret(getattr(b, op)(*_loaded(b, f, 2)))
    assert _wraps(module, "div") == (1 if op == "sdiv" else 0)
    # Only the stores of the two arguments convert.
    assert decode_module(module).functions["div"].source.count("int(") == 2
    want = MIN64 if op == "sdiv" else 0
    assert _agree(module, "div", [MIN64, -1]) == ("value", want)
    for x in _operands(64):
        for y in _operands(64):
            _agree(module, "div", [x, y])


def _bounded_add(pred: str, step: int, *, true_edge: bool = True, join: bool = False):
    """``@bump(x, b)``: ``x + step`` where ``x <pred> b`` sent the branch
    (the true edge, or with ``true_edge=False`` the false one), both
    loaded; the other edge returns 0.  With ``join`` a ``b`` of 0 enters
    the add's block past the test."""
    module = Module()
    f = module.add_function("bump", I64, [I64, I64], ["x", "b"])
    entry, test = f.add_block("entry"), f.add_block("test")
    body, out = f.add_block("body"), f.add_block("out")
    b = IRBuilder(entry)
    x, bound = _loaded(b, f, 2)
    if join:
        past = f.add_block("past")
        b.condbr(b.icmp("eq", bound, 0), past, test)
        b.set_block(past)
    b.br(test if not join else body)
    b.set_block(test)
    c = b.icmp(pred, x, bound)
    b.condbr(c, *((body, out) if true_edge else (out, body)))
    b.set_block(body)
    b.ret(b.add(x, step))
    b.set_block(out)
    b.ret(0)
    return module


def test_x_plus_one_under_x_below_the_maximum_drops_its_wrap():
    module = _bounded_add("slt", 1)
    assert _wraps(module, "bump") == 0
    assert _agree(module, "bump", [MAX64 - 1, MAX64]) == ("value", MAX64)
    assert _agree(module, "bump", [MAX64, MAX64]) == ("value", 0)
    assert _agree(module, "bump", [MIN64, MIN64 + 1]) == ("value", MIN64 + 1)


@pytest.mark.parametrize("case", ["step 2", "sle", "false edge", "join"])
def test_x_plus_c_keeps_its_wrap_unless_the_bound_covers_it(case):
    # Each program reaches ``x + c`` with x = INT64_MAX - 1 or INT64_MAX,
    # where the sum overflows.
    module = {
        "step 2": lambda: _bounded_add("slt", 2),
        "sle": lambda: _bounded_add("sle", 1),
        "false edge": lambda: _bounded_add("slt", 1, true_edge=False),
        "join": lambda: _bounded_add("slt", 1, join=True),
    }[case]()
    assert _wraps(module, "bump") == 1
    x, bound = {"step 2": (MAX64 - 1, MAX64), "sle": (MAX64, MAX64),
                "false edge": (MAX64, MAX64), "join": (MAX64, 0)}[case]
    assert _agree(module, "bump", [x, bound]) == ("value", MIN64)


def test_a_branch_back_to_the_entry_bounds_nothing():
    # The entry block runs first without the back edge: ``x + 1`` in it
    # overflows on the first pass, before ``x < 0`` is ever tested.
    module = Module()
    module.add_global("cell", 8)
    init = module.add_function("init", VOID, [I64], ["v"])
    b = IRBuilder(init.add_block("entry"))
    b.store(init.args[0], b.call(PTR, "global_addr.cell"))
    b.ret()
    f = module.add_function("main", I64)
    entry, exit_ = f.add_block("entry"), f.add_block("exit")
    b = IRBuilder(entry)
    cell = b.call(PTR, "global_addr.cell")
    x = b.load(I64, cell)
    y = b.add(x, 1)
    b.store(y, cell)
    b.condbr(b.icmp("slt", x, 0), entry, exit_)
    b.set_block(exit_)
    b.ret(y)
    assert _wraps(module, "main") == 1
    runs = {}
    for engine in ENGINES:
        runtime = far_runtime()
        program = TrackFMProgram(module, runtime, engine=engine)
        program.run("init", [MAX64])
        result = program.run("main")
        runs[engine] = (result.value, result.steps, runtime.metrics.as_dict())
    assert runs["decoded"] == runs["legacy"]
    assert runs["legacy"][0] == MIN64


def test_a_float_reaching_an_integer_store_through_a_phi_is_converted():
    # ``v`` is an argument, so the phi may hold a float: the store
    # converts it with ``int()`` as the legacy engine does.
    module = Module()
    f = module.add_function("put", I64, [I64], ["v"])
    entry, loop, exit_ = f.add_block("entry"), f.add_block("loop"), f.add_block("exit")
    b = IRBuilder(entry)
    slot = b.alloca(16)
    b.br(loop)
    b.set_block(loop)
    x, i = b.phi(I64, "x"), b.phi(I64, "i")
    b.store(x, b.gep(slot, i, 8))
    i2 = b.add(i, 1)
    b.condbr(b.icmp("slt", i2, 2), loop, exit_)
    for phi, start, again in ((x, f.args[0], Constant(I64, 7)), (i, Constant(I64, 0), i2)):
        phi.add_incoming(start, entry)
        phi.add_incoming(again, loop)
    b.set_block(exit_)
    b.ret(b.add(b.load(I64, slot), b.load(I64, b.gep(slot, 1, 8))))
    source = decode_module(module).functions["put"].source
    assert source.count("int(") == 1
    assert _agree(module, "put", [2.5]) == ("value", 9)
    assert _agree(module, "put", [MAX64 + 3]) == ("value", MIN64 + 9)
