"""Seeded random IR program generator for differential fuzzing.

``generate_module(seed)`` builds one self-contained *unoptimized-style*
program (locals in ``alloca`` stack slots, so the O1 pipeline has real
work to do) that exercises every shape the TrackFM pipeline transforms:

* a heap **data array** scanned and updated with data-dependent indices;
* a heap **chase array** holding in-range indices, walked pointer-chase
  style (``j = C[j]``) so addresses depend on loaded values;
* **branches** — a diamond inside the loop body, picked per iteration
  from the running state;
* **calls** — a generated helper function with baked-in constants.

With ``heap=True`` the main loop also works through a heap **buffer**
that it moves or renews every iteration: it loads and stores through
the buffer, then either calls a callee whose locals live in stack slots
and ``realloc``s the buffer (one iteration in three) or ``free``s it and
``malloc``s a new one.  Each iteration's first access goes to memory
unmapped since the last one, and after TrackFM's ``tfm_free`` the new
buffer takes the freed offset: new bytes at the same address.

With ``facts=True`` the loop body also works the values the code
generator's value facts (:mod:`repro.sim.facts`) reason about: ``and``/
``or`` masks of both signs, ``sdiv``/``srem`` by divisors of both signs
(``INT64_MIN / -1`` included), round trips through i8/i16/i32
arithmetic, calls to a helper whose arguments no fact bounds, and
short loops counting up to ``INT64_MAX`` whose ``v + 1`` stays in range
and whose ``v + 2`` wraps.

Everything is derived from ``random.Random(seed)`` at *build* time (the
buffer's and the value work's choices from generators of their own, so
``heap=False, facts=False`` programs do not change); the emitted IR is
deterministic, loop trips are bounded,
and all indices are reduced mod the array length, so any (seed,
pipeline) pair terminates with a defined result.  Differential tests
interpret the raw module and the fully compiled module and demand
identical values.
"""

from __future__ import annotations

import random

from repro.ir import IRBuilder, I64, PTR, VOID, IntType, Module
from repro.ir.values import Constant

#: Heap array length (elements); every index is taken mod this.
ARRAY_ELEMS = 64
ELEM = 8
#: Length of the ``heap=True`` buffer (elements).
BUFFER_ELEMS = 8

#: Body op kinds the generator draws from (weights roughly even, with
#: arithmetic slightly favoured so programs aren't all memory traffic).
_OP_KINDS = (
    "arith_x", "arith_x", "arith_y",
    "load_x", "load_y", "store_x", "store_y",
    "branch", "call", "chase",
)

_ARITH = ("add", "sub", "mul", "xor_")

MIN64 = -(1 << 63)
MAX64 = (1 << 63) - 1

#: ``facts=True``: masks of both signs, divisors (never 0), the narrow
#: widths, and the value work a body draws.
_MASKS = (0xFF, 0x7FFF_FFFF, MAX64, -8, -(1 << 40), MIN64)
_DIVISORS = (-1, 1, -3, 3, -7, 7, MIN64, MAX64)
_NARROW = (8, 16, 32)
_FACT_KINDS = ("mask", "narrow", "divide", "ranged", "near_max")


def _arith(b: IRBuilder, op: str, a, c):
    if op == "xor_":
        return b.xor(a, c)
    return getattr(b, op)(a, c)


def _build_helper(m: Module, rng: random.Random) -> str:
    """A pure two-argument helper with seed-chosen constants."""
    name = "mix"
    f = m.add_function(name, I64, [I64, I64], ["a", "b"])
    b = IRBuilder(f.add_block("entry"))
    k1 = rng.randrange(1, 17)
    k2 = rng.randrange(-64, 64)
    op = rng.choice(_ARITH)
    t = _arith(b, op, b.mul(f.args[0], k1), f.args[1])
    b.ret(b.add(t, k2))
    return name


def _build_scratch(m: Module, rng: random.Random) -> str:
    """A callee that mixes its two arguments through stack slots."""
    name = "scratch"
    f = m.add_function(name, I64, [I64, I64], ["a", "b"])
    b = IRBuilder(f.add_block("entry"))
    s1 = b.alloca(8, name="s1")
    s2 = b.alloca(8, name="s2")
    b.store(f.args[0], s1)
    b.store(f.args[1], s2)
    mixed = _arith(b, rng.choice(_ARITH), b.load(I64, s1), b.load(I64, s2))
    b.store(b.add(mixed, rng.randrange(-50, 51)), s2)
    b.ret(b.load(I64, s2))
    return name


def _mask(b: IRBuilder, rng: random.Random, x):
    """``x`` and-ed or or-ed with a mask of drawn sign."""
    mask = rng.choice(_MASKS)
    return b.and_(x, mask) if rng.random() < 0.5 else b.or_(x, mask)


def _narrow(b: IRBuilder, rng: random.Random, x):
    """``x`` truncated to a drawn width, one op at that width, and
    extended back to i64 (sign or zero)."""
    ty = IntType(rng.choice(_NARROW))
    t = b.cast("trunc", x, ty)
    op = rng.choice(("add", "mul", "and_", "or_", "xor", "shl", "lshr"))
    half = 1 << (ty.bits - 1)
    # Shift amounts stay below the width.
    c = rng.randrange(ty.bits) if op in ("shl", "lshr") else rng.randrange(-half, half)
    t = getattr(b, op)(t, c)
    return b.cast(rng.choice(("sext", "zext")), t, I64)


def _divide(b: IRBuilder, rng: random.Random, x, extreme):
    """``sdiv`` or ``srem`` of ``x`` by a constant of drawn sign, of a
    constant by ``x | 1`` (odd, so never 0), or of ``extreme`` (a loaded
    ``INT64_MIN``) by -1."""
    op = b.sdiv if rng.random() < 0.5 else b.srem
    shape = rng.randrange(3)
    if shape == 0:
        return op(x, rng.choice(_DIVISORS))
    if shape == 1:
        return op(rng.choice(_DIVISORS), b.or_(x, 1))
    return op(extreme, -1)


def _build_ranged(m: Module, rng: random.Random) -> str:
    """A helper over two arguments whose range no fact knows: ``a + c``
    under ``a < n``, and a mask and a narrow round trip of ``a ^ n``."""
    name = "ranged"
    f = m.add_function(name, I64, [I64, I64], ["a", "n"])
    entry, lo, hi = f.add_block("entry"), f.add_block("lo"), f.add_block("hi")
    a, n = f.args
    b = IRBuilder(entry)
    b.condbr(b.icmp("slt", a, n), lo, hi)
    b.set_block(lo)
    b.ret(b.add(a, rng.choice((1, 2))))
    b.set_block(hi)
    b.ret(_narrow(b, rng, _mask(b, rng, b.xor(a, n))))
    return name


def _near_max(b: IRBuilder, f, rng: random.Random, slots: dict, tag: str) -> None:
    """A loop of one to four trips whose counter ``v`` ends at
    ``INT64_MAX``: ``y ^= v + 1`` stays in range, ``y += v + c`` (``c``
    of 1 or 2) wraps on the last trip when ``c`` is 2.  The builder is
    left in the block after it."""
    head, body, after = (f.add_block(f"{part}{tag}") for part in ("nm_head", "nm_body", "nm_after"))
    b.store(MAX64 - rng.randrange(1, 5), slots["v"])
    b.br(head)
    b.set_block(head)
    b.condbr(b.icmp("slt", b.load(I64, slots["v"]), MAX64), body, after)
    b.set_block(body)
    v = b.load(I64, slots["v"])
    y = b.xor(b.load(I64, slots["y"]), b.add(v, 1))
    b.store(b.add(y, b.add(v, rng.choice((1, 2)))), slots["y"])
    b.store(b.add(v, 1), slots["v"])
    b.br(head)
    b.set_block(after)


def _value_work(b: IRBuilder, f, rng: random.Random, slots: dict, ranged: str,
                tag: str) -> None:
    """One drawn piece of ``facts=True`` work on ``x`` and ``y``."""
    kind = rng.choice(_FACT_KINDS)
    x, y = slots["x"], slots["y"]
    if kind == "mask":
        b.store(_mask(b, rng, b.load(I64, x)), x)
    elif kind == "narrow":
        b.store(_narrow(b, rng, b.load(I64, y)), y)
    elif kind == "divide":
        b.store(_divide(b, rng, b.load(I64, x), b.load(I64, slots["min"])), y)
    elif kind == "ranged":
        b.store(b.call(I64, ranged, [b.load(I64, x), b.load(I64, y)]), x)
    else:
        _near_max(b, f, rng, slots, tag)


def _buffer_round(b: IRBuilder, f, rng: random.Random, slots: dict, scratch: str) -> None:
    """One iteration's work on the heap buffer, at the end of the body.

    ``slots`` holds the stack slots of the buffer pointer and of ``i``,
    ``x`` and ``y``; the builder is left in the join block.  Two
    iterations in three renew the buffer, so a renewed buffer is often
    renewed again: freed, and allocated anew where it was.  No call runs
    between the buffer's accesses and the renewal.
    """
    size = Constant(I64, BUFFER_ELEMS * ELEM)
    buf = b.load(PTR, slots["buf"])
    i = b.load(I64, slots["i"])
    j = b.srem(b.mul(i, rng.randrange(1, 9)), BUFFER_ELEMS)
    v = b.load(I64, b.gep(buf, j, ELEM))
    x = b.load(I64, slots["x"])
    k = b.srem(b.add(j, rng.randrange(1, BUFFER_ELEMS)), BUFFER_ELEMS)
    b.store(b.add(v, x), b.gep(buf, k, ELEM))
    move = f.add_block("buf_move")
    renew = f.add_block("buf_renew")
    join = f.add_block("buf_join")
    b.condbr(b.icmp("eq", b.srem(i, 3), 0), move, renew)
    b.set_block(move)
    y = b.load(I64, slots["y"])
    b.store(b.add(y, b.call(I64, scratch, [v, x])), slots["y"])
    b.store(b.call(PTR, "realloc", [buf, size]), slots["buf"])
    b.br(join)
    b.set_block(renew)
    b.call(VOID, "free", [buf])
    fresh = b.call(PTR, "malloc", [size])
    b.store(b.add(i, rng.randrange(-50, 51)), b.gep(fresh, j, ELEM))
    b.store(fresh, slots["buf"])
    b.br(join)
    b.set_block(join)


def generate_module(seed: int, heap: bool = False, facts: bool = False) -> Module:
    """One deterministic random program for ``seed``; ``heap`` adds the
    buffer the loop moves or renews every iteration, ``facts`` the value
    work of masks, divisions, narrow widths, an argument-taking helper
    and loops up to ``INT64_MAX``."""
    rng = random.Random(seed)
    m = Module(f"fuzz_seed{seed}" + ("_heap" if heap else "") + ("_facts" if facts else ""))
    helper = _build_helper(m, rng)
    hrng = random.Random(f"heap{seed}")
    scratch = _build_scratch(m, hrng) if heap else None
    frng = random.Random(f"facts{seed}")
    ranged = _build_ranged(m, frng) if facts else None

    f = m.add_function("main", I64)
    entry = f.add_block("entry")
    init_h = f.add_block("init_h")
    init_b = f.add_block("init_b")
    header = f.add_block("header")
    body = f.add_block("body")
    exit_ = f.add_block("exit")

    b = IRBuilder(entry)
    data = b.call(PTR, "malloc", [Constant(I64, ARRAY_ELEMS * ELEM)], name="data")
    chase = b.call(PTR, "malloc", [Constant(I64, ARRAY_ELEMS * ELEM)], name="chase")
    x_slot = b.alloca(8, name="x")
    y_slot = b.alloca(8, name="y")
    i_slot = b.alloca(8, name="islot")
    j_slot = b.alloca(8, name="jslot")
    slots = {"i": i_slot, "x": x_slot, "y": y_slot}
    if heap:
        slots["buf"] = b.alloca(8, name="bufslot")
        size = Constant(I64, BUFFER_ELEMS * ELEM)
        b.store(b.call(PTR, "malloc", [size], name="buf"), slots["buf"])
    if facts:
        slots["v"] = b.alloca(8, name="vslot")
        slots["min"] = b.alloca(8, name="minslot")
        b.store(MIN64, slots["min"])
    b.store(rng.randrange(1, 8), x_slot)
    b.store(rng.randrange(1, 8), y_slot)
    b.store(0, i_slot)
    b.br(init_h)

    # Init loop: data[i] = i*k1 + k2; chase[i] = (i*stride + off) % N.
    k1 = rng.randrange(-16, 17)
    k2 = rng.randrange(-100, 101)
    stride = rng.choice((3, 5, 7, 11, 13, 19))
    off = rng.randrange(ARRAY_ELEMS)
    b.set_block(init_h)
    i0 = b.load(I64, i_slot)
    b.condbr(b.icmp("slt", i0, ARRAY_ELEMS), init_b, header)
    b.set_block(init_b)
    i = b.load(I64, i_slot)
    b.store(b.add(b.mul(i, k1), k2), b.gep(data, i, ELEM))
    target = b.srem(b.add(b.mul(i, stride), off), ARRAY_ELEMS)
    b.store(target, b.gep(chase, i, ELEM))
    b.store(b.add(i, 1), i_slot)
    b.br(init_h)

    # The main loop reuses the counter slot; its bound is seed-chosen.
    b.set_block(header)
    trip = rng.randrange(1, 49)
    b.store(0, i_slot)
    hdr_check = f.add_block("hdr_check")
    b.br(hdr_check)
    b.set_block(hdr_check)
    iv = b.load(I64, i_slot)
    b.condbr(b.icmp("slt", iv, trip), body, exit_)

    def index(selector: int):
        i = b.load(I64, i_slot)
        return b.srem(b.mul(i, selector), ARRAY_ELEMS)

    b.set_block(body)
    n_ops = rng.randrange(3, 11)
    for op_idx in range(n_ops):
        kind = rng.choice(_OP_KINDS)
        sel = rng.randrange(1, 9)
        const = rng.randrange(-50, 51)
        if kind == "arith_x":
            x = b.load(I64, x_slot)
            b.store(_arith(b, rng.choice(_ARITH), x, const), x_slot)
        elif kind == "arith_y":
            y = b.load(I64, y_slot)
            b.store(_arith(b, rng.choice(_ARITH), y, const), y_slot)
        elif kind == "load_x":
            v = b.load(I64, b.gep(data, index(sel), ELEM))
            b.store(v, x_slot)
        elif kind == "load_y":
            v = b.load(I64, b.gep(data, index(sel), ELEM))
            y = b.load(I64, y_slot)
            b.store(b.add(y, v), y_slot)
        elif kind == "store_x":
            x = b.load(I64, x_slot)
            b.store(x, b.gep(data, index(sel), ELEM))
        elif kind == "store_y":
            y = b.load(I64, y_slot)
            b.store(y, b.gep(data, index(sel), ELEM))
        elif kind == "branch":
            then_bb = f.add_block(f"then{op_idx}")
            else_bb = f.add_block(f"else{op_idx}")
            join_bb = f.add_block(f"join{op_idx}")
            x = b.load(I64, x_slot)
            b.condbr(b.icmp("eq", b.and_(x, 1), 0), then_bb, else_bb)
            b.set_block(then_bb)
            y = b.load(I64, y_slot)
            b.store(b.add(y, const), y_slot)
            b.br(join_bb)
            b.set_block(else_bb)
            y = b.load(I64, y_slot)
            b.store(b.xor(y, const), y_slot)
            b.br(join_bb)
            b.set_block(join_bb)
        elif kind == "call":
            x = b.load(I64, x_slot)
            y = b.load(I64, y_slot)
            b.store(b.call(I64, helper, [x, y]), x_slot)
        elif kind == "chase":
            # j = i % N; then j = chase[j] a few times, summing data[j].
            i = b.load(I64, i_slot)
            b.store(b.srem(i, ARRAY_ELEMS), j_slot)
            for _ in range(rng.randrange(2, 5)):
                j = b.load(I64, j_slot)
                b.store(b.load(I64, b.gep(chase, j, ELEM)), j_slot)
            j = b.load(I64, j_slot)
            v = b.load(I64, b.gep(data, j, ELEM))
            y = b.load(I64, y_slot)
            b.store(b.add(y, v), y_slot)
        if facts and frng.random() < 0.5:
            _value_work(b, f, frng, slots, ranged, str(op_idx))
    if heap:
        _buffer_round(b, f, hrng, slots, scratch)
    i = b.load(I64, i_slot)
    b.store(b.add(i, 1), i_slot)
    b.br(hdr_check)

    b.set_block(exit_)
    xf = b.load(I64, x_slot)
    yf = b.load(I64, y_slot)
    b.ret(b.xor(xf, yf))
    return m
