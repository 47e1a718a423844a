"""Pre-decoded IR: the interpreter's "compile" step.

The legacy interpreter re-discovers everything about an instruction on
every dynamic execution: an ``isinstance`` ladder for the opcode, a
``dict`` lookup per operand, attribute walks for branch targets.  For a
simulator whose whole job is to execute hundreds of millions of
instructions, that per-step rediscovery *is* the product's speed limit —
the same lesson TrackFM applies to guards (do the work once, at compile
time) applied to our own execution loop.

``decode_module`` lowers every defined function once into
:class:`DecodedFunction` records:

* every SSA value gets an integer **register slot**; constants and
  undefs are materialized into a per-function register template;
* every instruction becomes a flat **op tuple** ``(opcode_int, ...)``
  with operands resolved to slot indices and immediates (element sizes,
  bit widths) baked in; a load or store carries the
  :data:`~repro.sim.memory.Codec` of its IR type, so an access never
  re-derives the type's width or signedness;
* branch targets are resolved to **block indices**; phi nodes disappear
  entirely, replaced by per-edge parallel copies (a tuple of
  destination slots and one of source slots) executed when the edge is
  taken;
* call sites are resolved to a per-module **callee id** and carry their
  argument slots.  Classification (internal function /
  ``global_addr.*`` / external) happens here; the interpreter resolves
  an external or global callee id to a concrete value once and caches
  it.

:mod:`repro.sim.codegen` then turns each decoded function into one
Python function (``DecodedFunction.code``), which is what the
interpreter's decoded engine runs.

The decoded form is **cached on the module** (`Module._decoded_cache`)
and invalidated by :class:`~repro.compiler.pass_manager.PassManager`
after every pass via :meth:`Module.invalidate_decode`.  As a safety net
against out-of-band IR mutation, the cache also remembers the module's
instruction count and re-decodes when it changes.

Decoding is runtime-agnostic: nothing interpreter- or runtime-specific
is baked in (a call names its callee; each interpreter resolves it), so
one decoded module, generated code included, is shared by every
interpreter that runs it.  The inline hits of TrackFM's guard and deref
calls read the runtime's state from the interpreter, where
:meth:`~repro.sim.irrun.TrackFMProgram.run` binds it for one run.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Tuple

from repro.errors import IRTypeError
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    FCmp,
    Gep,
    ICmp,
    IntToPtr,
    Load,
    Phi,
    PtrToInt,
    Ret,
    Select,
    Store,
)
from repro.ir.module import Module
from repro.ir.types import IntType
from repro.ir.values import Constant, UndefValue, Value
from repro.sim.memory import codec_for

# -- opcodes ------------------------------------------------------------------

OP_ADD64 = 0
OP_SUB64 = 1
OP_MUL64 = 2
OP_AND64 = 3
OP_OR64 = 4
OP_XOR64 = 5
OP_BINW = 6  # a width-generic wrapped binop
OP_SDIV = 7
OP_SREM = 8
OP_SHL = 9
OP_LSHR = 10
OP_ASHR = 11
OP_FADD = 12
OP_FSUB = 13
OP_FMUL = 14
OP_FDIV = 15
OP_ICMP_EQ = 16
OP_ICMP_NE = 17
OP_ICMP_SLT = 18
OP_ICMP_SLE = 19
OP_ICMP_SGT = 20
OP_ICMP_SGE = 21
OP_ICMP_U = 22
OP_FCMP = 23
OP_LOAD = 24
OP_STORE = 25
OP_GEP = 26
OP_ALLOCA = 27
OP_SELECT = 28
OP_PTRTOINT = 29
OP_INTTOPTR = 30
OP_WRAP = 31  # trunc / sext: wrap to a target width
OP_ZEXT = 32
OP_SITOFP = 33
OP_FPTOSI = 34
OP_CALL = 35
OP_BR = 36
OP_CONDBR = 37
OP_RET = 38
OP_RAISE = 39  # (tag, message, steps): 1 for an IR instruction, 0 when synthetic

#: Specialized 64-bit integer binops (the dominant case in this IR).
_BIN64 = {
    "add": OP_ADD64,
    "sub": OP_SUB64,
    "mul": OP_MUL64,
    "and": OP_AND64,
    "or": OP_OR64,
    "xor": OP_XOR64,
}

#: Width-generic wrapped binops fall back to a Python operator.
_BINW_FNS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
}

_ICMP_SIGNED = {
    "eq": OP_ICMP_EQ,
    "ne": OP_ICMP_NE,
    "slt": OP_ICMP_SLT,
    "sle": OP_ICMP_SLE,
    "sgt": OP_ICMP_SGT,
    "sge": OP_ICMP_SGE,
}

#: Unsigned predicates: mask both sides to 64 bits, then compare —
#: exactly the legacy interpreter's ``_unsigned`` + signed-compare path.
_ICMP_UNSIGNED = {
    "ult": operator.lt,
    "ule": operator.le,
    "ugt": operator.gt,
    "uge": operator.ge,
}

_FCMP_FNS = {
    "oeq": operator.eq,
    "one": operator.ne,
    "olt": operator.lt,
    "ole": operator.le,
    "ogt": operator.gt,
    "oge": operator.ge,
}

#: Callee classification tags (static, module-level).
CALLEE_INTERNAL = "internal"
CALLEE_EXTERNAL = "external"
CALLEE_GLOBAL = "global"


class DecodedFunction:
    """One function lowered to flat per-block op tuples, and its code."""

    __slots__ = (
        "func", "name", "nargs", "template", "blocks", "names", "phis", "start",
        "code", "source",
    )

    def __init__(self, func: Function) -> None:
        self.func = func
        self.name = func.name
        self.nargs = len(func.args)
        #: Register template: one value per slot.  The first ``nargs``
        #: slots are argument slots; constant/undef slots are pre-filled
        #: with their Python values, every other slot with ``None``.
        self.template: List[object] = []
        #: Per-block op tuples; indices into this list are branch targets.
        self.blocks: List[Tuple[tuple, ...]] = []
        #: Block display names (for block hooks), parallel to ``blocks``.
        self.names: List[str] = []
        #: Phi count per block, parallel to ``blocks``: every edge into a
        #: block copies that many values, and each copy is one step.
        self.phis: List[int] = []
        #: Index of the block execution starts in (a synthetic error
        #: block when the entry block illegally starts with phis).
        self.start = 0
        #: The generated Python function, ``code(interp, *args)``, and
        #: its source (set by :func:`repro.sim.codegen.generate`).
        self.code = None
        self.source = ""


class DecodedModule:
    """All defined functions of one module, decoded, plus the callee table."""

    __slots__ = (
        "module", "epoch", "inst_count", "functions",
        "callees", "callee_static", "_callee_ids",
    )

    def __init__(self, module: Module) -> None:
        self.module = module
        self.epoch = module.decode_epoch
        self.inst_count = module.instruction_count()
        self.functions: Dict[str, DecodedFunction] = {}
        #: Callee id -> name (parallel to interpreters' resolution caches).
        self.callees: List[str] = []
        #: Callee id -> static classification ``(tag, payload_name)``.
        self.callee_static: List[Tuple[str, str]] = []
        self._callee_ids: Dict[str, int] = {}
        for func in module.defined_functions():
            self.functions[func.name] = _decode_function(self, func)
        from repro.sim.codegen import generate

        generate(self)

    def callee_id(self, name: str) -> int:
        cid = self._callee_ids.get(name)
        if cid is None:
            cid = len(self.callees)
            self._callee_ids[name] = cid
            self.callees.append(name)
            if name.startswith("global_addr."):
                self.callee_static.append((CALLEE_GLOBAL, name[len("global_addr."):]))
            elif self.module.has_function(name) and not self.module.get_function(
                name
            ).is_declaration:
                self.callee_static.append((CALLEE_INTERNAL, name))
            else:
                self.callee_static.append((CALLEE_EXTERNAL, name))
        return cid


def decode_module(module: Module) -> DecodedModule:
    """The decoded form of ``module``, cached until the IR changes.

    Reuse requires both the epoch stamp (bumped by
    :meth:`Module.invalidate_decode`, which the pass manager calls after
    every pass) and the instruction count to match — the latter catches
    direct IR surgery done outside any pass pipeline.
    """
    cached = module._decoded_cache
    if (
        cached is not None
        and cached.epoch == module.decode_epoch
        and cached.inst_count == module.instruction_count()
    ):
        return cached
    decoded = DecodedModule(module)
    module._decoded_cache = decoded
    return decoded


# -- per-function lowering ----------------------------------------------------


def _decode_function(dmod: DecodedModule, func: Function) -> DecodedFunction:
    df = DecodedFunction(func)
    template = df.template
    slots: Dict[int, int] = {}

    for i, arg in enumerate(func.args):
        slots[id(arg)] = i
        template.append(None)

    def def_slot(value: Value) -> int:
        s = slots.get(id(value))
        if s is None:
            s = len(template)
            slots[id(value)] = s
            template.append(None)
        return s

    def use_slot(value: Value) -> int:
        s = slots.get(id(value))
        if s is not None:
            return s
        s = len(template)
        slots[id(value)] = s
        if isinstance(value, Constant):
            template.append(value.value)
        elif isinstance(value, UndefValue):
            template.append(0)
        else:
            # A value used before any definition was seen; blocks are
            # decoded in layout order, so this is a back-reference to a
            # later definition (legal in loops) — reserve its slot.
            template.append(None)
        return s

    block_index = {id(b): i for i, b in enumerate(func.blocks)}

    def edge_target(pred, succ) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
        """(target index, destination slots, source slots) of one CFG edge.

        The copies are parallel: every source is read before any
        destination is written.
        """
        phis = succ.phis()
        try:
            sources = tuple(use_slot(phi.incoming_for(pred)) for phi in phis)
        except IRTypeError as exc:
            # Taking this edge is a runtime error in the legacy engine;
            # route it to a synthetic block that raises on execution.
            return _error_block(df, succ.name, str(exc)), (), ()
        return block_index[id(succ)], tuple(def_slot(phi) for phi in phis), sources

    for block in func.blocks:
        ops: List[tuple] = []
        phis = block.phis()
        for inst in block.instructions[len(phis):]:
            ops.append(_decode_inst(dmod, inst, def_slot, use_slot, edge_target))
        if not ops or ops[-1][0] not in (OP_BR, OP_CONDBR, OP_RET, OP_RAISE):
            ops.append(
                (OP_RAISE, f"block %{block.name} fell through without terminator", 0)
            )
        df.blocks.append(tuple(ops))
        df.names.append(block.name)
        df.phis.append(len(phis))

    if func.blocks and func.blocks[0].phis():
        # The legacy engine rejects this on first entry (no predecessor
        # edge to evaluate the phis from); later entries via a back edge
        # are fine, so only the *start* index points at the error block.
        df.start = _error_block(
            df, func.blocks[0].name, f"phi in entry block %{func.blocks[0].name}"
        )
    return df


def _error_block(df: DecodedFunction, name: str, message: str) -> int:
    """Append a synthetic block raising ``message``; returns its index.

    Its raise counts no step: the legacy engine raises before it
    evaluates the block's phis.
    """
    df.blocks.append(((OP_RAISE, message, 0),))
    df.names.append(name)
    df.phis.append(0)
    return len(df.blocks) - 1


def _bits_of(inst) -> int:
    return inst.type.bits if isinstance(inst.type, IntType) else 64


def _decode_inst(dmod, inst, def_slot, use_slot, edge_target) -> tuple:
    if isinstance(inst, BinOp):
        op = inst.opcode
        if op.startswith("f"):
            a, b = use_slot(inst.lhs), use_slot(inst.rhs)
            tag = {"fadd": OP_FADD, "fsub": OP_FSUB, "fmul": OP_FMUL, "fdiv": OP_FDIV}[op]
            return (tag, def_slot(inst), a, b)
        bits = _bits_of(inst)
        a, b = use_slot(inst.lhs), use_slot(inst.rhs)
        d = def_slot(inst)
        if bits == 64 and op in _BIN64:
            return (_BIN64[op], d, a, b)
        if op in _BINW_FNS:
            return (OP_BINW, d, a, b, bits, _BINW_FNS[op])
        tag = {
            "sdiv": OP_SDIV,
            "srem": OP_SREM,
            "shl": OP_SHL,
            "lshr": OP_LSHR,
            "ashr": OP_ASHR,
        }[op]
        return (tag, d, a, b, bits)
    if isinstance(inst, Load):
        return (OP_LOAD, def_slot(inst), use_slot(inst.pointer), codec_for(inst.type))
    if isinstance(inst, Store):
        return (OP_STORE, use_slot(inst.value), codec_for(inst.value.type),
                use_slot(inst.pointer))
    if isinstance(inst, Gep):
        return (OP_GEP, def_slot(inst), use_slot(inst.base), use_slot(inst.index),
                inst.elem_size)
    if isinstance(inst, ICmp):
        a, b = use_slot(inst.operands[0]), use_slot(inst.operands[1])
        d = def_slot(inst)
        if inst.pred in _ICMP_SIGNED:
            return (_ICMP_SIGNED[inst.pred], d, a, b)
        return (OP_ICMP_U, d, a, b, _ICMP_UNSIGNED[inst.pred])
    if isinstance(inst, FCmp):
        return (OP_FCMP, def_slot(inst), use_slot(inst.operands[0]),
                use_slot(inst.operands[1]), _FCMP_FNS[inst.pred])
    if isinstance(inst, Br):
        return (OP_BR,) + edge_target(inst.parent, inst.target)
    if isinstance(inst, CondBr):
        return ((OP_CONDBR, use_slot(inst.condition))
                + edge_target(inst.parent, inst.if_true)
                + edge_target(inst.parent, inst.if_false))
    if isinstance(inst, Ret):
        return (OP_RET, use_slot(inst.value) if inst.value is not None else None)
    if isinstance(inst, Call):
        args = tuple(use_slot(a) for a in inst.args)
        dest = None if inst.type.is_void() else def_slot(inst)
        return (OP_CALL, dest, dmod.callee_id(inst.callee), args)
    if isinstance(inst, Select):
        c, a, b = (use_slot(o) for o in inst.operands)
        return (OP_SELECT, def_slot(inst), c, a, b)
    if isinstance(inst, Alloca):
        return (OP_ALLOCA, def_slot(inst), inst.size_bytes)
    if isinstance(inst, PtrToInt):
        return (OP_PTRTOINT, def_slot(inst), use_slot(inst.operands[0]))
    if isinstance(inst, IntToPtr):
        return (OP_INTTOPTR, def_slot(inst), use_slot(inst.operands[0]))
    if isinstance(inst, Cast):
        s = use_slot(inst.operands[0])
        d = def_slot(inst)
        if inst.opcode in ("trunc", "sext"):
            return (OP_WRAP, d, s, inst.type.bits)
        if inst.opcode == "zext":
            src_bits = inst.operands[0].type.bits
            return (OP_ZEXT, d, s, (1 << src_bits) - 1, inst.type.bits)
        if inst.opcode == "sitofp":
            return (OP_SITOFP, d, s)
        if inst.opcode == "fptosi":
            return (OP_FPTOSI, d, s)
        return (OP_RAISE, f"unknown cast {inst.opcode}", 1)
    if isinstance(inst, Phi):
        return (OP_RAISE, "phi reached dispatch (must be at block head)", 1)
    return (OP_RAISE, f"cannot execute {inst.render()}", 1)
