"""O1-style pre-optimization.

§4.5: by default NOELLE sees *unoptimized* LLVM output, which inflates
the number of loads/stores — and therefore guards — dramatically (6x
more memory instructions on NAS FT, 4x on SP).  Running a standard
cleanup pipeline before the TrackFM passes fixes this, and "this
experiment led us to change NOELLE's default optimization pipeline
order for use with TrackFM."  The passes here are the relevant subset:
constant folding, store-to-load forwarding / redundant-load
elimination, and dead-code elimination, iterated to a fixed point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.defuse import DefUse
from repro.compiler.pass_manager import Pass, PassContext
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    FCmp,
    Gep,
    ICmp,
    Instruction,
    Load,
    Phi,
    PtrToInt,
    Select,
    Store,
)
from repro.ir.module import Module
from repro.ir.values import Constant, Value


def _fold_binop(inst: BinOp) -> Optional[Constant]:
    a, b = inst.lhs, inst.rhs
    if not (isinstance(a, Constant) and isinstance(b, Constant)):
        return None
    op = inst.opcode
    if op.startswith("f"):
        fa, fb = float(a.value), float(b.value)
        table = {"fadd": fa + fb, "fsub": fa - fb, "fmul": fa * fb}
        if op in table:
            return Constant(inst.type, table[op])
        if op == "fdiv" and fb != 0.0:
            return Constant(inst.type, fa / fb)
        return None
    ia, ib = int(a.value), int(b.value)
    if op == "add":
        return Constant(inst.type, ia + ib)
    if op == "sub":
        return Constant(inst.type, ia - ib)
    if op == "mul":
        return Constant(inst.type, ia * ib)
    if op == "and":
        return Constant(inst.type, ia & ib)
    if op == "or":
        return Constant(inst.type, ia | ib)
    if op == "xor":
        return Constant(inst.type, ia ^ ib)
    if op == "sdiv" and ib != 0:
        q = abs(ia) // abs(ib)
        return Constant(inst.type, -q if (ia < 0) != (ib < 0) else q)
    if op == "shl":
        return Constant(inst.type, ia << (ib % 64))
    return None


def _simplify_binop(inst: BinOp) -> Optional[Value]:
    """Algebraic identities: x+0, x-0, x*1, x*0, x&x, x|x."""
    a, b = inst.lhs, inst.rhs
    op = inst.opcode

    def is_const(v: Value, k: int) -> bool:
        return isinstance(v, Constant) and v.type.is_int() and v.value == k

    if op == "add":
        if is_const(b, 0):
            return a
        if is_const(a, 0):
            return b
    if op == "sub" and is_const(b, 0):
        return a
    if op == "mul":
        if is_const(b, 1):
            return a
        if is_const(a, 1):
            return b
        if is_const(a, 0) or is_const(b, 0):
            return Constant(inst.type, 0)
    if op in ("and", "or") and a is b:
        return a
    if op == "xor" and a is b:
        return Constant(inst.type, 0)
    return None


def _fold_icmp(inst: ICmp) -> Optional[Constant]:
    a, b = inst.operands
    if not (isinstance(a, Constant) and isinstance(b, Constant)):
        return None
    if not (a.type.is_int() and b.type.is_int()):
        return None
    ia, ib = int(a.value), int(b.value)
    pred = inst.pred
    if pred.startswith("u"):
        mask = (1 << 64) - 1
        ia, ib = ia & mask, ib & mask
        pred = {"ult": "slt", "ule": "sle", "ugt": "sgt", "uge": "sge"}[pred]
    table = {
        "eq": ia == ib,
        "ne": ia != ib,
        "slt": ia < ib,
        "sle": ia <= ib,
        "sgt": ia > ib,
        "sge": ia >= ib,
    }
    from repro.ir.types import I1

    return Constant(I1, int(table[pred]))


def _fold_select(inst: Select) -> Optional[Value]:
    cond, a, b = inst.operands
    if isinstance(cond, Constant):
        return a if cond.value else b
    if a is b:
        return a
    return None


class ConstantFoldingPass(Pass):
    """Fold constant expressions, comparisons, selects, and identities."""

    name = "constant-folding"

    def run(self, module: Module, ctx: PassContext) -> None:
        for func in module.defined_functions():
            changed = True
            while changed:
                changed = False
                for inst in func.instructions():
                    replacement: Optional[Value] = None
                    if isinstance(inst, BinOp):
                        replacement = _fold_binop(inst) or _simplify_binop(inst)
                    elif isinstance(inst, ICmp):
                        replacement = _fold_icmp(inst)
                    elif isinstance(inst, Select):
                        replacement = _fold_select(inst)
                    if replacement is not None and replacement is not inst:
                        func.replace_all_uses(inst, replacement)
                        assert inst.parent is not None
                        inst.parent.remove(inst)
                        ctx.bump(f"{self.name}.folded")
                        changed = True


class DeadCodeEliminationPass(Pass):
    """Remove side-effect-free instructions with no users."""

    name = "dce"

    _SAFE = (BinOp, ICmp, FCmp, Gep, Load, Select, Cast, Phi, PtrToInt, Alloca)

    def run(self, module: Module, ctx: PassContext) -> None:
        for func in module.defined_functions():
            changed = True
            while changed:
                changed = False
                uses = DefUse(func)
                for inst in func.instructions():
                    if inst.type.is_void() or inst.is_terminator():
                        continue
                    if not isinstance(inst, self._SAFE):
                        continue
                    if uses.has_users(inst):
                        continue
                    assert inst.parent is not None
                    inst.parent.remove(inst)
                    ctx.bump(f"{self.name}.removed")
                    changed = True


class RedundantLoadEliminationPass(Pass):
    """Store-to-load forwarding and redundant-load elimination.

    Within each basic block, track the last known value at each pointer
    SSA name; a later load of the same pointer (same type) reuses it.
    Stores to a *different* pointer kill everything (no alias analysis
    beyond SSA-name identity — conservative), as do calls.
    """

    name = "redundant-load-elim"

    def run(self, module: Module, ctx: PassContext) -> None:
        for func in module.defined_functions():
            for block in func.blocks:
                available: Dict[Tuple[int, str], Value] = {}
                to_remove: List[Tuple[Instruction, Value]] = []
                for inst in block.instructions:
                    if isinstance(inst, Load):
                        key = (id(inst.pointer), str(inst.type))
                        known = available.get(key)
                        if known is not None and known.type == inst.type:
                            to_remove.append((inst, known))
                        else:
                            available[key] = inst
                    elif isinstance(inst, Store):
                        key = (id(inst.pointer), str(inst.value.type))
                        # A store to one pointer may alias any other.
                        available = {key: inst.value}
                    elif isinstance(inst, Call):
                        available.clear()
                for inst, replacement in to_remove:
                    func.replace_all_uses(inst, replacement)
                    block.remove(inst)
                    ctx.bump(f"{self.name}.loads_removed")


class O1Pipeline(Pass):
    """mem2reg + constant folding + RLE + DCE to a fixed point (bounded)."""

    name = "O1"

    def __init__(self, max_rounds: int = 8) -> None:
        from repro.compiler.dse import DeadStoreEliminationPass
        from repro.compiler.licm import LICMPass
        from repro.compiler.mem2reg import Mem2RegPass
        from repro.compiler.simplify_cfg import SimplifyCFGPass

        self.max_rounds = max_rounds
        self._passes = [
            Mem2RegPass(),
            ConstantFoldingPass(),
            RedundantLoadEliminationPass(),
            LICMPass(),
            DeadStoreEliminationPass(),
            DeadCodeEliminationPass(),
            SimplifyCFGPass(),
        ]

    def run(self, module: Module, ctx: PassContext) -> None:
        before = module.instruction_count()
        for _ in range(self.max_rounds):
            marker = dict(ctx.stats)
            for p in self._passes:
                p.run(module, ctx)
            if ctx.stats == marker:
                break
        ctx.bump(f"{self.name}.instructions_removed", before - module.instruction_count())
