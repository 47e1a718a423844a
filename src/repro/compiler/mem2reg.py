"""Promote stack slots to SSA registers (LLVM's mem2reg).

Unoptimized compiler output keeps every local variable in an ``alloca``
and re-loads it at each use — which is exactly why the paper's default
NOELLE pipeline saw 6x more memory instructions on NAS FT (§4.5): each
of those loads/stores would get a guard.  Promoting the slots to SSA
values removes them wholesale.

An alloca is *promotable* when its address is used only as the direct
pointer of loads and stores (never stored itself, passed to a call, or
offset with gep).  Promotion uses phi placement at join blocks:

* ``end(var, block)``   = last value stored in ``block``, else the
  block-entry value;
* ``entry(var, block)`` = the single predecessor's ``end``, or a phi
  over all predecessors' ``end`` values at join blocks (loop headers
  included), or undef at the function entry;

followed by trivial-phi elimination.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.analysis.cfg import CFG
from repro.compiler.pass_manager import Pass, PassContext
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Alloca, Instruction, Load, Phi, Store
from repro.ir.module import Module
from repro.ir.types import IRType
from repro.ir.values import UndefValue, Value


def _promotable_allocas(func: Function) -> Dict[Alloca, IRType]:
    """Allocas used only as direct load/store pointers, with one type."""
    candidates: Dict[Alloca, Optional[IRType]] = {}
    for inst in func.instructions():
        if isinstance(inst, Alloca):
            candidates[inst] = None
    for inst in func.instructions():
        for op in inst.operands:
            if not isinstance(op, Alloca) or op not in candidates:
                continue
            if isinstance(inst, Load) and inst.pointer is op:
                ty = candidates[op]
                if ty is None:
                    candidates[op] = inst.type
                elif ty != inst.type:
                    candidates.pop(op, None)
            elif isinstance(inst, Store) and inst.pointer is op and inst.value is not op:
                ty = candidates[op]
                if ty is None:
                    candidates[op] = inst.value.type
                elif ty != inst.value.type:
                    candidates.pop(op, None)
            else:
                # Address escapes (stored, called, gep'd, compared...).
                candidates.pop(op, None)
    return {a: t for a, t in candidates.items() if t is not None}


class Mem2RegPass(Pass):
    """Classic alloca promotion with phi insertion."""

    name = "mem2reg"

    def run(self, module: Module, ctx: PassContext) -> None:
        for func in module.defined_functions():
            promoted = self._promote_function(func)
            if promoted:
                ctx.bump(f"{self.name}.allocas_promoted", promoted)

    def _promote_function(self, func: Function) -> int:
        variables = _promotable_allocas(func)
        if not variables:
            return 0
        cfg = CFG(func)
        reachable = cfg.reachable()

        # Pre-place one phi per variable at every reachable join block.
        placeholder: Dict[Tuple[Alloca, BasicBlock], Phi] = {}
        for block in func.blocks:
            if block not in reachable or len(cfg.preds(block)) < 2:
                continue
            for var, ty in variables.items():
                phi = Phi(ty)
                phi.name = func.unique_name(f"m2r.{var.name or 'v'}")
                block.insert(0, phi)
                placeholder[(var, block)] = phi

        # end(var, block): memoized; entry(var, block) derived.
        end_cache: Dict[Tuple[Alloca, BasicBlock], Value] = {}

        def last_store_value(var: Alloca, block: BasicBlock) -> Optional[Value]:
            result: Optional[Value] = None
            for inst in block.instructions:
                if isinstance(inst, Store) and inst.pointer is var:
                    result = inst.value
            return result

        def entry_value(var: Alloca, block: BasicBlock) -> Value:
            phi = placeholder.get((var, block))
            if phi is not None:
                return phi
            preds = [p for p in cfg.preds(block) if p in reachable]
            if not preds:
                return UndefValue(variables[var], name=f"undef.{var.name}")
            return end_value(var, preds[0])

        def end_value(var: Alloca, block: BasicBlock) -> Value:
            key = (var, block)
            cached = end_cache.get(key)
            if cached is not None:
                return cached
            stored = last_store_value(var, block)
            if stored is not None:
                end_cache[key] = stored
                return stored
            # No store in this block: end == entry.  Join blocks break
            # recursion via their placeholder phis.
            value = entry_value(var, block)
            end_cache[key] = value
            return value

        # Fill phi operands.
        for (var, block), phi in placeholder.items():
            for pred in cfg.preds(block):
                if pred in reachable:
                    phi.add_incoming(end_value(var, pred), pred)

        # The rewrite below deletes stores block by block; an end value
        # computed lazily after that would miss them and fall back to
        # the block-entry value.  Snapshot every end value from the
        # still-pristine IR first.
        for block in func.blocks:
            if block in reachable:
                for var in variables:
                    end_value(var, block)

        # Rewrite loads and drop stores.  A cached end value may itself
        # be a load this rewrite removes; chase it to the live value.
        replaced: Dict[Instruction, Value] = {}

        def resolve(value: Value) -> Value:
            while isinstance(value, Instruction) and value in replaced:
                value = replaced[value]
            return value

        for block in func.blocks:
            if block not in reachable:
                continue
            current: Dict[Alloca, Value] = {}
            for inst in list(block.instructions):
                if isinstance(inst, Load) and isinstance(inst.pointer, Alloca):
                    var = inst.pointer
                    if var not in variables:
                        continue
                    value = current.get(var)
                    if value is None:
                        value = entry_value(var, block)
                    value = resolve(value)
                    replaced[inst] = value
                    func.replace_all_uses(inst, value)
                    block.remove(inst)
                elif isinstance(inst, Store) and isinstance(inst.pointer, Alloca):
                    var = inst.pointer
                    if var not in variables:
                        continue
                    current[var] = inst.value
                    block.remove(inst)

        # Drop the allocas themselves.
        for var in variables:
            if var.parent is not None:
                var.parent.remove(var)

        self._remove_trivial_phis(func)
        return len(variables)

    @staticmethod
    def _remove_trivial_phis(func: Function) -> None:
        changed = True
        while changed:
            changed = False
            for block in func.blocks:
                for phi in list(block.phis()):
                    sources = {v for v, _ in phi.incoming if v is not phi}
                    sources = {
                        v for v in sources
                        if not isinstance(v, UndefValue)
                    } or sources
                    if len(sources) == 1:
                        replacement = next(iter(sources))
                        func.replace_all_uses(phi, replacement)
                        block.remove(phi)
                        changed = True
