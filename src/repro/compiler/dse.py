"""Dead-store elimination for stack slots.

Complements mem2reg: an alloca whose address never escapes and whose
contents are *never loaded* is pure scratch — every store to it (and
the alloca itself) can go.  Unoptimized compiler output is full of
these after other passes copy values out of slots, and each dead store
would otherwise survive to (harmlessly but wastefully) bloat the
instruction counts the §4.6 statistics track.
"""

from __future__ import annotations

from typing import Set

from repro.compiler.pass_manager import Pass, PassContext
from repro.ir.function import Function
from repro.ir.instructions import Alloca, Store
from repro.ir.module import Module


class DeadStoreEliminationPass(Pass):
    """Remove never-loaded, never-escaping stack slots and their stores."""

    name = "dse"

    def run(self, module: Module, ctx: PassContext) -> None:
        for func in module.defined_functions():
            self._process(func, ctx)

    def _process(self, func: Function, ctx: PassContext) -> None:
        dead: Set[Alloca] = set()
        for inst in func.instructions():
            if isinstance(inst, Alloca):
                dead.add(inst)
        for inst in func.instructions():
            for op in inst.operands:
                if not isinstance(op, Alloca) or op not in dead:
                    continue
                if isinstance(inst, Store) and inst.pointer is op and inst.value is not op:
                    continue  # a store TO the slot keeps it a candidate
                # Loaded, escaped, or used as data: not dead.
                dead.discard(op)
        if not dead:
            return
        for inst in list(func.instructions()):
            if isinstance(inst, Store) and inst.pointer in dead:
                assert inst.parent is not None
                inst.parent.remove(inst)
                ctx.bump(f"{self.name}.stores_removed")
        for slot in dead:
            if slot.parent is not None:
                slot.parent.remove(slot)
                ctx.bump(f"{self.name}.slots_removed")
