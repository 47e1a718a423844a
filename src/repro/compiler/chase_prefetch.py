"""Pointer-chase (recursive data structure) prefetching — a §5 extension.

The paper: "We expect greater benefits when we can capture information
about recursive data structures [Luk & Mowry]."  This pass captures the
canonical case: a loop walking a linked structure,

    node = node->next

i.e. a pointer phi whose in-loop incoming value is a *load* from a
fixed offset off the phi itself.  Guarded accesses through that phi are
rewritten to ``tfm_chase_deref(ptr, next_offset, stream)``: the runtime
localizes the node and then *greedily prefetches* the node its ``next``
field points at, overlapping the next fetch with this node's work.

Greedy prefetching only sees one node ahead, so — unlike the stride
prefetcher's deep pipeline — it hides at most one round trip per node;
the runtime models that with a shallow (depth-2) prefetch cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.loops import Loop, find_loops
from repro.compiler.guard_analysis import GUARD_MD
from repro.compiler.pass_manager import Pass, PassContext
from repro.ir.function import Function
from repro.ir.instructions import Call, Gep, Load, Phi, Store
from repro.ir.module import Module
from repro.ir.types import I64, PTR
from repro.ir.values import Constant, Value

CHASED_MD = "tfm.chase"

CHASE_DEREF = "tfm_chase_deref"
CHASE_DEREF_WRITE = "tfm_chase_deref_write"


@dataclass
class ChasePattern:
    """One detected ``p = load(p + next_offset)`` recurrence."""

    loop: Loop
    phi: Phi
    next_load: Load
    next_offset: int


def _match_chase(loop: Loop) -> List[ChasePattern]:
    """Find pointer phis stepped by a load from themselves."""
    patterns: List[ChasePattern] = []
    for phi in loop.header.phis():
        if not phi.type.is_pointer() or len(phi.incoming) != 2:
            continue
        inside: Optional[Value] = None
        for value, pred in phi.incoming:
            if pred in loop.blocks:
                inside = value
        if not isinstance(inside, Load) or not inside.type.is_pointer():
            continue
        ptr = inside.pointer
        offset = 0
        if isinstance(ptr, Gep) and ptr.base is phi and isinstance(ptr.index, Constant):
            offset = int(ptr.index.value) * ptr.elem_size
        elif ptr is not phi:
            continue
        patterns.append(
            ChasePattern(loop=loop, phi=phi, next_load=inside, next_offset=offset)
        )
    return patterns


class ChasePrefetchPass(Pass):
    """Rewrite linked-structure walks to chase-prefetching derefs."""

    name = "chase-prefetch"

    def run(self, module: Module, ctx: PassContext) -> None:
        stream = ctx.stats.get("chase-prefetch.streams", 0)
        for func in module.defined_functions():
            loops = find_loops(func)
            for loop in loops:
                for pattern in _match_chase(loop):
                    stream += 1
                    self._apply(func, pattern, stream, ctx)
        ctx.stats["chase-prefetch.streams"] = stream

    def _apply(
        self, func: Function, pattern: ChasePattern, stream: int, ctx: PassContext
    ) -> None:
        loop = pattern.loop
        for block in loop.blocks:
            for inst in list(block.instructions):
                if not isinstance(inst, (Load, Store)):
                    continue
                if not inst.metadata.get(GUARD_MD):
                    continue
                ptr = inst.pointer
                if not self._derives_from(ptr, pattern.phi):
                    continue
                callee = (
                    CHASE_DEREF_WRITE if isinstance(inst, Store) else CHASE_DEREF
                )
                # Operands: the access pointer, the node pointer (the phi,
                # whose next field drives the prefetch), the next-field
                # offset, and the stream id.
                deref = Call(
                    PTR,
                    callee,
                    [
                        ptr,
                        pattern.phi,
                        Constant(I64, pattern.next_offset),
                        Constant(I64, stream),
                    ],
                )
                deref.name = func.unique_name("chaseptr")
                block.insert_before(inst, deref)
                inst.replace_uses_of(ptr, deref)
                inst.metadata.pop(GUARD_MD, None)
                inst.metadata[CHASED_MD] = True
                ctx.bump(f"{self.name}.accesses_rewritten")

    @staticmethod
    def _derives_from(ptr: Value, phi: Phi) -> bool:
        """Does ``ptr`` reach ``phi`` through geps only?"""
        node = ptr
        for _ in range(16):
            if node is phi:
                return True
            if isinstance(node, Gep):
                node = node.base
                continue
            return False
        return False
