"""Computation offload / near-data processing (§5 extension).

The paper: "Fetching remote data just to perform trivial computations
is unwise.  AIFM overcomes this by allowing library developers to
manually offload such lightweight computations onto the remote node ...
We believe TrackFM could employ static analysis techniques ... to
achieve the same goal."

This pass is that static analysis plus the transform.  It recognizes
*offloadable reduction loops*:

* a counted loop (``i = 0; i < n; i++``) whose bound is loop-invariant,
* whose body performs exactly one guarded load, strided by the
  induction variable off a loop-invariant base,
* folded into an accumulator with one associative/commutative op
  (add/xor/and/or), with no stores, no other calls, no other escapes,

and — when the scanned footprint is big enough that fetching it would
dwarf the computation — replaces the whole loop with one runtime call::

    %res = call i64 @tfm_offload_reduce(base, n, elem, op, init)

The remote node scans its own DRAM and returns a scalar: two small
messages instead of ``n * elem`` bytes of fetch traffic.  Locally-dirty
objects in the range are flushed first (the runtime charges their
writeback), so the remote computes over current data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.cfg import CFG
from repro.analysis.induction import InductionAnalysis, InductionVariable
from repro.analysis.loops import Loop, find_loops
from repro.compiler.guard_analysis import GUARD_MD
from repro.compiler.pass_manager import Pass, PassContext
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Br,
    Call,
    CondBr,
    Gep,
    ICmp,
    Instruction,
    Load,
    Phi,
    Store,
)
from repro.ir.module import Module
from repro.ir.types import I64
from repro.ir.values import Constant, Value

OFFLOAD_REDUCE = "tfm_offload_reduce"

#: Reduction opcode encoding shared with the runtime bridge.
REDUCE_OPS: Dict[str, int] = {"add": 0, "xor": 1, "and": 2, "or": 3}


@dataclass
class OffloadCandidate:
    """One reduction loop eligible for remote execution."""

    loop: Loop
    iv: InductionVariable
    acc: Phi
    acc_init: Value
    load: Load
    base: Value
    elem_size: int
    op: str
    bound: Value
    exit_block: BasicBlock
    preheader: BasicBlock

    def footprint_bytes(self, assumed_trip: int) -> int:
        trip = self.iv.trip_count
        if trip is None and isinstance(self.bound, Constant):
            trip = int(self.bound.value)
        if trip is None:
            trip = assumed_trip
        return max(trip, 0) * self.elem_size


def _loop_invariant(value: Value, loop: Loop) -> bool:
    if isinstance(value, Instruction):
        return value.parent not in loop.blocks
    return True


def find_offload_candidates(func: Function) -> List[OffloadCandidate]:
    """Match the offloadable-reduction shape in every loop of ``func``."""
    loops = find_loops(func)
    if not len(loops):
        return []
    cfg = CFG(func)
    ivs = InductionAnalysis(func, loops)
    out: List[OffloadCandidate] = []
    for loop in loops:
        cand = _match_loop(func, loop, cfg, ivs)
        if cand is not None:
            out.append(cand)
    return out


def _match_loop(
    func: Function, loop: Loop, cfg: CFG, ivs: InductionAnalysis
) -> Optional[OffloadCandidate]:
    if loop.children:
        return None  # innermost only
    iv = ivs.governing_iv(loop)
    if iv is None or iv.is_pointer or iv.step != 1:
        return None
    if not (isinstance(iv.start, Constant) and iv.start.value == 0):
        return None
    header = loop.header
    phis = header.phis()
    if len(phis) != 2:
        return None
    acc = next((p for p in phis if p is not iv.phi), None)
    if acc is None or not acc.type.is_int():
        return None

    # Exactly one exit edge, from the header.
    exits = loop.exit_edges(cfg)
    if len(exits) != 1 or exits[0][0] is not header:
        return None
    exit_block = exits[0][1]
    preheader = loop.preheader(cfg)
    if preheader is None:
        return None

    # The exit compare's bound must be loop-invariant.
    term = header.terminator
    if not isinstance(term, CondBr) or not isinstance(term.condition, ICmp):
        return None
    cmp_inst = term.condition
    lhs, rhs = cmp_inst.operands
    bound = rhs if (lhs is iv.phi or lhs is iv.update) else lhs
    if not _loop_invariant(bound, loop):
        return None

    # Accumulator recurrence: acc2 = op(acc, loaded) with allowed op.
    acc_update: Optional[Value] = None
    acc_init: Optional[Value] = None
    for value, pred in acc.incoming:
        if pred in loop.blocks:
            acc_update = value
        else:
            acc_init = value
    if not isinstance(acc_update, BinOp) or acc_update.opcode not in REDUCE_OPS:
        return None
    a, b = acc_update.operands
    loaded = b if a is acc else a if b is acc else None
    if not isinstance(loaded, Load):
        return None
    ptr = loaded.pointer
    if not isinstance(ptr, Gep):
        return None
    if ptr.index is not iv.phi or not _loop_invariant(ptr.base, loop):
        return None
    if loaded.type.size_bytes() != ptr.elem_size:
        return None  # partial-element loads complicate the remote scan
    if not loaded.metadata.get(GUARD_MD):
        return None  # only remotable data benefits

    # Body purity: no stores, no calls, no other loads.
    for block in loop.blocks:
        for inst in block.instructions:
            if isinstance(inst, Store):
                return None
            if isinstance(inst, Call):
                return None
            if isinstance(inst, Load) and inst is not loaded:
                return None

    # The accumulator must not be used inside the loop except by its
    # own update (otherwise partial sums escape).
    for block in loop.blocks:
        for inst in block.instructions:
            if inst is acc_update or inst is acc:
                continue
            if any(op is acc for op in inst.operands):
                return None

    assert acc_init is not None
    return OffloadCandidate(
        loop=loop,
        iv=iv,
        acc=acc,
        acc_init=acc_init,
        load=loaded,
        base=ptr.base,
        elem_size=ptr.elem_size,
        op=acc_update.opcode,
        bound=bound,
        exit_block=exit_block,
        preheader=preheader,
    )


class OffloadPass(Pass):
    """Replace big remote reduction loops with ``tfm_offload_reduce``."""

    name = "offload"

    def run(self, module: Module, ctx: PassContext) -> None:
        config = ctx.config
        threshold = getattr(config, "offload_threshold_bytes", 64 * 1024)
        for func in module.defined_functions():
            # Re-analyze after each rewrite: block lists change.
            changed = True
            while changed:
                changed = False
                for cand in find_offload_candidates(func):
                    if cand.footprint_bytes(config.assumed_trip_count) < threshold:
                        ctx.bump(f"{self.name}.below_threshold")
                        continue
                    self._rewrite(func, cand, ctx)
                    changed = True
                    break

    def _rewrite(
        self, func: Function, cand: OffloadCandidate, ctx: PassContext
    ) -> None:
        pre = cand.preheader
        term = pre.terminator
        assert term is not None
        call = Call(
            I64,
            OFFLOAD_REDUCE,
            [
                cand.base,
                cand.bound,
                Constant(I64, cand.elem_size),
                Constant(I64, REDUCE_OPS[cand.op]),
                cand.acc_init,
            ],
        )
        call.name = func.unique_name("offload")
        pre.insert_before(term, call)

        # Bypass the loop: preheader branches straight to the exit.
        header = cand.loop.header
        if isinstance(term, Br):
            term.target = cand.exit_block
        elif isinstance(term, CondBr):
            if term.if_true is header:
                term.if_true = cand.exit_block
            if term.if_false is header:
                term.if_false = cand.exit_block
        # Exit-block phis that received values from the header now
        # receive them from the preheader.
        for phi in cand.exit_block.phis():
            phi.incoming = [
                (v, pre if blk is header else blk) for v, blk in phi.incoming
            ]

        # The loop's results flow from the call now.
        func.replace_all_uses(cand.acc, call)
        func.replace_all_uses(cand.iv.phi, cand.bound)

        # Drop the dead loop blocks entirely.
        for block in list(cand.loop.blocks):
            func.blocks.remove(block)
        ctx.bump(f"{self.name}.loops_offloaded")
