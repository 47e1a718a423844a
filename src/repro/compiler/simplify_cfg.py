"""CFG simplification: drop unreachable blocks, merge trivial chains.

Transform passes leave debris — the chunk transform splits edges, the
offload pass bypasses loops — and the verifier's phi/predecessor checks
make stale blocks an outright hazard.  This pass cleans up:

* blocks unreachable from the entry are deleted (phi edges from them
  are pruned);
* a block whose only predecessor ends in an unconditional branch and
  whose predecessor has no other successors is merged into it;
* conditional branches on constant conditions become unconditional.
"""

from __future__ import annotations

from repro.analysis.cfg import CFG
from repro.compiler.pass_manager import Pass, PassContext
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Br, CondBr
from repro.ir.module import Module
from repro.ir.values import Constant


class SimplifyCFGPass(Pass):
    """Iterative CFG cleanup to a fixed point."""

    name = "simplifycfg"

    def run(self, module: Module, ctx: PassContext) -> None:
        for func in module.defined_functions():
            changed = True
            guard = 0
            while changed and guard < 100:
                guard += 1
                changed = (
                    self._fold_constant_branches(func, ctx)
                    or self._remove_unreachable(func, ctx)
                    or self._merge_chains(func, ctx)
                )

    # -- constant branches ------------------------------------------------

    def _fold_constant_branches(self, func: Function, ctx: PassContext) -> bool:
        changed = False
        for block in func.blocks:
            term = block.terminator
            if not isinstance(term, CondBr):
                continue
            cond = term.condition
            if not isinstance(cond, Constant):
                continue
            taken = term.if_true if cond.value else term.if_false
            dropped = term.if_false if cond.value else term.if_true
            block.remove(term)
            block.append(Br(taken))
            if dropped is not taken:
                self._prune_phi_edges(dropped, block)
            ctx.bump(f"{self.name}.branches_folded")
            changed = True
        return changed

    # -- unreachable blocks --------------------------------------------------

    def _remove_unreachable(self, func: Function, ctx: PassContext) -> bool:
        cfg = CFG(func)
        reachable = cfg.reachable()
        dead = [b for b in func.blocks if b not in reachable]
        if not dead:
            return False
        dead_set = set(dead)
        for block in func.blocks:
            if block in dead_set:
                continue
            for phi in block.phis():
                phi.incoming = [
                    (v, pred) for v, pred in phi.incoming if pred not in dead_set
                ]
                phi.operands = [v for v, _ in phi.incoming]
        for block in dead:
            func.blocks.remove(block)
            ctx.bump(f"{self.name}.blocks_removed")
        return True

    # -- chain merging ----------------------------------------------------

    def _merge_chains(self, func: Function, ctx: PassContext) -> bool:
        cfg = CFG(func)
        for block in list(func.blocks):
            if block is func.entry:
                continue
            preds = cfg.preds(block)
            if len(preds) != 1:
                continue
            pred = preds[0]
            term = pred.terminator
            if not isinstance(term, Br) or term.target is not block:
                continue
            if block.phis():
                # Single-pred phis are trivially replaceable first.
                for phi in list(block.phis()):
                    value = phi.incoming_for(pred)
                    func.replace_all_uses(phi, value)
                    block.remove(phi)
            # Splice block's instructions into pred.
            pred.remove(term)
            for inst in list(block.instructions):
                block.remove(inst)
                pred.instructions.append(inst)
                inst.parent = pred
            # Successor phis must now name pred instead of block.
            new_term = pred.terminator
            if new_term is not None:
                for succ in new_term.successors():
                    for phi in succ.phis():
                        phi.incoming = [
                            (v, pred if blk is block else blk)
                            for v, blk in phi.incoming
                        ]
            func.blocks.remove(block)
            ctx.bump(f"{self.name}.blocks_merged")
            return True
        return False

    @staticmethod
    def _prune_phi_edges(block: BasicBlock, from_block: BasicBlock) -> None:
        for phi in block.phis():
            phi.incoming = [
                (v, pred) for v, pred in phi.incoming if pred is not from_block
            ]
            phi.operands = [v for v, _ in phi.incoming]
