"""Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.cfg import CFG, reverse_postorder
from repro.ir.basicblock import BasicBlock


class DominatorTree:
    """Immediate-dominator map and dominance queries for one function."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self._rpo = reverse_postorder(cfg)
        self._rpo_index = {b: i for i, b in enumerate(self._rpo)}
        self._compute()

    def _intersect(self, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        while a is not b:
            while self._rpo_index[a] > self._rpo_index[b]:
                parent = self.idom[a]
                assert parent is not None
                a = parent
            while self._rpo_index[b] > self._rpo_index[a]:
                parent = self.idom[b]
                assert parent is not None
                b = parent
        return a

    def _compute(self) -> None:
        entry = self.cfg.entry
        for block in self._rpo:
            self.idom[block] = None
        self.idom[entry] = entry
        changed = True
        while changed:
            changed = False
            for block in self._rpo:
                if block is entry:
                    continue
                new_idom: Optional[BasicBlock] = None
                for pred in self.cfg.preds(block):
                    if pred not in self._rpo_index:
                        continue  # unreachable predecessor
                    if self.idom.get(pred) is None:
                        continue
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = self._intersect(pred, new_idom)
                if new_idom is not None and self.idom[block] is not new_idom:
                    self.idom[block] = new_idom
                    changed = True
        # Root's idom is conventionally None for clients.
        self.idom[entry] = None

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True when ``a`` dominates ``b`` (reflexively)."""
        node: Optional[BasicBlock] = b
        while node is not None:
            if node is a:
                return True
            node = self.idom.get(node)
        return False

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)

    def dominator_chain(self, block: BasicBlock) -> List[BasicBlock]:
        """Blocks dominating ``block``, from itself up to the entry."""
        chain: List[BasicBlock] = []
        node: Optional[BasicBlock] = block
        while node is not None:
            chain.append(node)
            node = self.idom.get(node)
        return chain

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        """Immediate children of ``block`` in the dominator tree."""
        return [b for b, parent in self.idom.items() if parent is block]
