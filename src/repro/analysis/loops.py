"""Natural-loop detection from dominance back edges.

A back edge is an edge ``latch -> header`` where ``header`` dominates
``latch``; the natural loop is everything that can reach the latch
without passing through the header.  Loops with the same header are
merged (as LLVM does).  Nesting is recovered by block containment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.cfg import CFG
from repro.analysis.dominators import DominatorTree
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function


class Loop:
    """One natural loop: header, member blocks, latches, exits."""

    def __init__(self, header: BasicBlock) -> None:
        self.header = header
        self.blocks: Set[BasicBlock] = {header}
        self.latches: List[BasicBlock] = []
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []

    @property
    def depth(self) -> int:
        """Nesting depth; top-level loops have depth 1."""
        d = 1
        node = self.parent
        while node is not None:
            d += 1
            node = node.parent
        return d

    def exit_edges(self, cfg: CFG) -> List[tuple]:
        """(inside_block, outside_block) pairs leaving the loop."""
        edges = []
        for block in self.blocks:
            for succ in cfg.succs(block):
                if succ not in self.blocks:
                    edges.append((block, succ))
        return edges

    def exit_blocks(self, cfg: CFG) -> List[BasicBlock]:
        """Outside blocks targeted by exit edges (deduplicated)."""
        seen: List[BasicBlock] = []
        for _, outside in self.exit_edges(cfg):
            if outside not in seen:
                seen.append(outside)
        return seen

    def preheader(self, cfg: CFG) -> Optional[BasicBlock]:
        """The unique out-of-loop predecessor of the header, if any."""
        outside = [p for p in cfg.preds(self.header) if p not in self.blocks]
        if len(outside) == 1:
            return outside[0]
        return None

    def instructions(self):
        """All instructions inside the loop, block layout order."""
        func = self.header.parent
        assert func is not None
        for block in func.blocks:
            if block in self.blocks:
                for inst in block.instructions:
                    yield inst

    def __repr__(self) -> str:
        return f"<Loop header=%{self.header.name} blocks={len(self.blocks)} depth={self.depth}>"


class LoopInfo:
    """All loops of one function, with nesting links."""

    def __init__(self, loops: List[Loop]) -> None:
        self.loops = loops

    def top_level(self) -> List[Loop]:
        return [l for l in self.loops if l.parent is None]

    def innermost(self) -> List[Loop]:
        return [l for l in self.loops if not l.children]

    def loop_of(self, block: BasicBlock) -> Optional[Loop]:
        """The innermost loop containing ``block``, if any."""
        best: Optional[Loop] = None
        for loop in self.loops:
            if block in loop.blocks:
                if best is None or loop.depth > best.depth:
                    best = loop
        return best

    def __iter__(self):
        return iter(self.loops)

    def __len__(self) -> int:
        return len(self.loops)


def _collect_loop(header: BasicBlock, latch: BasicBlock, cfg: CFG) -> Set[BasicBlock]:
    """Blocks of the natural loop of edge ``latch -> header``."""
    body: Set[BasicBlock] = {header, latch}
    stack = [latch]
    while stack:
        block = stack.pop()
        if block is header:
            # Never walk past the header (matters for self-loops, where
            # the latch IS the header: its out-of-loop predecessors must
            # not be swallowed into the loop).
            continue
        for pred in cfg.preds(block):
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body


def find_loops(func: Function) -> LoopInfo:
    """Detect natural loops and recover their nesting structure."""
    cfg = CFG(func)
    dom = DominatorTree(cfg)
    reachable = cfg.reachable()

    by_header: Dict[BasicBlock, Loop] = {}
    for block in func.blocks:
        if block not in reachable:
            continue
        for succ in cfg.succs(block):
            if succ in reachable and dom.dominates(succ, block):
                loop = by_header.get(succ)
                if loop is None:
                    loop = Loop(succ)
                    by_header[succ] = loop
                loop.latches.append(block)
                loop.blocks |= _collect_loop(succ, block, cfg)

    loops = list(by_header.values())
    # Nesting: the parent of L is the smallest loop strictly containing it.
    for loop in loops:
        best: Optional[Loop] = None
        for other in loops:
            if other is loop:
                continue
            if loop.blocks < other.blocks or (
                loop.blocks <= other.blocks and loop.header is not other.header
            ):
                if loop.header in other.blocks and loop.blocks <= other.blocks:
                    if best is None or len(other.blocks) < len(best.blocks):
                        best = other
        loop.parent = best
    for loop in loops:
        if loop.parent is not None:
            loop.parent.children.append(loop)
    return LoopInfo(loops)
