"""Def-use chains: the data-dependence half of a PDG-lite."""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.values import Value


class DefUse:
    """Map each value to the instructions that use it."""

    def __init__(self, func: Function) -> None:
        self.function = func
        self._users: Dict[Value, List[Instruction]] = {}
        for inst in func.instructions():
            for op in inst.operands:
                self._users.setdefault(op, []).append(inst)

    def users(self, value: Value) -> List[Instruction]:
        """Instructions that use ``value`` as an operand."""
        return list(self._users.get(value, []))

    def has_users(self, value: Value) -> bool:
        return bool(self._users.get(value))

    def transitive_users(self, value: Value) -> Set[Instruction]:
        """All instructions reachable from ``value`` along def-use edges."""
        seen: Set[Instruction] = set()
        work: List[Value] = [value]
        while work:
            v = work.pop()
            for user in self._users.get(v, []):
                if user not in seen:
                    seen.add(user)
                    work.append(user)
        return seen

    def is_dead(self, inst: Instruction) -> bool:
        """A non-void, side-effect-free instruction with no users is dead."""
        if inst.type.is_void():
            return False
        if inst.opcode in ("call",):
            return False  # calls may have side effects
        return not self.has_users(inst)
