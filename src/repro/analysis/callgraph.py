"""Direct-call graph over a module."""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir.instructions import Call
from repro.ir.module import Module


class CallGraph:
    """Callee sets per function, plus reachability from an entry point."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.calls: Dict[str, Set[str]] = {}
        for func in module.defined_functions():
            callees: Set[str] = set()
            for inst in func.instructions():
                if isinstance(inst, Call):
                    callees.add(inst.callee)
            self.calls[func.name] = callees

    def callees(self, name: str) -> Set[str]:
        return set(self.calls.get(name, set()))

    def reachable_from(self, entry: str = "main") -> Set[str]:
        """Function names reachable from ``entry`` via direct calls."""
        seen: Set[str] = set()
        work = [entry]
        while work:
            name = work.pop()
            if name in seen:
                continue
            seen.add(name)
            work.extend(self.calls.get(name, set()))
        return seen

    def call_sites_of(self, callee: str) -> List[Call]:
        """Every direct call instruction targeting ``callee``."""
        sites: List[Call] = []
        for func in self.module.defined_functions():
            for inst in func.instructions():
                if isinstance(inst, Call) and inst.callee == callee:
                    sites.append(inst)
        return sites
