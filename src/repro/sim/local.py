"""Local-only baseline: all memory fits; nothing is remote.

Figs. 14–17 normalize to "a setup with only local memory"; this runtime
provides that denominator with the same accounting interface as the
far-memory runtimes.
"""

from __future__ import annotations

from repro.machine.costs import AccessKind, CostTable, DEFAULT_COSTS
from repro.sim.metrics import Metrics
from repro.sim.plan import AccessPlan


class LocalRuntime:
    """Charges only raw access costs; never faults, never fetches."""

    def __init__(self, costs: CostTable = DEFAULT_COSTS) -> None:
        self.costs = costs
        self.metrics = Metrics()

    def allocate(self, size: int) -> int:
        return 0

    def access(
        self, offset: int, kind: AccessKind = AccessKind.READ, size: int = 8
    ) -> float:
        cycles = self.costs.local_access
        self.metrics.accesses += 1
        self.metrics.cycles += cycles
        return cycles

    def cost_plan(self, plan: AccessPlan) -> float:
        """Accesses × body: everything is local."""
        body = self.costs.local_access if plan.body_cycles is None else plan.body_cycles
        cycles = plan.n_elems * body
        self.metrics.accesses += plan.n_elems
        self.metrics.cycles += cycles
        return cycles
