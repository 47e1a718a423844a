"""A small columnar dataframe substrate.

The paper's analytics application "builds on a custom C++ dataframe
library" (ported to C for NOELLE's sake).  This module is our
equivalent substrate: typed columns, sequential scans, filters,
element-wise combinations and group-by aggregations.  It serves two
masters:

* the examples use it as a *real* in-memory dataframe (columns carry
  numpy arrays and the operations compute actual results);
* the benchmarks use the :class:`~repro.sim.plan.AccessPlan` each
  operation reports, which the runtimes' closed forms price.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.sim.plan import AccessPattern, AccessPlan


class Column:
    """A typed column; values optional (shape-only for benchmarks)."""

    def __init__(
        self,
        name: str,
        length: int,
        elem_size: int = 8,
        values: Optional[np.ndarray] = None,
    ) -> None:
        if length <= 0 or elem_size <= 0:
            raise WorkloadError("column length and element size must be positive")
        if values is not None and len(values) != length:
            raise WorkloadError(f"column {name}: values length != {length}")
        self.name = name
        self.length = length
        self.elem_size = elem_size
        self.values = values

    @property
    def nbytes(self) -> int:
        return self.length * self.elem_size

    def _require_values(self) -> np.ndarray:
        if self.values is None:
            raise WorkloadError(f"column {self.name} is shape-only (no values)")
        return self.values


class DataFrame:
    """Columns plus an access-plan log of every operation performed."""

    def __init__(self, columns: Optional[List[Column]] = None) -> None:
        self._columns: Dict[str, Column] = {}
        self.plans: List[AccessPlan] = []
        for col in columns or []:
            self.add_column(col)

    def add_column(self, col: Column) -> None:
        if col.name in self._columns:
            raise WorkloadError(f"duplicate column {col.name}")
        if self._columns:
            first = next(iter(self._columns.values()))
            if col.length != first.length:
                raise WorkloadError("all columns must share a length")
        self._columns[col.name] = col

    def column(self, name: str) -> Column:
        col = self._columns.get(name)
        if col is None:
            raise WorkloadError(f"no column {name}")
        return col

    def column_names(self) -> List[str]:
        return list(self._columns.keys())

    @property
    def n_rows(self) -> int:
        if not self._columns:
            return 0
        return next(iter(self._columns.values())).length

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self._columns.values())

    # -- operations --------------------------------------------------------

    def _log(self, plan: AccessPlan) -> AccessPlan:
        self.plans.append(plan)
        return plan

    def scan_sum(self, name: str) -> float:
        """Sum a column (sequential scan)."""
        col = self.column(name)
        self._log(AccessPlan(AccessPattern.SEQUENTIAL, col.length, col.elem_size))
        if col.values is None:
            return 0.0
        return float(np.sum(col._require_values()))

    def scan_mean(self, name: str) -> float:
        col = self.column(name)
        self._log(AccessPlan(AccessPattern.SEQUENTIAL, col.length, col.elem_size))
        if col.values is None:
            return 0.0
        return float(np.mean(col._require_values()))

    def filter_count(self, name: str, predicate: Callable[[np.ndarray], np.ndarray]) -> int:
        """Count rows matching a predicate (sequential scan)."""
        col = self.column(name)
        self._log(AccessPlan(AccessPattern.SEQUENTIAL, col.length, col.elem_size))
        if col.values is None:
            return 0
        return int(np.count_nonzero(predicate(col._require_values())))

    def combine(self, a: str, b: str, out: str, fn: Callable) -> Column:
        """Element-wise combination of two columns into a new one."""
        ca, cb = self.column(a), self.column(b)
        self._log(AccessPlan(AccessPattern.SEQUENTIAL, ca.length, ca.elem_size))
        self._log(AccessPlan(AccessPattern.SEQUENTIAL, cb.length, cb.elem_size))
        self._log(
            AccessPlan(
                AccessPattern.SEQUENTIAL, ca.length, ca.elem_size, is_write=True
            )
        )
        values = None
        if ca.values is not None and cb.values is not None:
            values = fn(ca.values, cb.values)
        col = Column(out, ca.length, ca.elem_size, values)
        self.add_column(col)
        return col

    def groupby_agg(
        self,
        key: str,
        value: str,
        n_groups: int,
        agg: str = "mean",
    ) -> Dict[int, float]:
        """Group rows by a key column and aggregate a value column.

        The aggregation pass iterates each group's (small) row
        collection in its own loop — the low-object-density pattern
        that makes indiscriminate chunking lose (Fig. 15).
        """
        ck, cv = self.column(key), self.column(value)
        if n_groups <= 0:
            raise WorkloadError("n_groups must be positive")
        # Key scan to build group membership, then per-group loops.
        self._log(AccessPlan(AccessPattern.SEQUENTIAL, ck.length, ck.elem_size))
        self._log(
            AccessPlan(
                AccessPattern.SHORT_LOOPS,
                cv.length,
                cv.elem_size,
                entries=n_groups,
            )
        )
        if ck.values is None or cv.values is None:
            return {}
        keys = ck._require_values().astype(np.int64) % n_groups
        out: Dict[int, float] = {}
        for g in range(n_groups):
            members = cv._require_values()[keys == g]
            if len(members) == 0:
                out[g] = 0.0
            elif agg == "mean":
                out[g] = float(np.mean(members))
            elif agg == "sum":
                out[g] = float(np.sum(members))
            elif agg == "max":
                out[g] = float(np.max(members))
            else:
                raise WorkloadError(f"unknown aggregation {agg!r}")
        return out

    def reset_plans(self) -> List[AccessPlan]:
        """Return and clear the logged access plans."""
        plans, self.plans = self.plans, []
        return plans
