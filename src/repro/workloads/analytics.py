"""The NYC-taxi analytics application (§4.5, Figs. 14 and 15).

The paper adapts a Kaggle taxi-trip analysis to a 31 GB working set:
"many column scan operations, which involve tight loops with almost no
temporal locality but a high degree of spatial locality", plus "several
aggregation operations that involve loops that iterate over small
collections of table rows (low object density)".

We synthesize a taxi-shaped dataframe, run the analysis pipeline to get
its access plans, and cost those plans on each system's runtime.  The plans
are decided exactly the way the compiler decides them: the chunking
cost model approves the long scans and (under the profile-guided
policy) rejects the short aggregation loops.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.aifm.runtime import AIFMRuntime
from repro.compiler.cost_model import ChunkingCostModel, LoopShape
from repro.errors import WorkloadError
from repro.fastswap.runtime import FastswapRuntime
from repro.sim.local import LocalRuntime
from repro.sim.metrics import Metrics
from repro.sim.plan import AccessPattern, AccessPlan
from repro.trackfm.runtime import GuardStrategy, TrackFMRuntime
from repro.workloads.dataframe import Column, DataFrame

#: Tight column-scan loop body cost per element.
SCAN_BODY_CYCLES = 12.0
#: Aggregation loop body cost per element (branchier).
AGG_BODY_CYCLES = 20.0

#: Rows per aggregation group in the taxi pipeline (small collections).
ROWS_PER_GROUP = 8

#: Fastswap refaults under cgroup pressure: the kernel's reclaim evicts
#: pages that are still live (readahead pollution + coarse LRU), so at
#: resident fraction r each non-resident page faults
#: ``1 + FASTSWAP_THRASH * (1 - r)`` times, refaults TrackFM's
#: object-hotness tracking avoids (§4.5).
FASTSWAP_THRASH = 0.75
#: Swap readahead credit: the kernel clusters a sequential scan's
#: swap-ins, so each of its faults blocks for half its cost (the fault
#: still occurs and is counted).
READAHEAD_FAULT_SHARE = 0.5


class AnalyticsChunking(enum.Enum):
    """Fig. 15's three TrackFM chunking policies."""

    BASELINE = "baseline"
    ALL_LOOPS = "all_loops"
    HIGH_DENSITY = "high_density"


def build_taxi_frame(n_rows: int, with_values: bool = False, seed: int = 3) -> DataFrame:
    """A taxi-trip-shaped dataframe (8-byte numeric columns)."""
    if n_rows <= 0:
        raise WorkloadError("n_rows must be positive")
    rng = np.random.default_rng(seed)

    def values(gen) -> Optional[np.ndarray]:
        return gen() if with_values else None

    cols = [
        Column("pickup_hour", n_rows, 8, values(lambda: rng.integers(0, 24, n_rows))),
        Column("trip_distance", n_rows, 8, values(lambda: rng.exponential(2.5, n_rows))),
        Column("fare", n_rows, 8, values(lambda: rng.exponential(12.0, n_rows))),
        Column("tip", n_rows, 8, values(lambda: rng.exponential(2.0, n_rows))),
        Column("passengers", n_rows, 8, values(lambda: rng.integers(1, 6, n_rows))),
    ]
    return DataFrame(cols)


def run_taxi_pipeline(frame: DataFrame) -> List[AccessPlan]:
    """Execute the analysis; returns the access plans it generated.

    Mirrors the Kaggle notebook's flow: distribution stats over
    distances and fares, a derived fare-per-mile column, and hourly /
    per-group aggregations.
    """
    n_groups = max(1, frame.n_rows // ROWS_PER_GROUP)
    frame.reset_plans()
    frame.scan_mean("trip_distance")
    frame.filter_count("trip_distance", lambda d: d > 0.5)
    frame.scan_mean("fare")
    frame.combine("fare", "trip_distance", "fare_per_mile", lambda f, d: f / (d + 1e-9))
    frame.scan_mean("fare_per_mile")
    frame.groupby_agg("pickup_hour", "fare", n_groups=n_groups)
    frame.groupby_agg("pickup_hour", "tip", n_groups=n_groups)
    frame.scan_sum("passengers")
    return frame.reset_plans()


@dataclass
class AnalyticsWorkload:
    """The 31 GB-shaped analytics run (sizes already scaled).

    Each run costs the pipeline's plans onto the runtime a caller
    passes and returns the runtime's metrics, so pass a fresh runtime
    per run.
    """

    working_set: int

    def __post_init__(self) -> None:
        if self.working_set <= 0:
            raise WorkloadError("working set must be positive")
        # 5 base columns x 8 bytes.
        self.n_rows = max(1, self.working_set // 40)
        frame = build_taxi_frame(self.n_rows)
        self.plans = [
            replace(
                plan,
                body_cycles=SCAN_BODY_CYCLES
                if plan.pattern is AccessPattern.SEQUENTIAL
                else AGG_BODY_CYCLES,
            )
            for plan in run_taxi_pipeline(frame)
        ]

    def _resident(self, runtime) -> float:
        return min(1.0, runtime.config.local_memory / self.working_set)

    def run_trackfm(
        self,
        runtime: TrackFMRuntime,
        policy: AnalyticsChunking = AnalyticsChunking.HIGH_DENSITY,
    ) -> Tuple[float, Metrics]:
        """The compiler chunks a plan's loop as ``policy`` says; the
        profile-guided policy asks the chunking cost model."""
        model = ChunkingCostModel(runtime.object_size, runtime.costs)
        resident = self._resident(runtime)
        cycles = 0.0
        for plan in self.plans:
            if policy is AnalyticsChunking.HIGH_DENSITY:
                chunked = model.should_chunk(
                    LoopShape(
                        iterations_per_entry=plan.iterations_per_entry,
                        elem_size=plan.elem_size,
                        entries=plan.entries,
                    )
                )
            else:
                chunked = policy is AnalyticsChunking.ALL_LOOPS
            strategy = (
                GuardStrategy.CHUNKED_PREFETCH if chunked else GuardStrategy.NAIVE
            )
            cycles += runtime.cost_plan(plan, resident, strategy)
        return cycles, runtime.metrics

    def run_fastswap(self, runtime: FastswapRuntime) -> Tuple[float, Metrics]:
        resident = self._resident(runtime)
        refaults = 1.0 + FASTSWAP_THRASH * (1.0 - resident)
        cycles = 0.0
        for plan in self.plans:
            share = (
                READAHEAD_FAULT_SHARE
                if plan.pattern is AccessPattern.SEQUENTIAL
                else 1.0
            )
            cycles += runtime.cost_plan(
                plan, resident, refaults=refaults, fault_share=share
            )
        return cycles, runtime.metrics

    def run_aifm(self, runtime: AIFMRuntime) -> Tuple[float, Metrics]:
        """The hand-ported AIFM version: library iterators + prefetch."""
        resident = self._resident(runtime)
        cycles = 0.0
        for plan in self.plans:
            cycles += runtime.cost_plan(plan, resident)
        return cycles, runtime.metrics

    def run_local(self, runtime: LocalRuntime) -> Tuple[float, Metrics]:
        cycles = 0.0
        for plan in self.plans:
            cycles += runtime.cost_plan(plan)
        return cycles, runtime.metrics
