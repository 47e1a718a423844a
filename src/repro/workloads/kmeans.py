"""k-means: the loop-chunking cautionary tale (§4.2, Fig. 8).

The paper runs k-means over 30 M points (1 GB working set) and shows
that applying loop chunking *indiscriminately* slows the program ~4x,
because k-means is built out of short, deeply nested loops: the
per-point distance computation iterates over a handful of dimensions,
re-entering the chunked loop — and paying its setup — once per point.
The profile-guided cost model instead chunks only the long, dense
point-array scans ("103 array pointers [detected], after applying the
cost model only 27 were optimized"), yielding ~2.5x speedup.

Loop structure modelled (per k-means iteration):

* assignment: for each point, for each centroid, a short loop over
  ``dims`` coordinates — ``n_points * k`` entries of a ``dims``-trip
  loop; accesses sweep the point array once with high temporal reuse;
* update: one long sequential scan accumulating per-cluster sums.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.sim.plan import AccessPattern, AccessPlan
from repro.trackfm.runtime import GuardStrategy, TrackFMRuntime

#: Distance-kernel base cost per coordinate access (fused mul/add).
KMEANS_BODY_CYCLES = 12.0


class ChunkMode(enum.Enum):
    """Which loops get chunked, mirroring Fig. 8's three lines."""

    #: Naive guards everywhere (the normalization baseline).
    BASELINE = "baseline"
    #: Chunk every candidate loop, including the per-point short loops.
    ALL_LOOPS = "all_loops"
    #: Profile + cost model: chunk only the long point-array scans.
    HIGH_DENSITY = "high_density"


@dataclass
class KMeansWorkload:
    """One k-means configuration (sizes already scaled)."""

    n_points: int
    dims: int = 8
    k: int = 10
    iterations: int = 2
    coord_size: int = 4
    body_cycles: float = KMEANS_BODY_CYCLES

    def __post_init__(self) -> None:
        if min(self.n_points, self.dims, self.k, self.iterations) < 1:
            raise WorkloadError("k-means parameters must be positive")

    @property
    def point_size(self) -> int:
        return self.dims * self.coord_size

    @property
    def working_set(self) -> int:
        return self.n_points * self.point_size

    def accesses_per_iteration(self) -> int:
        # Assignment (k distance loops per point) + update scan.
        return self.n_points * self.dims * (self.k + 1)

    def run(self, runtime: TrackFMRuntime, mode: ChunkMode) -> tuple:
        """(cycles, the runtime's Metrics) for the whole run under one
        chunk policy; pass a fresh runtime per run."""
        # Chunk setups per pass: one per point when the per-point
        # distance loop is chunked too, else one each for the assignment
        # and update sweeps.  The point array is read k + 1 times a pass.
        plan = AccessPlan(
            AccessPattern.SEQUENTIAL,
            self.accesses_per_iteration(),
            self.coord_size,
            entries=self.n_points if mode is ChunkMode.ALL_LOOPS else 2,
            footprint=self.working_set,
            body_cycles=self.body_cycles,
        )
        resident = min(1.0, runtime.config.local_memory / self.working_set)
        strategy = (
            GuardStrategy.NAIVE if mode is ChunkMode.BASELINE
            else GuardStrategy.CHUNKED_PREFETCH
        )
        cycles = 0.0
        for _ in range(self.iterations):
            cycles += runtime.cost_plan(plan, resident, strategy)
        return cycles, runtime.metrics

    def speedup_vs_baseline(self, mode: ChunkMode, runtime: TrackFMRuntime) -> float:
        """The Fig. 8 y-axis: baseline cycles / mode cycles.

        Both runs cost onto ``runtime``: the ratio reads only the cycles
        each returns.
        """
        base, _ = self.run(runtime, ChunkMode.BASELINE)
        other, _ = self.run(runtime, mode)
        if other <= 0:
            return 0.0
        return base / other
