"""The STREAM benchmark (McCalpin), far-memory edition.

§4.2/§4.3 use STREAM's "Sum" (``sum += a[i]``, one access per
iteration) and "Copy" (``a[i] = b[i]``, two accesses) kernels over
multi-GB integer arrays: sequential access, perfect spatial locality,
tiny elements — the best case for loop chunking and prefetching and the
worst case for per-access guards.

The workload runs against any of the four runtimes through their
closed forms (``cost_plan``); per-pass residency follows the steady-state
assumption that a fraction ``local/working_set`` of a cyclically
scanned array is found local (pass 0 starts cold).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from repro.aifm.runtime import AIFMRuntime
from repro.errors import WorkloadError
from repro.fastswap.runtime import FastswapRuntime
from repro.sim.local import LocalRuntime
from repro.sim.plan import AccessPattern, AccessPlan
from repro.trackfm.runtime import GuardStrategy, TrackFMRuntime

#: Per-access cost inside a tight streaming loop: the load/store plus its
#: share of induction-variable bookkeeping, well below the standalone
#: 36-cycle probe of Table 1 (which includes call/serialization overhead).
STREAM_BODY_CYCLES = 15.0


class StreamKernel(enum.Enum):
    """Which STREAM kernel to run.

    The paper's §4.2 uses Sum (one read) and Copy (read + write); Scale
    (read + write with a multiply) and Triad (two reads + one write) are
    the rest of McCalpin's suite, included for completeness.
    """

    SUM = "sum"
    COPY = "copy"
    SCALE = "scale"
    TRIAD = "triad"


#: (reads per element, writes per element, arrays) per kernel.
_KERNEL_SHAPE = {
    StreamKernel.SUM: (1, 0, 1),
    StreamKernel.COPY: (1, 1, 2),
    StreamKernel.SCALE: (1, 1, 2),
    StreamKernel.TRIAD: (2, 1, 3),
}


@dataclass
class StreamWorkload:
    """One STREAM configuration (sizes already scaled)."""

    #: Total working set in bytes (both arrays together for Copy).
    working_set: int
    kernel: StreamKernel = StreamKernel.SUM
    #: STREAM's arrays hold 4-byte integers in the paper's §4.2 runs.
    elem_size: int = 4
    passes: int = 4
    body_cycles: float = STREAM_BODY_CYCLES

    def __post_init__(self) -> None:
        if self.working_set <= 0:
            raise WorkloadError("working set must be positive")
        if self.passes < 1:
            raise WorkloadError("need at least one pass")

    @property
    def _shape(self):
        return _KERNEL_SHAPE[self.kernel]

    @property
    def arrays(self) -> int:
        return self._shape[2]

    @property
    def accesses_per_elem(self) -> int:
        reads, writes, _ = self._shape
        return reads + writes

    @property
    def array_bytes(self) -> int:
        """Bytes per array (the working set is split across the arrays)."""
        return self.working_set // self.arrays

    @property
    def elems_per_array(self) -> int:
        return max(1, self.array_bytes // self.elem_size)

    def _resident_fraction(self, local_memory: int, pass_idx: int) -> float:
        if pass_idx == 0:
            return 0.0
        return min(1.0, local_memory / self.working_set)

    def _plans(self, body_cycles: Optional[float]):
        """One plan per scan of a kernel pass: its reads, then its writes."""
        reads, writes, _arrays = self._shape
        read = AccessPlan(
            AccessPattern.SEQUENTIAL, self.elems_per_array, self.elem_size,
            body_cycles=body_cycles,
        )
        return [read] * reads + [replace(read, is_write=True)] * writes

    # -- per-runtime drivers ------------------------------------------------

    def run_trackfm(
        self, runtime: TrackFMRuntime, strategy: GuardStrategy
    ) -> float:
        """Total cycles for all passes under one guard strategy."""
        local = runtime.config.local_memory
        plans = self._plans(self.body_cycles)
        total = 0.0
        for p in range(self.passes):
            frac = self._resident_fraction(local, p)
            for plan in plans:
                total += runtime.cost_plan(plan, frac, strategy)
        return total

    def run_fastswap(self, runtime: FastswapRuntime) -> float:
        local = runtime.config.local_memory
        plans = self._plans(self.body_cycles)
        under_pressure = local < self.working_set
        total = 0.0
        for p in range(self.passes):
            frac = self._resident_fraction(local, p)
            for plan in plans:
                total += runtime.cost_plan(plan, frac, under_pressure)
        return total

    def run_aifm(self, runtime: AIFMRuntime) -> float:
        local = runtime.config.local_memory
        # AIFM's iterator body is the standalone access, not the tight loop's.
        plans = self._plans(None)
        total = 0.0
        for p in range(self.passes):
            frac = self._resident_fraction(local, p)
            for plan in plans:
                total += runtime.cost_plan(plan, frac)
        return total

    def run_local(self, runtime: LocalRuntime) -> float:
        plans = self._plans(self.body_cycles)
        total = 0.0
        for _ in range(self.passes):
            for plan in plans:
                total += runtime.cost_plan(plan)
        return total

    # -- metrics the figures report --------------------------------------------

    def bandwidth_mb_per_s(self, cycles: float, cpu_hz: float = 2.4e9) -> float:
        """STREAM's default metric: MB/s of application data touched."""
        if cycles <= 0:
            return 0.0
        bytes_touched = (
            self.passes * self.accesses_per_elem * self.elems_per_array * self.elem_size
        )
        seconds = cycles / cpu_hz
        return bytes_touched / seconds / 1e6
