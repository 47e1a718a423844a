"""Shared benchmark plumbing: result containers, text rendering and the
runtimes the workload models cost their plans on."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.aifm.pool import PoolConfig
from repro.aifm.runtime import AIFMRuntime
from repro.errors import BenchError
from repro.fastswap.runtime import FastswapConfig, FastswapRuntime
from repro.machine.scale import ScaleModel
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import BASE_PAGE

#: The testbed's clock (Xeon E5-2640v4 @ 2.40 GHz).
CPU_HZ = 2.4e9

#: Default working-set shrink for benchmark sweeps (GB -> MB).
DEFAULT_BENCH_SCALE = ScaleModel(factor=1024)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (Fig. 17a's GeoM column)."""
    vals = [v for v in values if v > 0]
    if not vals:
        raise BenchError("geomean of no positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


@dataclass
class Series:
    """One line/bar group of a figure."""

    name: str
    values: List[float]

    def __post_init__(self) -> None:
        self.values = [float(v) for v in self.values]


@dataclass
class ExperimentResult:
    """One reproduced table or figure."""

    experiment: str
    title: str
    #: X-axis (or row) labels.
    x_label: str
    x_values: List[object]
    #: Y-axis description.
    y_label: str
    series: List[Series] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_series(self, name: str, values: Sequence[float]) -> None:
        if len(values) != len(self.x_values):
            raise BenchError(
                f"{self.experiment}: series {name!r} has {len(values)} points "
                f"for {len(self.x_values)} x values"
            )
        self.series.append(Series(name, list(values)))

    def get(self, name: str) -> Series:
        for s in self.series:
            if s.name == name:
                return s
        raise BenchError(f"{self.experiment}: no series {name!r}")

    def note(self, text: str) -> None:
        self.notes.append(text)

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        """A compact fixed-width table, printable from the bench harness."""
        header = [self.x_label] + [s.name for s in self.series]
        rows: List[List[str]] = []
        for i, x in enumerate(self.x_values):
            row = [self._fmt(x)]
            for s in self.series:
                row.append(self._fmt(s.values[i]))
            rows.append(row)
        widths = [
            max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
            for c in range(len(header))
        ]
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        lines.append(f"(y: {self.y_label})")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    @staticmethod
    def _fmt(v: object) -> str:
        if isinstance(v, float):
            if v == 0:
                return "0"
            if abs(v) >= 1000:
                return f"{v:,.0f}"
            if abs(v) >= 10:
                return f"{v:.1f}"
            return f"{v:.3f}"
        return str(v)


def local_memory_sweep(fractions: Sequence[float], working_set: int) -> List[int]:
    """Local-memory budgets for a sweep over working-set fractions."""
    out = []
    for f in fractions:
        if not 0 < f <= 1.0:
            raise BenchError(f"local-memory fraction {f} out of (0, 1]")
        out.append(max(4096, int(working_set * f) // 4096 * 4096))
    return out


# -- runtimes for the workload models --------------------------------------
#
# A model prices plans through a runtime's closed form (``cost_plan``),
# which reads the runtime's config, costs and link but never its heap,
# so a one-granule heap is enough.


def model_trackfm(object_size: int, local_memory: int) -> TrackFMRuntime:
    return TrackFMRuntime(
        PoolConfig(object_size=object_size, local_memory=local_memory, heap_size=object_size)
    )


def model_aifm(object_size: int, local_memory: int) -> AIFMRuntime:
    return AIFMRuntime(
        PoolConfig(object_size=object_size, local_memory=local_memory, heap_size=object_size)
    )


def model_fastswap(local_memory: int) -> FastswapRuntime:
    return FastswapRuntime(FastswapConfig(local_memory=local_memory, heap_size=BASE_PAGE))
