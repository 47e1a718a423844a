"""STREAM figures: 7 (chunking), 10 (object size), 11 (prefetch), 12 (vs Fastswap)."""

from __future__ import annotations

from typing import List, Sequence

from repro.bench.harness import (
    CPU_HZ,
    DEFAULT_BENCH_SCALE,
    ExperimentResult,
    model_fastswap,
    model_trackfm,
)
from repro.fastswap.runtime import FastswapRuntime
from repro.machine.scale import ScaleModel
from repro.trackfm.runtime import GuardStrategy, TrackFMRuntime
from repro.units import BASE_PAGE, GB, KB
from repro.workloads.stream import StreamKernel, StreamWorkload

#: Fractions of the working set granted as local memory (the x-axes).
LOCAL_FRACTIONS = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)


def _trackfm(working_set: int, local_frac: float, object_size: int) -> TrackFMRuntime:
    return model_trackfm(object_size, max(object_size, int(working_set * local_frac)))


def _fastswap(working_set: int, local_frac: float) -> FastswapRuntime:
    return model_fastswap(max(BASE_PAGE, int(working_set * local_frac)))


def _stream_cycles(
    workload: StreamWorkload,
    working_set: int,
    frac: float,
    strategy: GuardStrategy,
    object_size: int = 4 * KB,
) -> float:
    return workload.run_trackfm(_trackfm(working_set, frac, object_size), strategy)


def fig07(
    scale: ScaleModel = DEFAULT_BENCH_SCALE,
    fractions: Sequence[float] = LOCAL_FRACTIONS,
) -> ExperimentResult:
    """Loop chunking speedup on STREAM Sum/Copy (12 GB working set)."""
    working_set = scale.bytes(12 * GB)
    result = ExperimentResult(
        "fig07",
        "Loop chunking speedup over the naive transform (STREAM)",
        "local mem [% of 12GB]",
        [f"{f:.0%}" for f in fractions],
        "speedup (chunked / naive, no prefetch)",
    )
    for kernel in (StreamKernel.SUM, StreamKernel.COPY):
        speedups: List[float] = []
        for frac in fractions:
            wl = StreamWorkload(working_set, kernel=kernel)
            naive = _stream_cycles(wl, working_set, frac, GuardStrategy.NAIVE)
            wl2 = StreamWorkload(working_set, kernel=kernel)
            chunked = _stream_cycles(wl2, working_set, frac, GuardStrategy.CHUNKED)
            speedups.append(naive / chunked)
        result.add_series(kernel.value.capitalize(), speedups)
    result.note("paper: 1.5-2x, rising toward full local memory")
    return result


def fig10(
    scale: ScaleModel = DEFAULT_BENCH_SCALE,
    object_sizes: Sequence[int] = (4 * KB, 2 * KB, 1 * KB, 512, 256),
    fractions: Sequence[float] = LOCAL_FRACTIONS,
) -> ExperimentResult:
    """Object-size impact on STREAM copy bandwidth (9 GB working set)."""
    working_set = scale.bytes(9 * GB)
    result = ExperimentResult(
        "fig10",
        "STREAM copy far-memory bandwidth vs object size",
        "local mem [% of 9GB]",
        [f"{f:.0%}" for f in fractions],
        "memory bandwidth (MB/s)",
    )
    for size in object_sizes:
        bw: List[float] = []
        for frac in fractions:
            wl = StreamWorkload(working_set, kernel=StreamKernel.COPY)
            cycles = _stream_cycles(
                wl, working_set, frac, GuardStrategy.CHUNKED_PREFETCH, size
            )
            bw.append(wl.bandwidth_mb_per_s(cycles, CPU_HZ))
        label = f"{size // KB}KB" if size >= KB else f"{size}B"
        result.add_series(label, bw)
    result.note("paper: high spatial locality favours 4KB objects")
    return result


def fig11(
    scale: ScaleModel = DEFAULT_BENCH_SCALE,
    fractions: Sequence[float] = LOCAL_FRACTIONS,
) -> ExperimentResult:
    """Prefetching + chunking vs chunking alone (STREAM, 12 GB)."""
    working_set = scale.bytes(12 * GB)
    result = ExperimentResult(
        "fig11",
        "Speedup of prefetching coupled with loop chunking (STREAM)",
        "local mem [% of 12GB]",
        [f"{f:.0%}" for f in fractions],
        "speedup (chunk+prefetch / chunk only)",
    )
    for kernel in (StreamKernel.SUM, StreamKernel.COPY):
        speedups: List[float] = []
        for frac in fractions:
            wl = StreamWorkload(working_set, kernel=kernel)
            plain = _stream_cycles(wl, working_set, frac, GuardStrategy.CHUNKED)
            wl2 = StreamWorkload(working_set, kernel=kernel)
            pref = _stream_cycles(
                wl2, working_set, frac, GuardStrategy.CHUNKED_PREFETCH
            )
            speedups.append(plain / pref)
        result.add_series(kernel.value.capitalize(), speedups)
    result.note("paper: up to ~5x when remote costs dominate, shrinking to ~1x")
    return result


def fig12(
    scale: ScaleModel = DEFAULT_BENCH_SCALE,
    fractions: Sequence[float] = LOCAL_FRACTIONS,
) -> ExperimentResult:
    """TrackFM (chunking + prefetching) vs Fastswap on STREAM (12 GB)."""
    working_set = scale.bytes(12 * GB)
    result = ExperimentResult(
        "fig12",
        "STREAM speedup relative to Fastswap",
        "local mem [% of 12GB]",
        [f"{f:.0%}" for f in fractions],
        "speedup vs Fastswap",
    )
    for kernel in (StreamKernel.SUM, StreamKernel.COPY):
        speedups: List[float] = []
        for frac in fractions:
            wl = StreamWorkload(working_set, kernel=kernel)
            tfm = _stream_cycles(
                wl, working_set, frac, GuardStrategy.CHUNKED_PREFETCH
            )
            wl2 = StreamWorkload(working_set, kernel=kernel)
            fsw = wl2.run_fastswap(_fastswap(working_set, frac))
            speedups.append(fsw / tfm)
        result.add_series(kernel.value.capitalize(), speedups)
    result.note("paper: ~2.7x (Sum) and ~2.9x (Copy) over Fastswap")
    return result
