"""Hashmap figures: 9 (object size) and 13 (I/O amplification)."""

from __future__ import annotations

from typing import List, Sequence

from repro.bench.harness import CPU_HZ, ExperimentResult, model_fastswap, model_trackfm
from repro.machine.scale import ScaleModel
from repro.units import GB, KB, MB
from repro.workloads.hashmap import HashmapWorkload

#: Milder shrink for the hashmap: enough buckets for the zipf heat
#: aggregation to be smooth at every object size.
HASHMAP_SCALE = ScaleModel(factor=256)

FRACTIONS = (0.05, 0.1, 0.25, 0.5, 0.75, 1.0)


def _workload(scale: ScaleModel) -> HashmapWorkload:
    working_set = scale.bytes(2 * GB)
    return HashmapWorkload(
        working_set=working_set,
        n_lookups=scale.count(50_000_000, floor=100_000),
        skew=1.02,
        trace_bytes=scale.bytes(190 * MB),
    )


def fig09(
    scale: ScaleModel = HASHMAP_SCALE,
    object_sizes: Sequence[int] = (4 * KB, 2 * KB, 1 * KB, 512, 256),
    fractions: Sequence[float] = FRACTIONS,
) -> ExperimentResult:
    """Object-size impact on zipf hashmap throughput (2 GB working set).

    Fig. 9a sweeps local memory for each object size; Fig. 9b is the
    25 % column of the same data.
    """
    wl = _workload(scale)
    result = ExperimentResult(
        "fig09",
        "Hashmap (zipf 1.02) throughput vs object size",
        "local mem [% of 2GB]",
        [f"{f:.0%}" for f in fractions],
        "throughput (MOps/s)",
    )
    for size in object_sizes:
        series: List[float] = []
        for frac in fractions:
            local = max(size, int(wl.working_set * frac))
            res = wl.run_trackfm(model_trackfm(size, local))
            series.append(res.throughput_mops(CPU_HZ))
        label = f"{size // KB}KB" if size >= KB else f"{size}B"
        result.add_series(label, series)
    result.note("paper: little spatial locality -> small object sizes win")
    return result


def fig13(
    scale: ScaleModel = HASHMAP_SCALE,
    fractions: Sequence[float] = FRACTIONS,
) -> ExperimentResult:
    """TrackFM 64 B objects vs Fastswap on the hashmap: time + data moved.

    Two series pairs: execution time (seconds) and total data fetched
    (GB, paper-scale equivalent via the scale factor) — Fig. 13a/13b.
    """
    wl = _workload(scale)
    result = ExperimentResult(
        "fig13",
        "Hashmap I/O amplification: TrackFM (64B) vs Fastswap (4KB pages)",
        "local mem [% of 2GB]",
        [f"{f:.0%}" for f in fractions],
        "execution time (s) / data fetched (GB, paper scale)",
    )
    tfm_time: List[float] = []
    fsw_time: List[float] = []
    tfm_data: List[float] = []
    fsw_data: List[float] = []
    for frac in fractions:
        local = max(64, int(wl.working_set * frac))
        tfm = wl.run_trackfm(model_trackfm(64, local))
        fsw = wl.run_fastswap(model_fastswap(local))
        # Paper-scale wall time and bytes: the scale factor shrinks both
        # the working set and the op count linearly, so multiply back.
        tfm_time.append(tfm.execution_seconds(CPU_HZ) * scale.factor)
        fsw_time.append(fsw.execution_seconds(CPU_HZ) * scale.factor)
        tfm_data.append(tfm.metrics.total_bytes_transferred * scale.factor / GB)
        fsw_data.append(fsw.metrics.total_bytes_transferred * scale.factor / GB)
    result.add_series("TrackFM 64B time (s)", tfm_time)
    result.add_series("Fastswap time (s)", fsw_time)
    result.add_series("TrackFM 64B data (GB)", tfm_data)
    result.add_series("Fastswap data (GB)", fsw_data)
    quarter = int(wl.working_set * 0.25)
    tfm_amp = wl.run_trackfm(model_trackfm(64, quarter)).amplification(wl.working_set)
    fsw_amp = wl.run_fastswap(model_fastswap(quarter)).amplification(wl.working_set)
    result.note(
        f"amplification at 25% local: TrackFM {tfm_amp:.1f}x vs Fastswap "
        f"{fsw_amp:.1f}x (paper: 2.3x vs 43x)"
    )
    return result
