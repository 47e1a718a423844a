"""Application figures: 8 (k-means), 14/15 (analytics), 16 (memcached), 17 (NAS)."""

from __future__ import annotations

from typing import List, Sequence

from repro.bench.harness import (
    CPU_HZ,
    DEFAULT_BENCH_SCALE,
    ExperimentResult,
    geomean,
    model_aifm,
    model_fastswap,
    model_trackfm,
)
from repro.compiler.pass_manager import PassContext, PassManager
from repro.compiler.optimize import O1Pipeline
from repro.compiler.pipeline import CompilerConfig
from repro.ir.instructions import Load, Store
from repro.machine.scale import ScaleModel
from repro.sim.interpreter import Interpreter
from repro.sim.local import LocalRuntime
from repro.units import BASE_PAGE, GB, KB
from repro.workloads.analytics import AnalyticsChunking, AnalyticsWorkload
from repro.workloads.kmeans import ChunkMode, KMeansWorkload
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.nas import NAS_SUITE, NasModel, build_nas_ir

FRACTIONS = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)


# -- Fig. 8: k-means -----------------------------------------------------------


def fig08(
    scale: ScaleModel = DEFAULT_BENCH_SCALE,
    fractions: Sequence[float] = FRACTIONS,
) -> ExperimentResult:
    """Selective loop chunking on k-means (30 M points, 1 GB)."""
    n_points = scale.count(30_000_000, floor=50_000)
    wl = KMeansWorkload(n_points=n_points)
    result = ExperimentResult(
        "fig08",
        "k-means: chunk all loops vs high-density loops only",
        "local mem [% of 1GB]",
        [f"{f:.0%}" for f in fractions],
        "speedup vs baseline (no chunking)",
    )
    obj = 4 * KB
    for mode, label in (
        (ChunkMode.ALL_LOOPS, "all loops"),
        (ChunkMode.HIGH_DENSITY, "high-density loops only"),
    ):
        series: List[float] = []
        for frac in fractions:
            local = max(obj, int(wl.working_set * frac))
            series.append(wl.speedup_vs_baseline(mode, model_trackfm(obj, local)))
        result.add_series(label, series)
    result.note("paper: all-loops ~4x slowdown (0.25x); filtered ~2.5x speedup")
    return result


# -- Figs. 14/15: taxi analytics ------------------------------------------------


def fig14(
    scale: ScaleModel = DEFAULT_BENCH_SCALE,
    fractions: Sequence[float] = FRACTIONS,
) -> ExperimentResult:
    """Analytics on TrackFM vs Fastswap vs AIFM (31 GB working set)."""
    working_set = scale.bytes(31 * GB)
    wl = AnalyticsWorkload(working_set=working_set)
    local_cycles, _ = wl.run_local(LocalRuntime())
    result = ExperimentResult(
        "fig14",
        "Analytics application: slowdown vs local-only (a) and event counts (b)",
        "local mem [% of 31GB]",
        [f"{f:.0%}" for f in fractions],
        "slowdown vs local-only / events (paper-scale, x10M)",
    )
    tfm: List[float] = []
    fsw: List[float] = []
    aifm: List[float] = []
    guards: List[float] = []
    faults: List[float] = []
    for frac in fractions:
        local = max(BASE_PAGE, int(working_set * frac))
        cycles, metrics = wl.run_trackfm(model_trackfm(BASE_PAGE, local))
        tfm.append(cycles / local_cycles)
        guards.append(metrics.slow_path_guards * scale.factor / 1e7)
        cycles, metrics = wl.run_fastswap(model_fastswap(local))
        fsw.append(cycles / local_cycles)
        faults.append(metrics.major_faults * scale.factor / 1e7)
        cycles, _ = wl.run_aifm(model_aifm(BASE_PAGE, local))
        aifm.append(cycles / local_cycles)
    result.add_series("TrackFM", tfm)
    result.add_series("Fastswap", fsw)
    result.add_series("AIFM", aifm)
    result.add_series("TrackFM guards (x10M)", guards)
    result.add_series("Fastswap faults (x10M)", faults)
    gap = tfm[0] / aifm[0]
    result.note(
        f"TrackFM within {100 * (gap - 1):.0f}% of AIFM at the lowest local "
        "memory (paper: within 10%)"
    )
    return result


def fig15(
    scale: ScaleModel = DEFAULT_BENCH_SCALE,
    fractions: Sequence[float] = FRACTIONS,
) -> ExperimentResult:
    """Chunking policy on the analytics app (low-density aggregations)."""
    working_set = scale.bytes(31 * GB)
    wl = AnalyticsWorkload(working_set=working_set)
    local_cycles, _ = wl.run_local(LocalRuntime())
    result = ExperimentResult(
        "fig15",
        "Analytics: loop chunking policy vs slowdown",
        "local mem [% of 31GB]",
        [f"{f:.0%}" for f in fractions],
        "slowdown vs local-only",
    )
    for policy, label in (
        (AnalyticsChunking.BASELINE, "baseline"),
        (AnalyticsChunking.ALL_LOOPS, "all loops"),
        (AnalyticsChunking.HIGH_DENSITY, "high-density loops only"),
    ):
        series: List[float] = []
        for frac in fractions:
            local = max(BASE_PAGE, int(working_set * frac))
            cycles, _ = wl.run_trackfm(model_trackfm(BASE_PAGE, local), policy)
            series.append(cycles / local_cycles)
        result.add_series(label, series)
    result.note("paper: chunking the low-density aggregation loops hurts")
    return result


# -- Fig. 16: memcached ---------------------------------------------------------


def fig16(
    scale: ScaleModel = ScaleModel(factor=512),
    skews: Sequence[float] = (1.0, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3),
) -> ExperimentResult:
    """memcached GET throughput / events / data moved vs zipf skew."""
    working_set = scale.bytes(12 * GB)
    local = scale.bytes(1 * GB)
    n_keys = scale.count(100_000_000, floor=100_000)
    n_ops = scale.count(100_000_000, floor=100_000)
    result = ExperimentResult(
        "fig16",
        "memcached: throughput, guard/fault counts, data transferred vs skew",
        "zipf skew",
        list(skews),
        "KOps/s / events (paper-scale, x100M) / GB moved (paper scale)",
    )
    tfm_tp, fsw_tp, local_tp = [], [], []
    tfm_ev, fsw_ev = [], []
    tfm_gb, fsw_gb = [], []
    object_size = 64
    for skew in skews:
        wl = MemcachedWorkload(
            working_set=working_set, n_keys=n_keys, n_ops=n_ops, skew=skew
        )
        tfm = wl.run_trackfm(model_trackfm(object_size, local))
        fsw = wl.run_fastswap(model_fastswap(local))
        loc = wl.run_local(LocalRuntime())
        tfm_tp.append(tfm.throughput_kops(CPU_HZ))
        fsw_tp.append(fsw.throughput_kops(CPU_HZ))
        local_tp.append(loc.throughput_kops(CPU_HZ))
        tfm_ev.append(tfm.metrics.slow_path_guards * scale.factor / 1e8)
        fsw_ev.append(fsw.metrics.major_faults * scale.factor / 1e8)
        tfm_gb.append(tfm.metrics.total_bytes_transferred * scale.factor / GB)
        fsw_gb.append(fsw.metrics.total_bytes_transferred * scale.factor / GB)
    result.add_series("TrackFM KOps/s", tfm_tp)
    result.add_series("Fastswap KOps/s", fsw_tp)
    result.add_series("All local KOps/s", local_tp)
    result.add_series("TrackFM slow guards (x100M)", tfm_ev)
    result.add_series("Fastswap faults (x100M)", fsw_ev)
    result.add_series("TrackFM data (GB)", tfm_gb)
    result.add_series("Fastswap data (GB)", fsw_gb)
    result.note("paper: 1.3-1.7x over Fastswap; 15x vs 66x working-set transfer")
    return result


# -- Fig. 17: NAS ----------------------------------------------------------------


def fig17a(
    scale: ScaleModel = DEFAULT_BENCH_SCALE,
    local_fraction: float = 0.25,
) -> ExperimentResult:
    """NAS slowdowns at 25% local memory, Fastswap vs TrackFM."""
    names = [b.name for b in NAS_SUITE] + ["GeoM."]
    result = ExperimentResult(
        "fig17a",
        "NAS benchmarks at 25% local memory",
        "benchmark",
        names,
        "slowdown vs local-only",
    )
    fsw: List[float] = []
    tfm: List[float] = []
    for bench in NAS_SUITE:
        ws = bench.working_set(scale.factor)
        model = NasModel(bench, working_set=ws)
        local = int(ws * local_fraction)
        fsw.append(model.slowdown(model_fastswap(local)))
        tfm.append(model.slowdown(model_trackfm(BASE_PAGE, local)))
    fsw.append(geomean(fsw))
    tfm.append(geomean(tfm))
    result.add_series("Fastswap", fsw)
    result.add_series("TrackFM", tfm)
    result.note("paper: TrackFM wins except FT (guard explosion + reuse)")
    return result


def _dynamic_mem_ops(module) -> int:
    """Executed loads+stores, via block counts from the interpreter."""
    counts = {}

    def hook(func, block_name):
        counts[block_name] = counts.get(block_name, 0) + 1

    Interpreter(module, block_hook=hook).run("main")
    total = 0
    func = module.get_function("main")
    for block in func.blocks:
        mems = sum(1 for i in block.instructions if isinstance(i, (Load, Store)))
        total += mems * counts.get(block.name, 0)
    return total


def fig17b(
    scale: ScaleModel = DEFAULT_BENCH_SCALE,
    local_fraction: float = 0.25,
) -> ExperimentResult:
    """FT/SP with O1 pre-optimization before the TrackFM passes.

    The memory-instruction reductions are *measured* by running the real
    O1 pipeline (mem2reg + folding + RLE + DCE) on unoptimized-style IR
    kernels and counting executed loads/stores.
    """
    result = ExperimentResult(
        "fig17b",
        "NAS FT/SP: effect of O1 pre-optimization",
        "benchmark",
        ["FT", "SP"],
        "slowdown vs local-only",
    )
    fsw, tfm, tfm_o1 = [], [], []
    reductions = {}
    for name in ("FT", "SP"):
        bench = next(b for b in NAS_SUITE if b.name == name)
        ws = bench.working_set(scale.factor)
        model = NasModel(bench, working_set=ws)
        local = int(ws * local_fraction)
        fsw.append(model.slowdown(model_fastswap(local)))
        tfm.append(model.slowdown(model_trackfm(BASE_PAGE, local), o1=False))
        tfm_o1.append(model.slowdown(model_trackfm(BASE_PAGE, local), o1=True))
        # Measure the real reduction with the real passes.
        unopt = build_nas_ir(name, n=64)
        before = _dynamic_mem_ops(unopt)
        opt = build_nas_ir(name, n=64)
        ctx = PassContext(config=CompilerConfig())
        PassManager([O1Pipeline()]).run(opt, ctx)
        after = _dynamic_mem_ops(opt)
        reductions[name] = before / max(after, 1)
    result.add_series("FSwap", fsw)
    result.add_series("TFM", tfm)
    result.add_series("TFM/O1", tfm_o1)
    result.note(
        "measured O1 memory-instruction reductions: "
        + ", ".join(f"{k} {v:.1f}x" for k, v in reductions.items())
        + " (paper: FT 6x, SP 4x)"
    )
    return result
