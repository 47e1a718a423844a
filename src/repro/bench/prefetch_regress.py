"""Programmed-prefetch baselines: demand misses, stride vs programmed.

The :class:`ProgrammedPrefetchPass` exists to beat the runtime stride
prefetcher on oblivious loops: the stride learner burns demand misses
while it gains confidence, the programmed schedule primes before the
first iteration.  This module freezes that win behind checked-in
baselines so it can never silently regress:

* for each workload, a deterministic run per prefetch mode records the
  demand-miss count (``metrics.remote_fetches``), useful prefetches,
  bytes fetched and total cycles;
* :data:`GATE` re-measures and demands (a) exact equality with the
  recorded numbers (the simulation is deterministic — any diff is
  semantic drift) and (b) equal values and the structural invariant
  ``programmed demand misses <= stride demand misses``.

Baselines live in ``benchmarks/baselines/BENCH_pprefetch_<name>.json``::

    python -m repro.bench pprefetch --record   # (re)write baselines
    python -m repro.bench pprefetch --check    # gate (CI runs this)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.bench import baseline
from repro.ir.module import Module

#: Compile/runtime shape: objects small enough that loops cross many
#: boundaries, local memory large enough that prefetched objects are
#: not evicted before use (we are measuring prefetch efficacy, not
#: eviction policy).
OBJECT_SIZE = 256
LOCAL_OBJECTS = 64
NAS_N = 256


def _build_stream() -> Module:
    from repro.trace.drivers import _build_stream_module

    return _build_stream_module()


def _build_nas_cg() -> Module:
    from repro.workloads.nas import build_nas_ir

    return build_nas_ir("CG", n=NAS_N)


WORKLOADS: Dict[str, Callable[[], Module]] = {
    "stream": _build_stream,
    "nas_cg": _build_nas_cg,
}


def _run_mode(build: Callable[[], Module], programmed: bool) -> Dict[str, object]:
    from repro.aifm.pool import PoolConfig
    from repro.compiler import ChunkingPolicy, CompilerConfig, TrackFMCompiler
    from repro.sim.irrun import TrackFMProgram
    from repro.trackfm.runtime import TrackFMRuntime

    module = build()
    config = CompilerConfig(
        object_size=OBJECT_SIZE,
        chunking=ChunkingPolicy.ALL,
        enable_programmed_prefetch=programmed,
    )
    TrackFMCompiler(config).compile(module)
    runtime = TrackFMRuntime(
        PoolConfig(
            object_size=OBJECT_SIZE,
            local_memory=LOCAL_OBJECTS * OBJECT_SIZE,
            heap_size=1 << 20,
        )
    )
    result = TrackFMProgram(module, runtime).run("main")
    m = runtime.metrics
    return {
        "value": result.value,
        "demand_misses": m.remote_fetches,
        "prefetches_issued": m.prefetches_issued,
        "prefetches_useful": m.prefetches_useful,
        "bytes_fetched": m.bytes_fetched,
        "cycles": m.cycles,
    }


def measure_bench(name: str) -> Dict[str, object]:
    """Deterministic stride-vs-programmed measurement for one workload."""
    build = WORKLOADS[name]
    stride = _run_mode(build, programmed=False)
    programmed = _run_mode(build, programmed=True)
    return {
        "bench": f"pprefetch_{name}",
        "object_size": OBJECT_SIZE,
        "local_objects": LOCAL_OBJECTS,
        "stride": stride,
        "programmed": programmed,
    }


def _programmed_wins(
    name: str, measured: baseline.Document, recorded: baseline.Document
) -> Tuple[str, str]:
    """Both modes compute the same value, and programmed prefetch takes
    no more demand misses than the stride prefetcher."""
    stride, programmed = measured["stride"], measured["programmed"]
    if programmed["value"] != stride["value"]:
        return "semantics-diverge", (
            f"programmed value {programmed['value']} != stride value {stride['value']}"
        )
    if programmed["demand_misses"] > stride["demand_misses"]:
        return "prefetch-regression", (
            f"programmed {programmed['demand_misses']} demand misses > "
            f"stride {stride['demand_misses']}"
        )
    return "ok", ""


GATE = baseline.Gate(
    prog="python -m repro.bench pprefetch",
    template="BENCH_pprefetch_{name}.json",
    names=tuple(WORKLOADS),
    measure=measure_bench,
    accept=_programmed_wins,
)


def main(argv: Optional[List[str]] = None) -> int:
    description = "Record or check programmed-prefetch baselines."
    return baseline.run(GATE, baseline.parser(GATE, description).parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via -m repro.bench
    raise SystemExit(main())
