"""Fig. 6: the loop-chunking cost-model crossover.

The paper sweeps the number of elements per object for "a simple loop"
and shows (a) the empirical speedup of the chunked transform over the
naive one and (b) the cost model's predicted break-even density (~730
elements/object) — and that the two agree.

Here the "empirical" line comes from replaying the loop per-access
through the TrackFM runtime (boundary checks, locality guards, chunk
setup — all the real accounting), and the model line from
:class:`ChunkingCostModel`.
"""

from __future__ import annotations

from typing import List

from repro.aifm.pool import PoolConfig
from repro.bench.harness import ExperimentResult
from repro.compiler.cost_model import ChunkingCostModel, LoopShape
from repro.machine.cache import AlwaysHitCache
from repro.machine.costs import AccessKind
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import KB, MB

#: Loop body cost per element in the microloop.
BODY = 15.0


def _runtime() -> TrackFMRuntime:
    config = PoolConfig(object_size=4 * KB, local_memory=2 * MB, heap_size=8 * MB)
    return TrackFMRuntime(config, cache=AlwaysHitCache())


def _empirical_speedup(elements_per_object: int) -> float:
    """Replay one object's worth of iterations, naive vs chunked.

    The object is pre-localized (the paper's Fig. 6 isolates guard
    overheads, not fetch costs).
    """
    elem_size = max(1, (4 * KB) // elements_per_object)
    n = elements_per_object

    naive_rt = _runtime()
    ptr = naive_rt.tfm_malloc(4 * KB)
    naive_rt.access(ptr, AccessKind.READ)  # pre-localize (slow path once)
    naive_cycles = 0.0
    for i in range(n):
        naive_cycles += naive_rt.access(
            ptr + i * elem_size, AccessKind.READ, size=elem_size
        ) - (naive_rt.costs.local_access - BODY)

    chunk_rt = _runtime()
    cptr = chunk_rt.tfm_malloc(4 * KB)
    chunk_rt.access(cptr, AccessKind.READ)
    chunk_cycles = chunk_rt.chunk_begin(stream=0)
    for i in range(n):
        chunk_cycles += chunk_rt.chunk_access(
            cptr + i * elem_size, AccessKind.READ, stream=0
        ) - (chunk_rt.costs.local_access - BODY)
    chunk_rt.chunk_end(stream=0)

    if chunk_cycles <= 0:
        return 0.0
    return naive_cycles / chunk_cycles


def fig06(densities: List[int] = None) -> ExperimentResult:
    """Empirical vs predicted chunking benefit as density varies."""
    if densities is None:
        densities = [64, 128, 256, 384, 512, 640, 704, 736, 768, 896, 1024]
    result = ExperimentResult(
        "fig06",
        "Loop chunking cost model: speedup vs elements per object",
        "elements/object",
        densities,
        "speedup vs naive transform (>1 favours chunking)",
    )
    model = ChunkingCostModel(object_size=4 * KB)
    empirical = [_empirical_speedup(d) for d in densities]
    predicted = [
        model.predicted_speedup(
            LoopShape(iterations_per_entry=d, elem_size=max(1, 4 * KB // d)),
            body_cycles=BODY,
        )
        for d in densities
    ]
    result.add_series("empirical", empirical)
    result.add_series("model", predicted)
    crossover = model.density_threshold()
    result.note(f"model crossover at d* = {crossover:.0f} elements/object (paper: ~730)")
    return result
