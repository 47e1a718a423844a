"""Access replay: any runtime kind over one arena, driven by a stream.

The trace drivers' replay workloads, the ablation runner's pattern
cells and the ``hybrid`` gate's three engines replay ``(offset, kind)``
streams through a runtime.  Each sizes its runtime (local memory, heap,
arena), builds it with :func:`replay_runtime` and runs :func:`replay`.
The builder hides the config classes, the allocation call, pointer vs
offset addressing and the static hybrid's split, so every kind is
driven by arena offsets.
"""

from __future__ import annotations

from typing import Callable, Iterable, Tuple

from repro.aifm.pool import PoolConfig
from repro.aifm.runtime import AIFMRuntime
from repro.errors import RuntimeConfigError
from repro.fastswap.runtime import FastswapConfig, FastswapRuntime
from repro.hybrid.runtime import AdaptiveHybridRuntime, HybridRuntime
from repro.hybrid.selector import SelectorConfig
from repro.machine.costs import AccessKind
from repro.trackfm.runtime import TrackFMRuntime

#: Bytes each replayed access reads or writes.
ACCESS_BYTES = 8

#: LCG constants for scattered probe streams (Knuth's MMIX multiplier
#: truncated; any odd multiplier works — determinism is what matters).
LCG_MUL = 2654435761
LCG_ADD = 40503

Access = Callable[[int, AccessKind], float]


def replay_runtime(
    kind: str,
    local_memory: int,
    heap: int,
    arena: int,
    object_size: int,
    *,
    use_clock: bool = True,
    prefetch: bool = True,
    adaptive: bool = True,
    epoch_accesses: int = 256,
    selector_config: SelectorConfig = SelectorConfig(),
) -> Tuple[object, Access]:
    """Build a ``kind`` runtime with ``arena`` bytes allocated in it.

    ``kind`` is ``trackfm``, ``aifm``, ``fastswap``, ``hybrid`` or
    ``adaptive``.  Returns the runtime and an ``access(offset, kind)``
    closure over the arena.  ``use_clock`` picks CLOCK or LRU eviction
    on the three single-tier kinds (the hybrids build their tiers with
    the default), ``prefetch`` is AIFM's runtime stride prefetch, and
    ``adaptive``, ``epoch_accesses`` and ``selector_config`` are the
    adaptive runtime's, with its defaults.  The static hybrid puts the
    arena's first half on objects, the split 8-aligned so no access
    straddles it.
    """
    if kind == "hybrid":
        runtime = HybridRuntime(
            local_memory=local_memory,
            heap_size=heap,
            arena=arena,
            split=(arena // 2 + 7) & ~7,
            object_size=object_size,
        )
        return runtime, lambda off, op: runtime.access(off, op, ACCESS_BYTES)
    if kind == "fastswap":
        runtime = FastswapRuntime(
            FastswapConfig(
                local_memory=local_memory, heap_size=heap, use_clock=use_clock
            )
        )
        base = runtime.allocate(arena)
        return runtime, lambda off, op: runtime.access(base + off, op, ACCESS_BYTES)
    config = PoolConfig(
        object_size=object_size,
        local_memory=local_memory,
        heap_size=heap,
        use_clock=use_clock,
    )
    if kind == "aifm":
        runtime = AIFMRuntime(config)
        base = runtime.allocate(arena).offset
        return runtime, lambda off, op: runtime.access(
            base + off, op, ACCESS_BYTES, prefetch=prefetch
        )
    if kind == "adaptive":
        runtime = AdaptiveHybridRuntime(
            local_memory=local_memory,
            heap_size=heap,
            object_size=object_size,
            epoch_accesses=epoch_accesses,
            selector_config=selector_config,
            adaptive=adaptive,
        )
    elif kind == "trackfm":
        runtime = TrackFMRuntime(config)
    else:
        raise RuntimeConfigError(f"no replay runtime of kind {kind!r}")
    # A TrackFM pointer: every access is guarded.
    base = runtime.tfm_malloc(arena)
    return runtime, lambda off, op: runtime.access(base + off, op, ACCESS_BYTES)


def replay(access: Access, stream: Iterable[Tuple[int, AccessKind]]) -> int:
    """Run ``stream`` through ``access``; returns the checksum of the
    touched offsets (the value every replay caller reports)."""
    checksum = 0
    for offset, kind in stream:
        access(offset, kind)
        checksum = (checksum * 31 + offset + 1) & 0xFFFFFFFF
    return checksum
