"""Adaptive-hybrid benchmark + baseline gate: ``python -m repro.bench hybrid``.

Sweeps the adaptive hybrid data plane (docs/hybrid.md) against *both*
static tiers — a pure TrackFM object runtime and a pure kernel-paging
runtime, each given the adaptive runtime's whole local-memory budget —
across a local-memory-fraction × workload matrix:

* ``dense``  — repeated fine-stride sweeps of a small arena (paging's
  best case: faults amortize over reuse, hits are guard-free);
* ``sparse`` — scattered one-object probes over a large arena (object
  fetch's best case: no I/O amplification);
* ``phase``  — :class:`~repro.workloads.phase.PhaseShiftWorkload`, the
  mixed-density case neither static placement serves well.

Every cell is a deterministic replay, so the recorded reports are exact
(``==``, no tolerance) like the other baseline gates.  On top of the
bit-exact compare, :data:`GATE` enforces the adaptive plane's acceptance
bar from the measured numbers themselves: adaptive cycles must be
within ``TOLERANCE`` of the best static tier, with values equal, on
**every** cell, and must beat both statics outright on at least one
cell of each mixed-density workload::

    python -m repro.bench hybrid            # print the matrix
    python -m repro.bench hybrid --record   # (re)write baselines
    python -m repro.bench hybrid --check    # gate (CI runs this)

Baselines live in ``benchmarks/baselines/BENCH_hybrid_<workload>.json``.
Re-record after an intentional selector/cost-model change and commit
the diff.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.bench import baseline
from repro.hybrid.selector import SelectorConfig
from repro.machine.costs import AccessKind
from repro.sim.replay import LCG_ADD, LCG_MUL, replay, replay_runtime
from repro.units import BASE_PAGE
from repro.workloads.phase import PhaseShiftWorkload

OBJECT_SIZE = 256
SEED = 9

#: Fraction of the workload arena granted as local memory per cell; all
#: pressured — an online policy's payoff is steady state, and a run
#: whose arena fits local memory is all warmup and no steady state.
MEMORY_FRACTIONS = (0.25, 0.5, 0.75)

#: Adaptive cells must land within this factor of the best static tier.
TOLERANCE = 1.15

#: Reactive selector for the sweep: short epochs bound the per-phase
#: warmup on the wrong tier, and a small hysteresis band lets the phase
#: workload's density flips be tracked within a couple of epochs.
EPOCH_ACCESSES = 32
SELECTOR = SelectorConfig(hysteresis=0.05, min_accesses=4)


# -- the workload streams -----------------------------------------------------


DENSE_ARENA = 64 * 1024
DENSE_PASSES = 64
SPARSE_ARENA = 64 * 1024
SPARSE_PROBES = 4096


def _dense_stream() -> Iterator[Tuple[int, AccessKind]]:
    """Fine-stride sweeps: write pass, then read passes (steady reuse)."""
    for sweep in range(DENSE_PASSES):
        kind = AccessKind.WRITE if sweep == 0 else AccessKind.READ
        for off in range(0, DENSE_ARENA, 64):
            yield off, kind


def _sparse_stream() -> Iterator[Tuple[int, AccessKind]]:
    """LCG-scattered probes of one object per page: a tiny object
    working set strewn across many pages — object fetch's best case."""
    n_pages = SPARSE_ARENA // BASE_PAGE
    state = SEED & 0xFFFFFFFF
    for _ in range(SPARSE_PROBES):
        state = (state * LCG_MUL + LCG_ADD) & 0xFFFFFFFF
        yield (state % n_pages) * BASE_PAGE, AccessKind.READ


_PHASE = PhaseShiftWorkload(
    n_regions=8,
    region_bytes=4096,
    dense_stride=64,
    n_phases=6,
    dense_passes=16,
    sparse_probes=12,
    seed=SEED,
)

WORKLOADS: Dict[str, Tuple[int, Callable[[], Iterator[Tuple[int, AccessKind]]]]] = {
    "dense": (DENSE_ARENA, _dense_stream),
    "sparse": (SPARSE_ARENA, _sparse_stream),
    "phase": (_PHASE.arena_bytes, _PHASE.accesses),
}

#: Workloads where neither static placement fits the whole run: the
#: adaptive plane must win outright on at least one cell of each.
MIXED_WORKLOADS = ("phase",)


# -- cells + reports ----------------------------------------------------------


def _run(kind: str, workload: str, local_memory: int, **tuning):
    """Replay ``workload`` on one engine; ``(runtime, checksum)``."""
    arena, stream = WORKLOADS[workload]
    runtime, access = replay_runtime(
        kind, local_memory, arena, arena, OBJECT_SIZE, **tuning
    )
    return runtime, replay(access, stream())


def run_cell(workload: str, fraction: float) -> Dict[str, object]:
    """One (workload, local-memory-fraction) cell, all three engines:
    the object tier, the page tier and the adaptive runtime."""
    arena, _ = WORKLOADS[workload]
    local_memory = max(2 * BASE_PAGE, int(arena * fraction))
    objects, objects_value = _run(
        "trackfm", workload, max(local_memory, OBJECT_SIZE)
    )
    pages, pages_value = _run("fastswap", workload, max(local_memory, BASE_PAGE))
    adaptive, adaptive_value = _run(
        "adaptive",
        workload,
        max(local_memory, 2 * BASE_PAGE),
        epoch_accesses=EPOCH_ACCESSES,
        selector_config=SELECTOR,
    )
    objects_cycles = objects.metrics.cycles
    pages_cycles = pages.metrics.cycles
    adaptive_cycles = adaptive.metrics.cycles
    best_static = min(objects_cycles, pages_cycles)
    return {
        "fraction": fraction,
        "local_memory": local_memory,
        "objects_cycles": round(objects_cycles, 3),
        "pages_cycles": round(pages_cycles, 3),
        "adaptive_cycles": round(adaptive_cycles, 3),
        "adaptive": {
            "tier_switches": adaptive.metrics.tier_switches,
            "objects_migrated": adaptive.metrics.objects_migrated,
            "epochs": adaptive.epochs,
        },
        "values_equal": objects_value == pages_value == adaptive_value,
        "value": adaptive_value,
        "within_band": adaptive_cycles <= best_static * TOLERANCE,
        "wins_outright": adaptive_cycles < best_static,
    }


def measure(workload: str) -> Dict[str, object]:
    return {
        "bench": f"hybrid_{workload}",
        "workload": workload,
        "tolerance": TOLERANCE,
        "seed": SEED,
        "cells": {
            f"mem_{int(f * 100)}": run_cell(workload, f)
            for f in MEMORY_FRACTIONS
        },
    }


def _adaptive_pays_off(
    name: str, measured: baseline.Document, recorded: baseline.Document
) -> Tuple[str, str]:
    """Every cell in band with equal values; a mixed workload also needs
    a cell where adaptive beats both statics outright."""
    cells = measured["cells"]
    out_of_band = [
        cell
        for cell, data in cells.items()
        if not (data["within_band"] and data["values_equal"])
    ]
    if out_of_band:
        return "out-of-band", f"cells: {out_of_band}"
    if name in MIXED_WORKLOADS and not any(
        data["wins_outright"] for data in cells.values()
    ):
        return "no-mixed-win", "adaptive never beat both statics"
    return "ok", ""


GATE = baseline.Gate(
    prog="python -m repro.bench hybrid",
    template="BENCH_hybrid_{name}.json",
    names=tuple(sorted(WORKLOADS)),
    measure=measure,
    accept=_adaptive_pays_off,
)


# -- human-readable matrix ----------------------------------------------------


def curves_text() -> str:
    lines = [
        "hybrid: adaptive vs best-of-both-static "
        f"(object size {OBJECT_SIZE}, tolerance {TOLERANCE}x, seed {SEED})",
        "",
        f"{'workload':>8} {'mem%':>5} {'objects':>12} {'pages':>12} "
        f"{'adaptive':>12} {'switches':>9} {'verdict':>9}",
    ]
    for name in sorted(WORKLOADS):
        for fraction in MEMORY_FRACTIONS:
            cell = run_cell(name, fraction)
            verdict = (
                "wins"
                if cell["wins_outright"]
                else ("in-band" if cell["within_band"] else "OUT")
            )
            lines.append(
                f"{name:>8} {int(fraction * 100):>5} "
                f"{cell['objects_cycles']:>12.0f} {cell['pages_cycles']:>12.0f} "
                f"{cell['adaptive_cycles']:>12.0f} "
                f"{cell['adaptive']['tier_switches']:>9} {verdict:>9}"
            )
    return "\n".join(lines)


# -- CLI ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = baseline.parser(
        GATE, "Adaptive-hybrid matrix and its exact baseline gate.", required=False
    )
    args = parser.parse_args(argv)
    if args.record or args.check:
        return baseline.run(GATE, args)
    print(curves_text())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
