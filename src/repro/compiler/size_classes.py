"""Per-allocation-site object-size recommendation (§3.2 future work).

With :class:`repro.trackfm.multipool.MultiPoolRuntime` providing
multiple size classes, the remaining question is *which class each
allocation should use*.  The evaluation's own findings are the policy:

* allocations reached by **sequential, induction-variable-strided**
  accesses (the chunking candidates) want the largest class — spatial
  locality amortizes the transfer (Fig. 10);
* allocations reached only by **irregular** accesses want the smallest
  class — anything bigger is I/O amplification (Fig. 9);
* mixed or unknown sites take the middle class.

The analysis reuses the guard-candidate marks, the chunk plans, and the
heap-pruning module's pointer-to-site tracing.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.compiler.chunk_analysis import ChunkAnalysisPass, ChunkPlan
from repro.compiler.guard_analysis import GUARD_MD, GuardAnalysisPass
from repro.compiler.heap_pruning import trace_allocation_sites
from repro.compiler.pass_manager import PassContext
from repro.compiler.pipeline import ChunkingPolicy, CompilerConfig
from repro.ir.instructions import Call, Load, Store
from repro.ir.module import Module
from repro.trackfm.multipool import DEFAULT_CLASSES


def recommend_object_sizes(
    module: Module,
    classes: Sequence[int] = DEFAULT_CLASSES,
    profile=None,
) -> Dict[str, int]:
    """Map allocation-site names to recommended object sizes.

    Runs guard and chunk analysis on (a copy-free view of) the module
    and classifies each statically-identifiable allocation site.  Sites
    are keyed by the allocation call's SSA name.
    """
    small, mid, large = classes[0], classes[len(classes) // 2], classes[-1]
    ctx = PassContext(
        config=CompilerConfig(object_size=large, chunking=ChunkingPolicy.COST_MODEL),
        profile=profile,
    )
    GuardAnalysisPass().run(module, ctx)
    ChunkAnalysisPass().run(module, ctx)
    plans: List[ChunkPlan] = ctx.results.get("chunk_plans", [])

    sequential_sites: Set[int] = set()
    for plan in plans:
        if not plan.apply:
            continue
        for cand in plan.candidates:
            access = cand.access
            assert isinstance(access, (Load, Store))
            sites = trace_allocation_sites(access.pointer)
            if sites:
                sequential_sites.update(id(s) for s in sites)

    irregular_sites: Set[int] = set()
    for func in module.defined_functions():
        for inst in func.instructions():
            if not isinstance(inst, (Load, Store)):
                continue
            if not (
                inst.metadata.get(GUARD_MD) or inst.metadata.get("tfm.chunked")
            ):
                continue
            sites = trace_allocation_sites(inst.pointer)
            if not sites:
                continue
            chunked_here = inst.metadata.get("tfm.chunked") or any(
                cand.access is inst
                for plan in plans
                if plan.apply
                for cand in plan.candidates
            )
            if not chunked_here:
                irregular_sites.update(id(s) for s in sites)

    out: Dict[str, int] = {}
    for func in module.defined_functions():
        for inst in func.instructions():
            if not isinstance(inst, Call):
                continue
            if inst.callee not in ("malloc", "calloc", "tfm_malloc", "tfm_calloc"):
                continue
            if not inst.name:
                continue
            seq = id(inst) in sequential_sites
            irr = id(inst) in irregular_sites
            if seq and not irr:
                out[inst.name] = large
            elif irr and not seq:
                out[inst.name] = small
            else:
                out[inst.name] = mid
    return out
