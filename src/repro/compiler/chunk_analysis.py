"""Loop-chunking analysis.

§3.4: "The analysis pass for the loop chunking optimization searches
for spatially local memory accesses that occur in loops ... To identify
such memory accesses, TrackFM makes use of NOELLE's induction variable
analysis."

A guarded access is a chunking candidate when its pointer is

* ``gep(base, iv, elem_size)`` with ``base`` loop-invariant and ``iv``
  an induction variable of the loop (stride = iv.step * elem_size), or
* a *pointer* induction variable itself (stride = its byte step).

Candidates are then filtered by policy: chunk everything (the "all
loops" lines of Figs. 8/15), nothing, or what the cost model — fed with
profile trip counts when available — predicts profitable ("high-density
loops only").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.induction import InductionAnalysis, InductionVariable
from repro.analysis.loops import Loop, find_loops
from repro.compiler.cost_model import ChunkingCostModel, LoopShape
from repro.compiler.guard_analysis import GUARD_MD
from repro.compiler.pass_manager import Pass, PassContext
from repro.ir.function import Function
from repro.ir.instructions import Gep, Instruction, Load, Store
from repro.ir.module import Module
from repro.ir.values import Argument, Constant, Value


@dataclass
class ChunkCandidate:
    """One strided access eligible for chunking."""

    access: Instruction
    iv: InductionVariable
    #: Byte stride between consecutive touches of this pointer.
    stride_bytes: int
    #: Bytes read/written per touch.
    elem_size: int


@dataclass
class ChunkPlan:
    """The chunking decision for one loop."""

    function: Function
    loop: Loop
    candidates: List[ChunkCandidate] = field(default_factory=list)
    #: Chosen by the policy filter; transform only runs when True.
    apply: bool = False
    #: Prefetch the stream (constant positive stride + config enabled).
    prefetch: bool = False
    #: Stream id assigned at transform time (one per pointer stream).
    stream_base: int = 0

    def density(self, object_size: int) -> float:
        """Elements per object for the narrowest-strided candidate."""
        strides = [abs(c.stride_bytes) for c in self.candidates if c.stride_bytes]
        if not strides:
            return 0.0
        return object_size / min(strides)


def _pointer_of(access: Instruction) -> Value:
    if isinstance(access, Load):
        return access.pointer
    assert isinstance(access, Store)
    return access.pointer


def _is_loop_invariant(value: Value, loop: Loop) -> bool:
    if isinstance(value, (Constant, Argument)):
        return True
    if isinstance(value, Instruction):
        return value.parent not in loop.blocks
    return True


class ChunkAnalysisPass(Pass):
    """Find and filter chunkable loops; publishes ``chunk_plans``."""

    name = "chunk-analysis"

    def run(self, module: Module, ctx: PassContext) -> None:
        config = ctx.config
        model = ChunkingCostModel(config.object_size, config.costs)
        plans: List[ChunkPlan] = []
        for func in module.defined_functions():
            loops = find_loops(func)
            if not len(loops):
                continue
            ivs = InductionAnalysis(func, loops)
            for loop in loops:
                plan = self._analyze_loop(func, loop, ivs, ctx)
                if plan is not None:
                    self._decide(plan, model, ctx)
                    plans.append(plan)
        ctx.results["chunk_plans"] = plans
        ctx.bump(f"{self.name}.plans", len(plans))
        ctx.bump(
            f"{self.name}.applied", sum(1 for p in plans if p.apply)
        )

    # -- candidate matching ---------------------------------------------------

    def _analyze_loop(
        self,
        func: Function,
        loop: Loop,
        ivs: InductionAnalysis,
        ctx: PassContext,
    ) -> Optional[ChunkPlan]:
        loop_ivs = ivs.ivs(loop)
        if not loop_ivs:
            return None
        plan = ChunkPlan(function=func, loop=loop)
        for block in loop.blocks:
            for inst in block.instructions:
                if not isinstance(inst, (Load, Store)):
                    continue
                if not inst.metadata.get(GUARD_MD):
                    continue
                cand = self._match_candidate(inst, loop, loop_ivs)
                if cand is not None:
                    plan.candidates.append(cand)
                    ctx.bump(f"{self.name}.candidates")
        if not plan.candidates:
            return None
        return plan

    def _match_candidate(
        self,
        access: Instruction,
        loop: Loop,
        loop_ivs: List[InductionVariable],
    ) -> Optional[ChunkCandidate]:
        ptr = _pointer_of(access)
        elem_size = access.type.size_bytes() if isinstance(access, Load) else (
            access.value.type.size_bytes()
        )
        # Pattern 1: gep(base, iv, k) with loop-invariant base.
        if isinstance(ptr, Gep) and ptr.parent in loop.blocks:
            index = ptr.index
            for iv in loop_ivs:
                if index is iv.phi or index is iv.update:
                    if _is_loop_invariant(ptr.base, loop):
                        return ChunkCandidate(
                            access=access,
                            iv=iv,
                            stride_bytes=iv.step * ptr.elem_size,
                            elem_size=max(elem_size, 1),
                        )
        # Pattern 2: the pointer is itself a pointer IV.
        for iv in loop_ivs:
            if iv.is_pointer and (ptr is iv.phi or ptr is iv.update):
                return ChunkCandidate(
                    access=access,
                    iv=iv,
                    stride_bytes=iv.step,
                    elem_size=max(elem_size, 1),
                )
        return None

    # -- policy filter --------------------------------------------------------

    def _decide(self, plan: ChunkPlan, model: ChunkingCostModel, ctx: PassContext) -> None:
        from repro.compiler.pipeline import ChunkingPolicy  # cycle-free import

        config = ctx.config
        policy = config.chunking
        if policy is ChunkingPolicy.NONE:
            plan.apply = False
            return
        if policy is ChunkingPolicy.ALL:
            plan.apply = True
        else:
            plan.apply = self._cost_model_approves(plan, model, ctx)
        if plan.apply:
            stride = plan.candidates[0].stride_bytes
            plan.prefetch = config.enable_prefetch and stride > 0
            if plan.prefetch:
                ctx.bump(f"{self.name}.prefetch_streams")

    def _cost_model_approves(
        self, plan: ChunkPlan, model: ChunkingCostModel, ctx: PassContext
    ) -> bool:
        shape = self._loop_shape(plan, ctx)
        approved = model.should_chunk(shape)
        if not approved:
            ctx.bump(f"{self.name}.rejected_by_model")
        return approved

    def _loop_shape(self, plan: ChunkPlan, ctx: PassContext) -> LoopShape:
        iv = plan.candidates[0].iv
        stride = max(abs(plan.candidates[0].stride_bytes), 1)
        iterations: float
        entries = 1.0
        profile = ctx.profile
        loop_profile = None
        if profile is not None:
            loop_profile = profile.profile_for(
                plan.function.name, plan.loop.header.name
            )
        if loop_profile is not None:
            iterations = loop_profile.average_trip_count
            entries = float(loop_profile.entries)
        elif iv.trip_count is not None:
            iterations = float(iv.trip_count)
            # A statically-counted nested loop re-enters per outer trip;
            # approximate entries by nesting depth heuristic.
            entries = 1.0
        else:
            iterations = float(ctx.config.assumed_trip_count)
        return LoopShape(
            iterations_per_entry=max(iterations, 1.0),
            elem_size=stride,
            entries=max(entries, 1.0),
            accesses_per_iteration=max(len(plan.candidates), 1),
        )
