"""The far-memory access auditor: oblivious-loop classification.

Built on :mod:`repro.analysis.symbolic`, this module classifies every
loop of a program by how much the compiler can know about its far-memory
traffic, and turns the closed-form streams into *static predictions* of
the dynamic counters the runtime will report:

* **OBLIVIOUS** — every heap-may access has an exact affine stream and
  the trip count is known: the exact set of remote objects, the bytes
  fetched and the bytes used are computable at compile time (3PO's
  prerequisite for programmed prefetching);
* **STRIDED_PARTIAL** — strides are known but some start point or the
  trip count is not: a stride prefetcher will work, an exact schedule
  cannot be emitted;
* **OPAQUE** — at least one access is data-dependent (pointer chase,
  hash probe): only runtime prediction can help.

Predictions assume allocation bases are object-aligned (the region
allocator places allocations at object granularity) and are *per loop
entry*; :meth:`ModuleAudit.program_prediction` unions object sets
across loops per allocation base, which is exact for programs whose
local memory holds the working set (each object faults once, cold).

Guard overhead predictions reuse :class:`ChunkingCostModel` (Eqs. 1–3)
so the auditor reports naive-vs-chunked guard cycles alongside traffic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.loops import Loop, find_loops
from repro.analysis.provenance import (
    ProvenanceAnalysis,
    return_provenance_summaries,
)
from repro.analysis.symbolic import (
    CHASE_DEREFS,
    TRANSPARENT_DEREFS,
    SymbolicAddressAnalysis,
    SymbolicStream,
)
from repro.compiler.cost_model import ChunkingCostModel, LoopShape
from repro.ir.instructions import Call, Instruction, Load, Store
from repro.ir.module import Module
from repro.ir.values import Value
from repro.machine.costs import CostTable, DEFAULT_COSTS
from repro.units import BASE_PAGE

#: Enumeration guardrail: streams whose stride exceeds the object size
#: touch non-contiguous objects; we enumerate them exactly up to this
#: many iterations and refuse the prediction beyond it.
MAX_ENUMERATED_TRIPS = 1 << 20


class LoopClass(enum.Enum):
    """How statically analyzable a loop's far-memory traffic is."""

    OBLIVIOUS = "oblivious"
    STRIDED_PARTIAL = "strided_partial"
    OPAQUE = "opaque"


@dataclass
class LoopPrediction:
    """Static per-entry traffic prediction for one oblivious loop."""

    #: Distinct remote objects touched (per loop entry, cold).
    objects: int
    #: Bytes the runtime fetches to satisfy those touches.
    bytes_fetched: int
    #: Bytes the program actually consumes.
    bytes_used: int

    @property
    def fetch_amplification(self) -> float:
        """bytes_fetched / bytes_used (>= 1 for non-overlapping streams)."""
        if self.bytes_used <= 0:
            return 1.0
        return self.bytes_fetched / self.bytes_used


@dataclass
class LoopAudit:
    """Everything the auditor derived about one loop."""

    function: str
    loop: Loop
    classification: LoopClass
    #: Affine streams of heap-may accesses innermost to this loop.
    streams: List[SymbolicStream] = field(default_factory=list)
    #: Heap-may accesses with no affine stream (what made it opaque).
    opaque_accesses: List[Instruction] = field(default_factory=list)
    #: Traffic prediction; None unless the loop is oblivious.
    prediction: Optional[LoopPrediction] = None
    #: Distinct object ids per base value (oblivious loops only).
    objects_by_base: Dict[Value, Set[int]] = field(default_factory=dict)
    #: Governing trip count, when known.
    trips: Optional[int] = None
    #: Guard-overhead cycles (naive, chunked) from the cost model.
    naive_guard_cycles: float = 0.0
    chunked_guard_cycles: float = 0.0

    @property
    def has_heap_streams(self) -> bool:
        return bool(self.streams)

    def __repr__(self) -> str:
        return (
            f"<LoopAudit @{self.function} %{self.loop.header.name} "
            f"{self.classification.value} streams={len(self.streams)}>"
        )


@dataclass
class ProgramPrediction:
    """Whole-program cold-traffic prediction (union across loops)."""

    #: Distinct remote objects across all audited loops.
    objects: int
    bytes_fetched: int
    bytes_used: int
    #: False when some reachable loop with heap traffic was not
    #: oblivious — the numbers are then a lower bound, not a prediction.
    complete: bool

    @property
    def fetch_amplification(self) -> float:
        if self.bytes_used <= 0:
            return 1.0
        return self.bytes_fetched / self.bytes_used


@dataclass
class ModuleAudit:
    """The auditor's report over one module."""

    module_name: str
    object_size: int
    loops: List[LoopAudit] = field(default_factory=list)
    #: Functions the audit covered (reachable from the entry point).
    functions: List[str] = field(default_factory=list)

    def by_class(self, cls: LoopClass) -> List[LoopAudit]:
        return [a for a in self.loops if a.classification is cls]

    @property
    def oblivious(self) -> List[LoopAudit]:
        return self.by_class(LoopClass.OBLIVIOUS)

    @property
    def opaque(self) -> List[LoopAudit]:
        return self.by_class(LoopClass.OPAQUE)

    @property
    def strided_partial(self) -> List[LoopAudit]:
        return self.by_class(LoopClass.STRIDED_PARTIAL)

    def program_prediction(self) -> ProgramPrediction:
        """Union object sets across loops, per allocation base.

        A second sweep over the same allocation re-hits resident objects,
        so cold remote fetches are counted once per distinct object.
        """
        by_base: Dict[Value, Set[int]] = {}
        intervals: Dict[Value, List[Tuple[int, int, int]]] = {}
        complete = True
        for audit in self.loops:
            if audit.classification is not LoopClass.OBLIVIOUS:
                if audit.streams or audit.opaque_accesses:
                    complete = False
                continue
            if audit.prediction is None:
                if audit.streams:
                    complete = False
                continue
            for base, objs in audit.objects_by_base.items():
                by_base.setdefault(base, set()).update(objs)
            for stream in audit.streams:
                iv = stream.byte_interval()
                used = stream.used_bytes()
                if iv is None or used is None or stream.base is None:
                    continue
                intervals.setdefault(stream.base, []).append((iv[0], iv[1], used))
        objects = sum(len(objs) for objs in by_base.values())
        bytes_used = sum(
            _merged_used_bytes(spans) for spans in intervals.values()
        )
        return ProgramPrediction(
            objects=objects,
            bytes_fetched=objects * self.object_size,
            bytes_used=bytes_used,
            complete=complete,
        )


def _merged_used_bytes(spans: List[Tuple[int, int, int]]) -> int:
    """Union per-stream used-byte estimates over overlapping intervals."""
    if not spans:
        return 0
    spans = sorted(spans)
    total = 0
    cur_lo, cur_hi, cur_used = spans[0]
    for lo, hi, used in spans[1:]:
        if lo < cur_hi:  # overlapping streams share their footprint
            cur_hi = max(cur_hi, hi)
            cur_used = max(cur_used, used)
        else:
            total += min(cur_used, cur_hi - cur_lo)
            cur_lo, cur_hi, cur_used = lo, hi, used
    total += min(cur_used, cur_hi - cur_lo)
    return total


class AccessAuditor:
    """Whole-program far-memory access auditor."""

    def __init__(
        self,
        module: Module,
        object_size: int = BASE_PAGE,
        costs: CostTable = DEFAULT_COSTS,
        entry: str = "main",
        reachable_only: bool = True,
    ) -> None:
        self.module = module
        self.object_size = object_size
        self.cost_model = ChunkingCostModel(object_size, costs)
        self.entry = entry
        self.reachable_only = reachable_only
        self._summaries = return_provenance_summaries(module)

    def run(self) -> ModuleAudit:
        audit = ModuleAudit(module_name=self.module.name, object_size=self.object_size)
        callgraph = CallGraph(self.module)
        reachable = (
            callgraph.reachable_from(self.entry) if self.reachable_only else None
        )
        for func in self.module.defined_functions():
            if reachable is not None and func.name not in reachable:
                continue
            audit.functions.append(func.name)
            self._audit_function(func, audit)
        return audit

    # -- per function -------------------------------------------------------

    def _audit_function(self, func, audit: ModuleAudit) -> None:
        loop_info = find_loops(func)
        if not len(loop_info):
            return
        symbolic = SymbolicAddressAnalysis(func, loop_info)
        provenance = ProvenanceAnalysis(func, summaries=self._summaries)
        for loop in loop_info:
            audit.loops.append(
                self._audit_loop(func, loop, symbolic, provenance)
            )

    def _is_far_access(self, access: Instruction, provenance) -> bool:
        """Does this load/store potentially touch far memory?"""
        ptr = access.pointer
        if isinstance(ptr, Call) and ptr.callee in TRANSPARENT_DEREFS:
            return True  # already routed through the far-memory runtime
        return provenance.must_guard(access)

    def _audit_loop(
        self, func, loop: Loop, symbolic: SymbolicAddressAnalysis, provenance
    ) -> LoopAudit:
        streams: List[SymbolicStream] = []
        opaque: List[Instruction] = []
        for access in symbolic.loop_accesses(loop):
            if not self._is_far_access(access, provenance):
                continue
            stream = symbolic.stream_of(access)
            if stream is None:
                opaque.append(access)
            else:
                streams.append(stream)
        trips = symbolic.loop_trips(loop)

        if opaque:
            classification = LoopClass.OPAQUE
        elif streams and all(s.exact for s in streams) and trips is not None:
            classification = LoopClass.OBLIVIOUS
        elif streams:
            classification = LoopClass.STRIDED_PARTIAL
        else:
            # No far-memory traffic at all: trivially analyzable.
            classification = LoopClass.OBLIVIOUS

        result = LoopAudit(
            function=func.name,
            loop=loop,
            classification=classification,
            streams=streams,
            opaque_accesses=opaque,
            trips=trips,
        )
        if classification is LoopClass.OBLIVIOUS and streams:
            self._predict(result)
        if streams and trips is not None:
            elem = min(s.elem_size for s in streams)
            shape = LoopShape(
                iterations_per_entry=float(trips),
                elem_size=max(1, elem),
                accesses_per_iteration=len(streams),
            )
            naive, chunked = self.cost_model.loop_costs(shape)
            result.naive_guard_cycles = naive
            result.chunked_guard_cycles = chunked
        return result

    # -- predictions --------------------------------------------------------

    def _predict(self, audit: LoopAudit) -> None:
        by_base: Dict[Value, Set[int]] = {}
        intervals: Dict[Value, List[Tuple[int, int, int]]] = {}
        for stream in audit.streams:
            objs = self._stream_objects(stream)
            if objs is None or stream.base is None:
                return  # not predictable after all (e.g. huge sparse stride)
            by_base.setdefault(stream.base, set()).update(objs)
            iv = stream.byte_interval()
            used = stream.used_bytes()
            if iv is None or used is None:
                return
            intervals.setdefault(stream.base, []).append((iv[0], iv[1], used))
        objects = sum(len(objs) for objs in by_base.values())
        bytes_used = sum(_merged_used_bytes(spans) for spans in intervals.values())
        audit.objects_by_base = by_base
        audit.prediction = LoopPrediction(
            objects=objects,
            bytes_fetched=objects * self.object_size,
            bytes_used=bytes_used,
        )

    def _stream_objects(self, stream: SymbolicStream) -> Optional[Set[int]]:
        """Distinct object indices (relative to the base) a stream touches."""
        if stream.trips is None or not stream.exact:
            return None
        if stream.trips <= 0:
            return set()
        o = self.object_size
        interval = stream.byte_interval()
        assert interval is not None
        lo, hi = interval
        if abs(stream.stride) <= o:
            # Dense: every object between the endpoints is touched.
            return set(range(lo // o, (hi - 1) // o + 1))
        if stream.trips > MAX_ENUMERATED_TRIPS:
            return None
        objs: Set[int] = set()
        for k in range(stream.trips):
            first = stream.offset + k * stream.stride
            last = first + stream.elem_size - 1
            objs.update(range(first // o, last // o + 1))
        return objs


def audit_module(
    module: Module,
    object_size: int = BASE_PAGE,
    costs: CostTable = DEFAULT_COSTS,
    entry: str = "main",
    reachable_only: bool = True,
) -> ModuleAudit:
    """One-shot convenience wrapper around :class:`AccessAuditor`."""
    return AccessAuditor(
        module,
        object_size=object_size,
        costs=costs,
        entry=entry,
        reachable_only=reachable_only,
    ).run()
