"""Pointer provenance: which allocations can a pointer refer to?

TrackFM's guard-check analysis must skip accesses to stack and global
objects and guard everything that may be heap (§3.1: "searches for all
LLVM IR-level load and store instructions that correspond to heap
allocations").  The paper leans on NOELLE's PDG and alias analyses; we
implement a flow-insensitive provenance lattice:

    STACK | GLOBAL | HEAP | UNKNOWN

computed as a fixed point over def-use chains.  ``gep``, ``select``,
``phi`` and ``inttoptr(ptrtoint(p) op k)`` propagate provenance; a
pointer that may be heap (or is unknown — e.g. loaded from memory or a
function argument) must be guarded, which is exactly the conservative
direction: a missed STACK classification costs a custody check, never
correctness.
"""

from __future__ import annotations

import enum
from typing import Dict, Mapping, Optional, Set

from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Gep,
    Instruction,
    IntToPtr,
    Load,
    Phi,
    PtrToInt,
    Select,
    Store,
)
from repro.ir.values import Constant, Value

#: Allocation entry points whose results are heap pointers.  After the
#: libc transformation pass these become ``tfm_*`` calls, which are also
#: heap by construction.
HEAP_ALLOC_FUNCTIONS = frozenset(
    {
        "malloc",
        "calloc",
        "realloc",
        "tfm_malloc",
        "tfm_calloc",
        "tfm_realloc",
        "aifm_alloc",
    }
)


class Provenance(enum.Flag):
    """May-point-to classes; a value can carry several."""

    NONE = 0
    STACK = enum.auto()
    GLOBAL = enum.auto()
    HEAP = enum.auto()
    UNKNOWN = enum.auto()

    def may_be_heap(self) -> bool:
        return bool(self & (Provenance.HEAP | Provenance.UNKNOWN))

    def definitely_local_only(self) -> bool:
        """True when the pointer can never be a TrackFM pointer."""
        return not self.may_be_heap() and self != Provenance.NONE


class ProvenanceAnalysis:
    """Fixed-point provenance over one function.

    ``summaries`` optionally maps function names to the provenance of
    their returned pointers (see :func:`return_provenance_summaries`):
    with it, a call result is classified by what the callee actually
    returns instead of falling to UNKNOWN.  The guard pipeline runs
    without summaries (per-function, maximally conservative); the
    whole-program auditor passes them in.
    """

    def __init__(
        self,
        func: Function,
        summaries: Optional[Mapping[str, Provenance]] = None,
    ) -> None:
        self.function = func
        self.summaries: Mapping[str, Provenance] = summaries or {}
        self._prov: Dict[Value, Provenance] = {}
        self._compute()

    def of(self, value: Value) -> Provenance:
        """Provenance of ``value``; UNKNOWN when nothing better is known."""
        return self._prov.get(value, Provenance.UNKNOWN)

    def must_guard(self, access: Instruction) -> bool:
        """Should a load/store be guarded? (May-be-heap pointers only.)"""
        if isinstance(access, Load):
            ptr = access.pointer
        elif isinstance(access, Store):
            ptr = access.pointer
        else:
            return False
        return self.of(ptr).may_be_heap()

    # -- fixed point ----------------------------------------------------

    def _seed(self) -> None:
        for arg in self.function.args:
            if arg.type.is_pointer():
                # Escaped pointers: could be anything the caller made.
                self._prov[arg] = Provenance.UNKNOWN
        for inst in self.function.instructions():
            if isinstance(inst, Alloca):
                self._prov[inst] = Provenance.STACK
            elif isinstance(inst, Call):
                if inst.callee in HEAP_ALLOC_FUNCTIONS:
                    self._prov[inst] = Provenance.HEAP
                elif inst.callee.startswith("global_addr."):
                    self._prov[inst] = Provenance.GLOBAL
                elif inst.type.is_pointer():
                    summary = self.summaries.get(inst.callee)
                    if summary is not None and summary != Provenance.NONE:
                        self._prov[inst] = summary
                    else:
                        self._prov[inst] = Provenance.UNKNOWN
            elif isinstance(inst, Load) and inst.type.is_pointer():
                # A pointer loaded from memory: unknown origin.
                self._prov[inst] = Provenance.UNKNOWN
            elif isinstance(inst, Constant):  # pragma: no cover - not an inst
                pass

    def _transfer(self, inst: Instruction) -> Provenance:
        if isinstance(inst, Gep):
            return self.of(inst.base)
        if isinstance(inst, Select):
            _, a, b = inst.operands
            return self.of(a) | self.of(b)
        if isinstance(inst, Phi):
            prov = Provenance.NONE
            for value, _ in inst.incoming:
                prov |= self._value_prov(value)
            return prov
        if isinstance(inst, PtrToInt):
            return self.of(inst.operands[0])
        if isinstance(inst, IntToPtr):
            return self._int_origin(inst.operands[0])
        return self._prov.get(inst, Provenance.NONE)

    def _value_prov(self, value: Value) -> Provenance:
        if isinstance(value, Constant):
            # Null / literal addresses are not remotable.
            return Provenance.GLOBAL
        return self.of(value)

    def _int_origin(self, value: Value) -> Provenance:
        """Trace integer math back to a ptrtoint, preserving provenance.

        This is the §3.2 property: offset arithmetic on a TrackFM
        pointer cast to an integer keeps the non-canonical bits, so the
        provenance (and hence the guard) survives the round trip.
        """
        seen: Set[Value] = set()
        work = [value]
        prov = Provenance.NONE
        while work:
            v = work.pop()
            if v in seen:
                continue
            seen.add(v)
            if isinstance(v, PtrToInt):
                prov |= self.of(v.operands[0])
            elif isinstance(v, BinOp):
                work.extend(v.operands)
            elif isinstance(v, Phi):
                work.extend(val for val, _ in v.incoming)
            elif isinstance(v, Constant):
                continue
            else:
                prov |= Provenance.UNKNOWN
        return prov if prov != Provenance.NONE else Provenance.UNKNOWN

    def _compute(self) -> None:
        if self.function.is_declaration:
            return
        self._seed()
        changed = True
        # Flow-insensitive Kildall iteration to a fixed point.
        while changed:
            changed = False
            for inst in self.function.instructions():
                if not (inst.type.is_pointer() or isinstance(inst, (PtrToInt, IntToPtr))):
                    continue
                if isinstance(inst, (Alloca,)):
                    continue
                new = self._transfer(inst)
                if new == Provenance.NONE:
                    continue
                old = self._prov.get(inst, Provenance.NONE)
                merged = old | new
                if merged != old:
                    self._prov[inst] = merged
                    changed = True


def return_provenance_summaries(module) -> Dict[str, Provenance]:
    """Interprocedural return-value provenance, to a fixed point.

    For every *defined* function returning a pointer, join the
    provenance of all ``ret`` operands — feeding previous iterations'
    summaries back in so chains of helpers converge (a wrapper around a
    wrapper around ``malloc`` is still HEAP).  Declarations (externals)
    are absent from the result, so callers keep treating them as
    UNKNOWN.  The join only ever grows, so iteration terminates at the
    lattice height.
    """
    from repro.ir.instructions import Ret

    summaries: Dict[str, Provenance] = {}
    candidates = [
        func
        for func in module.defined_functions()
        if func.ret_type.is_pointer()
    ]
    changed = True
    while changed:
        changed = False
        for func in candidates:
            analysis = ProvenanceAnalysis(func, summaries=summaries)
            prov = Provenance.NONE
            for inst in func.instructions():
                if isinstance(inst, Ret) and inst.value is not None:
                    prov |= analysis._value_prov(inst.value)
            if prov == Provenance.NONE:
                prov = Provenance.UNKNOWN
            if summaries.get(func.name) != prov:
                summaries[func.name] = prov
                changed = True
    return summaries
