"""Symbolic (affine) address streams for far-memory loops.

3PO's observation (PAPERS.md, arxiv 2207.07688) is that many loops are
*oblivious*: their address streams are closed-form functions of loop
induction variables, computable at compile time.  This module derives
that closed form.  For each load/store inside a loop we try to express
the accessed address as

    addr(k) = base + offset + k * stride        (k = 0 .. trips-1)

where ``base`` is a loop-invariant pointer value, ``offset`` and
``stride`` are byte constants, and ``k`` counts loop iterations.  The
derivation walks the pointer's def-use chain through ``gep`` chains,
integer/pointer induction variables (:mod:`repro.analysis.induction`),
``ptrtoint``/``inttoptr`` round trips with constant arithmetic, and the
``tfm_*`` deref intrinsics the compiler routes accesses through — so
the same analysis works on pre-transform and post-transform IR.

Resolution has three outcomes per access:

* **affine & exact** — base, offset and stride all known;
* **partial** — the stride is known but the start point is not (e.g. a
  loop-invariant but non-constant first index);
* **opaque** — the address depends on in-loop memory (pointer chasing)
  or non-affine arithmetic (hashing), so no static stream exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.induction import InductionAnalysis, InductionVariable
from repro.analysis.loops import Loop, LoopInfo, find_loops
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Call,
    Gep,
    Instruction,
    IntToPtr,
    Load,
    Phi,
    PtrToInt,
    Store,
)
from repro.ir.values import Constant, Value

#: Intrinsics that return (a canonical twin of) their first argument:
#: the address stream of the raw pointer is the stream of the access.
TRANSPARENT_DEREFS = frozenset(
    {
        "tfm_guard_read",
        "tfm_guard_write",
        "tfm_chunk_deref",
        "tfm_chunk_deref_write",
        "tfm_chase_deref",
        "tfm_chase_deref_write",
    }
)

#: Chase derefs are transparent for *plumbing* but their streams are
#: data-dependent by construction (the pointer is loaded from memory).
CHASE_DEREFS = frozenset({"tfm_chase_deref", "tfm_chase_deref_write"})


@dataclass
class SymbolicStream:
    """One access's affine address stream within its innermost loop."""

    #: The load/store this stream describes.
    access: Instruction
    #: Loop-invariant pointer the stream is relative to (allocation root).
    base: Optional[Value]
    #: Constant byte offset from ``base`` at the first iteration.
    offset: int
    #: Bytes advanced per loop iteration (0 = loop-invariant address).
    stride: int
    #: Bytes moved by the access itself.
    elem_size: int
    #: True when ``base + offset`` pins the first address exactly;
    #: False for partial streams (stride known, start unknown).
    exact: bool
    #: Trip count of the innermost loop, when statically known.
    trips: Optional[int] = None

    @property
    def is_write(self) -> bool:
        return isinstance(self.access, Store)

    def span_bytes(self) -> Optional[int]:
        """Distinct byte span touched over all iterations (needs trips)."""
        if self.trips is None:
            return None
        if self.trips <= 0:
            return 0
        return abs(self.stride) * (self.trips - 1) + self.elem_size

    def used_bytes(self) -> Optional[int]:
        """Bytes the program actually consumes (overlap-deduplicated)."""
        span = self.span_bytes()
        if span is None:
            return None
        return min(self.trips * self.elem_size, span)

    def byte_interval(self) -> Optional[tuple]:
        """[lo, hi) byte range relative to ``base`` (needs exact+trips)."""
        if not self.exact or self.trips is None or self.trips <= 0:
            return None
        first = self.offset
        last = self.offset + self.stride * (self.trips - 1)
        lo = min(first, last)
        hi = max(first, last) + self.elem_size
        return lo, hi

    def __repr__(self) -> str:
        base = self.base.short() if self.base is not None else "?"
        tag = "exact" if self.exact else "partial"
        return (
            f"<stream {base}+{self.offset} stride={self.stride} "
            f"x{self.elem_size} trips={self.trips} {tag}>"
        )


@dataclass
class _Affine:
    """Intermediate resolution state (base/offset/stride accumulator)."""

    base: Optional[Value]
    offset: int
    stride: int
    exact: bool


class SymbolicAddressAnalysis:
    """Derive affine address streams for every loop access of a function."""

    def __init__(self, func: Function, loop_info: Optional[LoopInfo] = None) -> None:
        self.function = func
        self.loop_info = loop_info if loop_info is not None else find_loops(func)
        self.induction = InductionAnalysis(func, self.loop_info)
        #: Resolved streams keyed by access instruction; opaque accesses
        #: are present with value None.
        self._streams: Dict[Instruction, Optional[SymbolicStream]] = {}
        self._analyze()

    # -- public API ---------------------------------------------------------

    def stream_of(self, access: Instruction) -> Optional[SymbolicStream]:
        """The affine stream of a load/store, or None when opaque."""
        return self._streams.get(access)

    def loop_trips(self, loop: Loop) -> Optional[int]:
        """Trip count of ``loop``'s governing IV, when statically known."""
        iv = self.induction.governing_iv(loop)
        return iv.trip_count if iv is not None else None

    def loop_accesses(self, loop: Loop) -> List[Instruction]:
        """All analyzed accesses whose innermost loop is ``loop``."""
        out = []
        for access in self._streams:
            block = access.parent
            if block is not None and self.loop_info.loop_of(block) is loop:
                out.append(access)
        return out

    # -- derivation ---------------------------------------------------------

    def _analyze(self) -> None:
        for loop in self.loop_info:
            trips = self.loop_trips(loop)
            for inst in loop.instructions():
                if not isinstance(inst, (Load, Store)):
                    continue
                block = inst.parent
                if block is None or self.loop_info.loop_of(block) is not loop:
                    continue  # attributed to an inner loop instead
                self._streams[inst] = self._resolve_access(inst, loop, trips)

    def _resolve_access(
        self, access: Instruction, loop: Loop, trips: Optional[int]
    ) -> Optional[SymbolicStream]:
        ptr = access.pointer
        elem = self._access_size(access)
        if isinstance(ptr, Call) and ptr.callee in CHASE_DEREFS:
            return None  # pointer chase: data-dependent by construction
        affine = self._resolve(ptr, loop, set())
        if affine is None:
            return None
        return SymbolicStream(
            access=access,
            base=affine.base,
            offset=affine.offset,
            stride=affine.stride,
            elem_size=elem,
            exact=affine.exact and affine.base is not None,
            trips=trips,
        )

    @staticmethod
    def _access_size(access: Instruction) -> int:
        ty = access.type if isinstance(access, Load) else access.value.type
        size = ty.size_bytes()
        return size if size > 0 else 8

    def _in_loop(self, value: Value, loop: Loop) -> bool:
        return (
            isinstance(value, Instruction)
            and value.parent is not None
            and value.parent in loop.blocks
        )

    def _resolve(self, value: Value, loop: Loop, seen: set) -> Optional[_Affine]:
        """Affine form of a pointer-ish ``value`` relative to ``loop``."""
        if value in seen:
            return None
        seen.add(value)
        if isinstance(value, Constant):
            return _Affine(base=None, offset=int(value.value), stride=0, exact=True)
        if not self._in_loop(value, loop):
            # Loop-invariant: this is the stream's base object.
            return _Affine(base=value, offset=0, stride=0, exact=True)
        # In-loop instruction: peel one def-use layer.
        if isinstance(value, Gep):
            parent = self._resolve(value.base, loop, seen)
            if parent is None:
                return None
            return self._add_index(parent, value.index, value.elem_size, loop)
        if isinstance(value, Call) and value.callee in TRANSPARENT_DEREFS:
            if value.callee in CHASE_DEREFS:
                return None
            return self._resolve(value.args[0], loop, seen)
        if isinstance(value, Phi):
            # Pointer IVs step in bytes; an integer IV reached in address
            # context (through a ptrtoint round trip) also steps in bytes.
            iv = self.induction.iv_for_value(loop, value)
            if iv is not None:
                start = self._resolve(iv.start, loop, seen)
                if start is None:
                    return None
                return _Affine(
                    base=start.base,
                    offset=start.offset,
                    stride=start.stride + iv.step,
                    exact=start.exact,
                )
            return None
        if isinstance(value, (PtrToInt, IntToPtr)):
            return self._resolve(value.operands[0], loop, seen)
        if isinstance(value, BinOp) and value.opcode in ("add", "sub"):
            return self._resolve_binop(value, loop, seen)
        # Everything else in-loop (loads, selects, hashes, calls) is opaque.
        return None

    def _add_index(
        self, parent: _Affine, index: Value, elem_size: int, loop: Loop
    ) -> Optional[_Affine]:
        """Fold ``gep(parent, index, elem_size)`` into the affine form."""
        if isinstance(index, Constant):
            return _Affine(
                base=parent.base,
                offset=parent.offset + int(index.value) * elem_size,
                stride=parent.stride,
                exact=parent.exact,
            )
        iv = self._index_iv(index, loop)
        if iv is not None:
            iv_var, shift = iv
            offset = parent.offset + shift * iv_var.step * elem_size
            exact = parent.exact
            if isinstance(iv_var.start, Constant):
                offset += int(iv_var.start.value) * elem_size
            else:
                exact = False
            return _Affine(
                base=parent.base,
                offset=offset,
                stride=parent.stride + iv_var.step * elem_size,
                exact=exact,
            )
        if not self._in_loop(index, loop):
            # Loop-invariant but unknown index: stride survives, the
            # start point does not (a *partial* stream).
            return _Affine(
                base=parent.base,
                offset=parent.offset,
                stride=parent.stride,
                exact=False,
            )
        return None

    def _index_iv(self, index: Value, loop: Loop):
        """(iv, shift) when ``index`` is an IV phi (shift 0) or its
        update instruction (shift 1: one step ahead of the phi)."""
        iv = self.induction.iv_for_value(loop, index)
        if iv is not None and not iv.is_pointer:
            return iv, 0
        for candidate in self.induction.ivs(loop):
            if candidate.update is index and not candidate.is_pointer:
                return candidate, 1
        return None

    def _resolve_binop(self, value: BinOp, loop: Loop, seen: set) -> Optional[_Affine]:
        """Constant add/sub folded through a ptrtoint round trip."""
        lhs, rhs = value.lhs, value.rhs
        if isinstance(rhs, Constant):
            parent = self._resolve(lhs, loop, seen)
            if parent is None:
                return None
            delta = int(rhs.value) if value.opcode == "add" else -int(rhs.value)
            return _Affine(parent.base, parent.offset + delta, parent.stride, parent.exact)
        if isinstance(lhs, Constant) and value.opcode == "add":
            parent = self._resolve(rhs, loop, seen)
            if parent is None:
                return None
            return _Affine(
                parent.base, parent.offset + int(lhs.value), parent.stride, parent.exact
            )
        return None
