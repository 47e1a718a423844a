"""Induction-variable analysis in NOELLE's dependence-pattern style.

NOELLE detects induction variables "as patterns in the dependence
graph" rather than by syntactic variable matching (§3.4, footnote 6),
which catches both integer IVs and *pointer* IVs (a pointer phi stepped
by a constant-stride ``gep``).  Both matter to TrackFM: loop chunking
needs the loop-governing IV and its stride to chunk accesses at object
boundaries, and the prefetch pass needs the access stride.

We implement both patterns:

* **integer IV**: ``phi`` in the loop header whose in-loop incoming value
  is ``add(phi, c)`` (or ``sub``), with ``c`` a constant;
* **pointer IV**: ``phi`` of pointer type whose in-loop incoming value is
  ``gep(phi, c, elem)``, stride ``c * elem`` bytes.

The loop-governing IV is the one feeding the loop's exit comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.cfg import CFG
from repro.analysis.loops import Loop, LoopInfo
from repro.ir.function import Function
from repro.ir.instructions import BinOp, CondBr, Gep, ICmp, Phi
from repro.ir.values import Constant, Value


@dataclass
class InductionVariable:
    """One detected induction variable."""

    phi: Phi
    loop: Loop
    start: Value
    #: Stride per iteration: IR units for integer IVs, bytes for pointer IVs.
    step: int
    is_pointer: bool
    #: The instruction computing the next value (add/sub/gep).
    update: Value
    #: True when this IV feeds the loop's exit condition.
    governs_loop: bool = False
    #: Trip-count bound when the exit compare is against a constant.
    trip_count: Optional[int] = None

    def __repr__(self) -> str:
        kind = "ptr" if self.is_pointer else "int"
        gov = " governing" if self.governs_loop else ""
        return f"<IV %{self.phi.name} {kind} step={self.step}{gov}>"


class InductionAnalysis:
    """Detect IVs for every loop of a function."""

    def __init__(self, func: Function, loop_info: LoopInfo) -> None:
        self.function = func
        self.loop_info = loop_info
        self.cfg = CFG(func)
        self._by_loop: Dict[Loop, List[InductionVariable]] = {}
        for loop in loop_info:
            self._by_loop[loop] = self._analyze_loop(loop)

    def ivs(self, loop: Loop) -> List[InductionVariable]:
        """All induction variables of ``loop``."""
        return list(self._by_loop.get(loop, []))

    def governing_iv(self, loop: Loop) -> Optional[InductionVariable]:
        """The loop-governing IV, if one was detected."""
        for iv in self._by_loop.get(loop, []):
            if iv.governs_loop:
                return iv
        return None

    def iv_for_value(self, loop: Loop, value: Value) -> Optional[InductionVariable]:
        """The IV whose phi is ``value``, if any."""
        for iv in self._by_loop.get(loop, []):
            if iv.phi is value:
                return iv
        return None

    # -- detection ----------------------------------------------------------

    def _analyze_loop(self, loop: Loop) -> List[InductionVariable]:
        ivs: List[InductionVariable] = []
        header = loop.header
        for phi in header.phis():
            iv = self._match_phi(phi, loop)
            if iv is not None:
                ivs.append(iv)
        self._mark_governing(loop, ivs)
        return ivs

    def _match_phi(self, phi: Phi, loop: Loop) -> Optional[InductionVariable]:
        if len(phi.incoming) != 2:
            return None
        inside: Optional[tuple] = None
        outside: Optional[tuple] = None
        for value, pred in phi.incoming:
            if pred in loop.blocks:
                inside = (value, pred)
            else:
                outside = (value, pred)
        if inside is None or outside is None:
            return None
        update, _ = inside
        start, _ = outside

        if isinstance(update, BinOp) and update.opcode in ("add", "sub"):
            step = self._const_step(update, phi)
            if step is None:
                return None
            if update.opcode == "sub":
                step = -step
            return InductionVariable(
                phi=phi, loop=loop, start=start, step=step,
                is_pointer=False, update=update,
            )
        if isinstance(update, Gep) and update.base is phi:
            if isinstance(update.index, Constant):
                byte_step = update.index.value * update.elem_size
                return InductionVariable(
                    phi=phi, loop=loop, start=start, step=byte_step,
                    is_pointer=True, update=update,
                )
        return None

    @staticmethod
    def _const_step(update: BinOp, phi: Phi) -> Optional[int]:
        """Constant stride of ``add``/``sub`` updates, either operand
        order for ``add`` (``c - phi`` is not an IV, so ``sub`` only
        matches the phi on the left).  Negative and non-unit constants
        are strides like any other."""
        a, b = update.lhs, update.rhs
        if a is phi and isinstance(b, Constant):
            return int(b.value)
        if b is phi and isinstance(a, Constant) and update.opcode == "add":
            return int(a.value)
        return None

    def _mark_governing(self, loop: Loop, ivs: List[InductionVariable]) -> None:
        """Find the IV used by the exit branch compare; derive trip count."""
        if not ivs:
            return
        exit_cmps: List[ICmp] = []
        for block in loop.blocks:
            term = block.terminator
            if not isinstance(term, CondBr):
                continue
            leaves = any(s not in loop.blocks for s in term.successors())
            if leaves and isinstance(term.condition, ICmp):
                exit_cmps.append(term.condition)
        for cmp_inst in exit_cmps:
            for iv in ivs:
                lhs, rhs = cmp_inst.operands
                uses_iv = lhs is iv.phi or rhs is iv.phi or (
                    lhs is iv.update or rhs is iv.update
                )
                if not uses_iv:
                    continue
                iv.governs_loop = True
                iv_on_left = lhs is iv.phi or lhs is iv.update
                bound = rhs if iv_on_left else lhs
                pred = cmp_inst.pred
                if not iv_on_left:
                    pred = _SWAPPED_PREDS.get(pred, pred)
                on_update = (lhs is iv.update) or (rhs is iv.update)
                iv.trip_count = self._trip_count(iv, bound, pred, on_update)
                return

    @staticmethod
    def _trip_count(
        iv: InductionVariable,
        bound: Value,
        pred: str = "slt",
        on_update: bool = False,
    ) -> Optional[int]:
        """Iterations executed before the exit compare fails.

        Exact for the signed monotone predicates (``slt``/``sle``/
        ``sgt``/``sge``) and for ``ne`` when the stride divides the
        distance; ``eq`` and the unsigned predicates stay unknown.
        ``on_update`` means the compare tests ``phi + step`` (a
        rotated/do-while loop): the tested sequence starts one step
        ahead and the body has already run once when it is first tested.
        """
        if not isinstance(bound, Constant) or not isinstance(iv.start, Constant):
            return None
        step = iv.step
        if step == 0:
            return None
        start = int(iv.start.value)
        target = int(bound.value)
        if on_update:
            # First tested value is start + step; one trip is already done.
            base = InductionAnalysis._trip_count_from(
                start + step, step, target, pred
            )
            return None if base is None else base + 1
        return InductionAnalysis._trip_count_from(start, step, target, pred)

    @staticmethod
    def _trip_count_from(
        start: int, step: int, bound: int, pred: str
    ) -> Optional[int]:
        """Count of k >= 0 with ``start + k*step <pred> bound``."""
        if pred == "ne":
            distance = bound - start
            if distance == 0:
                return 0
            if distance % step != 0 or distance * step < 0:
                return None  # never hits the bound exactly: no static exit
            return distance // step
        # Normalize <=/>= into strict compares against a shifted bound.
        if pred == "sle":
            pred, bound = "slt", bound + 1
        elif pred == "sge":
            pred, bound = "sgt", bound - 1
        if pred == "slt":
            if start >= bound:
                return 0
            if step < 0:
                return None  # counts away from the bound: no static exit
            return -(-(bound - start) // step)
        if pred == "sgt":
            if start <= bound:
                return 0
            if step > 0:
                return None
            return -(-(start - bound) // -step)
        return None  # eq / unsigned predicates: not a monotone exit


#: Predicate seen by the IV when the compare has it on the right.
_SWAPPED_PREDS = {
    "slt": "sgt",
    "sle": "sge",
    "sgt": "slt",
    "sge": "sle",
    "ult": "ugt",
    "ule": "uge",
    "ugt": "ult",
    "uge": "ule",
}
