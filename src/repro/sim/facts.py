"""Value facts: what each register of a decoded function always holds.

TrackFM's guards sit in code LLVM compiles with its own integer facts
(no-signed-wrap arithmetic, induction variables).  :mod:`repro.sim.codegen`
gets the same kind of facts from :func:`value_facts`, once per decoded
function, and drops the ``int()`` conversions and overflow wraps they
show cannot change a result.

* **Kinds.**  Every register slot gets one of :data:`UNKNOWN`,
  :data:`INT` (an exact Python ``int``, so ``int()`` is the identity on
  it) or :data:`INT64` (an ``int`` in ``[-2**63, 2**63)``), true of every
  value any definition of the slot writes.  It is the greatest fixpoint
  over the ops and the phi copies, seeded by constants (the IR wraps
  them to their width), loads of an integer type, compares and every
  result the generated code wraps.  Arguments and call results are
  unknown.
* **Wraps that cannot fire** (:attr:`ValueFacts.unwrapped`): an
  ``and``/``or``/``xor`` of two :data:`INT64` operands, and a 64-bit
  ``srem`` of two, are closed in the signed 64-bit range (``sdiv`` is
  not: ``INT64_MIN / -1``); and ``x + c``, with ``c`` a constant 0 or
  1, where ``x`` is :data:`INT64` and below some :data:`INT64` ``b``,
  since then ``x + c <= b <= INT64_MAX``.
* **Where ``x < b`` holds.**  In every block the true edge of a
  ``condbr`` on ``x < b`` dominates: the edge's target has that block
  as its only predecessor, is not the entry, and dominates the block
  (:class:`~repro.analysis.dominators.DominatorTree`); the compare sits
  in the branching block, so it is the value the branch tested.  No
  path reaches such a block without taking the edge, so no definition
  of ``x`` runs between the branch and any use of ``x`` there.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple

from repro.analysis.cfg import CFG
from repro.analysis.dominators import DominatorTree
from repro.ir.basicblock import BasicBlock
from repro.sim import decode
from repro.sim.decode import DecodedFunction

#: Slot kinds, ordered: a larger kind implies every smaller one.
UNKNOWN = 0
INT = 1
INT64 = 2

_MIN64 = -(1 << 63)
_MAX64 = (1 << 63) - 1

#: Ops whose result is always an ``int`` in the signed 64-bit range:
#: compares set 1 or 0, and the others convert with ``int()`` and wrap.
_ALWAYS_INT64 = frozenset({
    decode.OP_ICMP_EQ, decode.OP_ICMP_NE, decode.OP_ICMP_SLT, decode.OP_ICMP_SLE,
    decode.OP_ICMP_SGT, decode.OP_ICMP_SGE, decode.OP_ICMP_U, decode.OP_FCMP,
    decode.OP_PTRTOINT, decode.OP_FPTOSI, decode.OP_WRAP, decode.OP_ZEXT,
    decode.OP_SHL, decode.OP_LSHR, decode.OP_ASHR, decode.OP_BINW,
    decode.OP_SDIV, decode.OP_SREM,
})
#: 64-bit ops written as one Python operator over their two registers,
#: then wrapped: an ``int`` only when both operands are.
_BIN64 = frozenset({
    decode.OP_ADD64, decode.OP_SUB64, decode.OP_MUL64,
    decode.OP_AND64, decode.OP_OR64, decode.OP_XOR64,
})
#: Bitwise ops closed in the signed 64-bit range.
_CLOSED = frozenset({decode.OP_AND64, decode.OP_OR64, decode.OP_XOR64})


class ValueFacts(NamedTuple):
    """The facts of one decoded function."""

    #: Slot -> :data:`UNKNOWN`, :data:`INT` or :data:`INT64`.
    kinds: List[int]
    #: Ops (by identity) whose result is in range before it is wrapped.
    unwrapped: FrozenSet[int]


def _constant_kind(value: object) -> int:
    if type(value) is not int:
        return UNKNOWN
    return INT64 if _MIN64 <= value <= _MAX64 else INT


def _result_kind(op: tuple, kinds: List[int]) -> int:
    """The kind of what ``op`` writes to its slot, given its operands'."""
    tag = op[0]
    if tag in _ALWAYS_INT64:
        return INT64
    if tag in _BIN64:
        return INT64 if kinds[op[2]] and kinds[op[3]] else UNKNOWN
    if tag == decode.OP_LOAD:
        codec = op[3]
        # An integer codec loads in range; a pointer unsigned; f64 a float.
        return INT64 if codec[3] else UNKNOWN if codec[4] is float else INT
    if tag == decode.OP_GEP:
        return INT if kinds[op[2]] and kinds[op[3]] else UNKNOWN
    if tag in (decode.OP_INTTOPTR, decode.OP_ALLOCA):
        return INT
    if tag == decode.OP_SELECT:
        return min(kinds[op[3]], kinds[op[4]])
    return UNKNOWN  # a call, sitofp or a float op


def _definitions(df: DecodedFunction):
    """``(ops, copies)``: the ops that write a slot, and every phi copy
    as a ``(destination, source)`` pair."""
    ops: List[tuple] = []
    copies: List[tuple] = []
    for block in df.blocks:
        for op in block:
            tag = op[0]
            if tag == decode.OP_BR:
                copies.extend(zip(op[2], op[3]))
            elif tag == decode.OP_CONDBR:
                copies.extend(zip(op[3], op[4]))
                copies.extend(zip(op[6], op[7]))
            elif tag not in (decode.OP_STORE, decode.OP_RET, decode.OP_RAISE) \
                    and op[1] is not None:
                ops.append(op)
    return ops, copies


def _kinds(df: DecodedFunction, ops: List[tuple], copies: List[tuple],
           defined: set) -> List[int]:
    kinds = [
        INT64 if slot in defined
        else UNKNOWN if slot < df.nargs
        else _constant_kind(value)
        for slot, value in enumerate(df.template)
    ]
    # From the top down: every definition lowers its slot to what it
    # writes, until none does.
    changed = True
    while changed:
        changed = False
        for op in ops:
            kind = _result_kind(op, kinds)
            if kind < kinds[op[1]]:
                kinds[op[1]] = kind
                changed = True
        for dst, src in copies:
            if kinds[src] < kinds[dst]:
                kinds[dst] = kinds[src]
                changed = True
    return kinds


def _below(df: DecodedFunction, kinds: List[int]) -> Dict[int, set]:
    """Block index -> the slots ``x`` below some :data:`INT64` ``b`` in
    all of that block."""
    blocks = df.func.blocks
    #: True target -> the ``x`` its edge bounds.
    edges: Dict[BasicBlock, List[int]] = {}
    for ops in df.blocks[:len(blocks)]:
        term = ops[-1]
        if term[0] != decode.OP_CONDBR:
            continue
        t = term[2]
        if t == 0 or t >= len(blocks) or t == term[5]:
            continue
        for op in ops:
            if (op[0] == decode.OP_ICMP_SLT and op[1] == term[1]
                    and kinds[op[2]] == INT64 == kinds[op[3]]):
                edges.setdefault(blocks[t], []).append(op[2])
    if not edges:
        return {}
    cfg = CFG(df.func)
    edges = {t: xs for t, xs in edges.items() if len(cfg.preds(t)) == 1}
    dom = DominatorTree(cfg)
    return {
        bi: {x for t in dom.dominator_chain(block) for x in edges.get(t, ())}
        for bi, block in enumerate(blocks)
    }


def value_facts(df: DecodedFunction) -> ValueFacts:
    """The kinds of ``df``'s slots and the ops whose wrap cannot fire."""
    ops, copies = _definitions(df)
    defined = {op[1] for op in ops} | {d for d, _s in copies}
    kinds = _kinds(df, ops, copies, defined)
    below = _below(df, kinds)
    unwrapped = set()
    for bi, block in enumerate(df.blocks):
        bounded = below.get(bi, ())
        for op in block:
            tag = op[0]
            if tag in _CLOSED or (tag == decode.OP_SREM and op[4] == 64):
                if kinds[op[2]] == INT64 == kinds[op[3]]:
                    unwrapped.add(id(op))
            elif tag == decode.OP_ADD64 and bounded:
                for x, c in ((op[2], op[3]), (op[3], op[2])):
                    # ``c`` is a constant (an undef is 0) of 0 or 1.
                    if (x in bounded and c >= df.nargs and c not in defined
                            and kinds[c] == INT64 and df.template[c] in (0, 1)):
                        unwrapped.add(id(op))
    return ValueFacts(kinds, frozenset(unwrapped))
