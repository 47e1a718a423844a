"""Code generation: every decoded IR function becomes one Python function.

:func:`generate` runs inside :func:`repro.sim.decode.decode_module` and
turns each :class:`~repro.sim.decode.DecodedFunction` into
``DecodedFunction.code``, a function ``code(interp, *args)`` that runs
one IR activation and returns its value — the SSA → code step of a
classic compiler pipeline, aimed at Python source:

* **Registers are locals.**  Slot ``n`` is the local ``r<n>``.  The
  arguments are the function's parameters; constants, undefs and every
  other slot are unpacked from the register template on entry, so every
  local is bound from the start.
* **Blocks are straight-line code.**  A block's ops become one statement
  (or a few) each, with operands, widths and masks written in as
  literals.  A branch ends in its edge's phi copies, one tuple
  assignment, and the index of the next block; a binary decision tree
  on that index picks the block, after the block hook.
* **Calls are specialized by their callee's static class.**  A call to a
  function the module defines calls that function's generated code
  directly (one Python frame per IR call); its arity is checked here.
  A ``global_addr.*`` constant or an external callee resolves through
  the interpreter's callee cache on first use, so the code binds no
  runtime and is shared by every interpreter.
* **TrackFM guard and deref hits are inline.**  A call to an external
  ``tfm_guard_read``/``tfm_guard_write``/``tfm_chunk_deref``/
  ``tfm_chunk_deref_write`` runs the entry's hit path in place, as
  TrackFM's compiler emits the guard's fast path (Fig. 4b) and the
  chunk boundary check (Fig. 5): the custody check, the state-table
  word test (a deref: its stream's pinned object), the state-table
  cache hit, the residency hit, the guard count, the charge and the
  canonical twin.  It reads the
  :class:`~repro.trackfm.runtime.InlineState` bound on the interpreter
  for the run (``interp.inline_state``).  A cache or residency miss
  calls that object's own ``access``; a slow path, an object crossing,
  a custody miss or an unbound state calls the entry.
* **Inline hits post their counts at the next call.**  A hit adds one
  to a frame local: ``nf`` (a FAST guard), ``nb`` (a BOUNDARY deref) or
  ``nh`` (a state-table cache hit); ``cycles`` is still added per hit,
  since the order of float additions is part of every exact baseline.
  Before every call, return and block hook, and in the exception
  handler for an op's line, one line hands the counts to ``POST``,
  which adds them to ``metrics.guards``, ``metrics.accesses`` and the
  cache's ``hits``, so whatever can observe them sees the legacy
  engine's values.  A segment that crosses ``max_steps`` posts them
  before its checked build runs, which books its own hits directly.
* **Each load or store site keeps a span.**  Site ``k`` holds in frame
  locals the ``(start, last, data)`` of the region its access used last:
  ``ms<k>``, ``ml<k>`` (the last address an access of its size fits at)
  and ``md<k>``.  An access with ``ms<k> <= addr <= ml<k>`` unpacks or
  packs on ``md<k>`` in place; any other one asks
  :meth:`~repro.sim.memory.AddressSpace.span` (which raises the
  :class:`~repro.errors.SegmentationFault`) and keeps what it returns.
  A store converts its value first, as ``AddressSpace.store`` does.
  Every span is dropped (its limit set to ``-inf``) after each call
  and block hook: only they can unmap a region (a callee's allocas,
  ``free``, ``realloc``, ``tfm_free``), and a freed TrackFM offset can
  be mapped again, with new bytes, at the same twin address.  The
  inline hits' own ``access`` calls and a global's address keep them.
* **Steps are counted per segment.**  A block splits into straight-line
  segments, each ending after a call to an internal function (the
  callee's steps land mid-block).  A segment adds its op count, plus
  the block's phi count if it opens the block, and tests ``max_steps``
  once.  ``interp.steps`` is written back before every call and every
  raise.  A segment that would cross ``max_steps`` runs a *checked
  build* of its ops instead, which tests the limit before each op, so
  a run stops at exactly the op where the legacy engine stops.  It is
  generated on first need; it always raises, because the op that
  crosses the limit is in the segment.
* **Faults leave exact steps.**  One ``except`` around the frame maps
  the line an exception left the frame from to that op's step offset
  in its segment, so a load or store that faults (or a hook or a cast
  that raises) leaves ``interp.steps`` where the legacy engine leaves
  it, at no cost on the path that does not raise.
* **Division takes the floor when both signs are known.**  ``sdiv`` and
  ``srem`` with a non-negative dividend and a positive divisor are
  Python's ``//`` and ``%``; every other sign pair, a zero divisor and
  ``INT64_MIN / -1`` truncate through ``abs`` as the legacy engine does.
* **Value facts drop what cannot change a result.**
  :func:`repro.sim.facts.value_facts` works out, once per function,
  which registers always hold an ``int`` and which an ``int`` in the
  signed 64-bit range.  An ``int()`` around a register that is always
  an ``int`` is left out (a store's value, the operands of a division,
  a shift, a cast or a width-generic op), and so is the wrap test
  after an ``and``/``or``/``xor``, or a 64-bit ``srem``, of in-range
  operands, and after ``x + c`` (``c`` a constant 0 or 1) where only
  the true edge of ``x < b``, with ``b`` in range, leads in.

No IR text reaches the source: it holds only identifiers and integers
the generator computes (slots, block indices, sizes, widths and masks).
Codec functions, operators, constants, messages, block names and the ``Function``
reach the code through its namespace.  Each source is registered with
:mod:`linecache` under a file name that names the IR function, such as
``<decoded @main #3>``, so tracebacks and profiles show the generated
line.
"""

from __future__ import annotations

import itertools
import linecache
import operator
import weakref
from typing import Callable, Dict, List, Optional

from repro.aifm.objectmeta import UNSAFE_MASK
from repro.errors import InterpError
from repro.machine.cache import CacheStats
from repro.machine.costs import GuardKind
from repro.sim import decode
from repro.sim.decode import DecodedFunction, DecodedModule
from repro.sim.facts import ValueFacts, value_facts
from repro.sim.metrics import Metrics
from repro.trackfm.pointer import MAX_HEAP_OFFSET, TFM_TAG_MASK
from repro.trackfm.runtime import TWIN_BASE, InlineState
from repro.trackfm.state_table import ENTRY_BYTES

_M64 = (1 << 64) - 1
# Enum members bound once: a class lookup is slow (docs/performance.md).
_FAST = GuardKind.FAST
_BOUNDARY = GuardKind.BOUNDARY

#: Tells generated files apart in :mod:`linecache` (several modules may
#: each define a ``@main``).
_serial = itertools.count()

#: Source templates of the ops that are one expression over two
#: registers, ``{a}`` and ``{b}``; the 64-bit ones are then wrapped.
_BIN64_EXPR = {
    decode.OP_ADD64: "{a} + {b}",
    decode.OP_SUB64: "{a} - {b}",
    decode.OP_MUL64: "{a} * {b}",
    decode.OP_AND64: "{a} & {b}",
    decode.OP_OR64: "{a} | {b}",
    decode.OP_XOR64: "{a} ^ {b}",
}
_PLAIN_EXPR = {
    decode.OP_FADD: "float({a}) + float({b})",
    decode.OP_FSUB: "float({a}) - float({b})",
    decode.OP_FMUL: "float({a}) * float({b})",
}
#: Signed integer compares: the test, which sets the register to 1 or 0.
_ICMP_TEST = {
    decode.OP_ICMP_EQ: "{a} == {b}",
    decode.OP_ICMP_NE: "{a} != {b}",
    decode.OP_ICMP_SLT: "{a} < {b}",
    decode.OP_ICMP_SLE: "{a} <= {b}",
    decode.OP_ICMP_SGT: "{a} > {b}",
    decode.OP_ICMP_SGE: "{a} >= {b}",
}
#: Ops of one register, ``(template, wrap width or None)``: ``{a}`` is
#: the register, ``{i}`` the register as an ``int``.
_UNARY_EXPR = {
    decode.OP_PTRTOINT: ("{i}", 64),
    decode.OP_INTTOPTR: ("{i} & " + str(_M64), None),
    decode.OP_SITOFP: ("float({i})", None),
    decode.OP_FPTOSI: ("int(float({a}))", 64),
}


#: External callees whose hit path is emitted inline: name -> (deref, write).
_INLINE_SITES = {
    "tfm_guard_read": (False, False),
    "tfm_guard_write": (False, True),
    "tfm_chunk_deref": (True, False),
    "tfm_chunk_deref_write": (True, True),
}


#: A dropped span's limit, ``-inf``: no address fits under it, so the
#: site's next access looks its region up.
_NO_SPAN = "-1e999"


def _exceeded(max_steps: int) -> InterpError:
    return InterpError(f"exceeded max_steps={max_steps}")


def _post(metrics: Metrics, cache_stats: CacheStats, fast: int, hits: int,
          boundary: int) -> int:
    """Add a frame's counted inline hits to the run's metrics and cache
    stats; returns the counts' new value, 0.  A kind never counted gains
    no zero entry in ``metrics.guards``."""
    guards = metrics.guards
    if fast:
        guards[_FAST] = guards.get(_FAST, 0) + fast
    if boundary:
        guards[_BOUNDARY] = guards.get(_BOUNDARY, 0) + boundary
    metrics.accesses += fast + boundary
    cache_stats.hits += hits
    return 0


def _fdiv_by_zero(fa: float) -> float:
    return float("inf") if fa > 0 else float("-inf") if fa < 0 else float("nan")


def _lit(n: int) -> str:
    """An IR immediate (a size, width or mask) as a literal: integers only."""
    return str(operator.index(n))


class _Source:
    """Lines of one generated function and the namespace they refer to.

    A checked build shares its function's namespace and ``bound`` map,
    so a name means the same object in both.
    """

    def __init__(self, ns: Dict[str, object], bound: Dict[int, str]) -> None:
        self.lines: List[str] = []
        self.ns = ns
        #: Line number -> step offset of the op on that line: how many
        #: steps the segment counted past it.
        self.faults: Dict[int, int] = {}
        self.bound = bound

    def emit(self, depth: int, text: str, offset: Optional[int] = None) -> None:
        self.lines.append("    " * depth + text)
        if offset is not None:
            self.faults[len(self.lines)] = offset

    def bind(self, prefix: str, obj: object) -> str:
        """The namespace name of ``obj``, binding it on first use."""
        name = self.bound.get(id(obj))
        if name is None:
            name = self.bound[id(obj)] = f"{prefix}{len(self.bound)}"
            self.ns[name] = obj
        return name

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Emitter:
    """Writes the ops of one decoded function as Python statements.

    ``ops`` are the ops it will write: the function's, or one segment's
    for a ``checked`` build, which books its inline hits directly.
    """

    def __init__(self, dmod: DecodedModule, df: DecodedFunction, src: _Source,
                 ops: List[tuple], facts: ValueFacts, checked: bool = False) -> None:
        self.dmod = dmod
        self.df = df
        self.src = src
        self.facts = facts
        self.checked = checked
        #: Callee ids of the internal functions this code calls.
        self.internal: List[int] = []
        #: Memory op (by identity) -> its site number ``k``, whose span
        #: is the locals ``ms<k>`` (start), ``ml<k>`` (the last address
        #: its access fits at) and ``md<k>`` (the region's bytes).
        self.sites: Dict[int, int] = {}
        for op in ops:
            if op[0] in (decode.OP_LOAD, decode.OP_STORE):
                self.sites.setdefault(id(op), len(self.sites))
        inline = {self.inline_site(op) for op in ops} - {None}
        #: Whether the frame counts FAST (``nf``, with the state-table
        #: cache's hits in ``nh``) and BOUNDARY (``nb``) inline hits.
        self.fast = not checked and any(not deref for deref, _write in inline)
        self.boundary = not checked and any(deref for deref, _write in inline)

    def wrap(self, depth: int, dst: str, expr: str, bits: int, offset: int) -> None:
        """``dst = expr`` wrapped to two's complement at ``bits``."""
        emit = self.src.emit
        bits = operator.index(bits)
        if bits == 1:
            emit(depth, f"{dst} = ({expr}) & 1", offset)
            return
        half = 1 << (bits - 1)
        if expr != dst:
            emit(depth, f"{dst} = {expr}", offset)
        emit(depth, f"if not {-half} <= {dst} <= {half - 1}:", offset)
        emit(depth + 1, f"{dst} = (({dst} + {half}) & {(1 << bits) - 1}) - {half}", offset)

    def int_(self, slot: int) -> str:
        """Register ``slot`` as an ``int``: itself when it always is one."""
        return f"r{slot}" if self.facts.kinds[slot] else f"int(r{slot})"

    def wrap_op(self, depth: int, op: tuple, expr: str, offset: int) -> None:
        """``r<dst> = expr`` for a 64-bit ``op``, wrapped unless the facts
        show its result is in range."""
        if id(op) in self.facts.unwrapped:
            self.src.emit(depth, f"r{op[1]} = {expr}", offset)
        else:
            self.wrap(depth, f"r{op[1]}", expr, 64, offset)

    def raise_(self, depth: int, message: str, offset: int) -> None:
        self.writeback(depth, offset)
        self.src.emit(depth, f"raise InterpError({self.src.bind('M', message)})", offset)

    def writeback(self, depth: int, offset: int) -> None:
        self.src.emit(depth, "interp.steps = steps" + (f" - {offset}" if offset else ""))

    def flush(self, depth: int) -> None:
        """Post the frame's inline-hit counts to the run's metrics."""
        counts = [n if on else "0" for n, on in (
            ("nf", self.fast), ("nh", self.fast), ("nb", self.boundary))]
        held = [n for n in counts if n != "0"]
        if held:
            self.src.emit(depth, f"if {' or '.join(held)}: {' = '.join(held)} = "
                                 f"POST(t_metrics, t_cache_stats, {', '.join(counts)})")

    def before_call(self, depth: int, offset: int) -> None:
        """Post the counts and write ``steps`` back, for the callee (or
        the caller, at a return) to read."""
        self.flush(depth)
        self.writeback(depth, offset)

    def drop(self, depth: int) -> None:
        """Drop every span: a call or a hook may have unmapped its region."""
        if self.sites:
            limits = " = ".join(f"ml{k}" for k in self.sites.values())
            self.src.emit(depth, f"{limits} = {_NO_SPAN}")

    def span(self, depth: int, op: tuple, ptr: str, size: int, offset: int) -> tuple:
        """Make ``op``'s site span hold ``size`` bytes at ``ptr``; returns
        the names of its start and its bytes."""
        emit = self.src.emit
        k = self.sites[id(op)]
        size = _lit(size)
        emit(depth, f"if not ms{k} <= {ptr} <= ml{k}:", offset)
        emit(depth + 1, f"ms{k}, ml{k}, md{k} = span({ptr}, {size})", offset)
        emit(depth + 1, f"ml{k} -= {size}", offset)
        return f"ms{k}", f"md{k}"

    def copies(self, depth: int, dests, srcs, offset: int) -> None:
        if dests:
            lhs = ", ".join(f"r{d}" for d in dests)
            rhs = ", ".join(f"r{s}" for s in srcs)
            self.src.emit(depth, f"{lhs} = {rhs}", offset)

    def is_internal_call(self, op: tuple) -> bool:
        return (op[0] == decode.OP_CALL
                and self.dmod.callee_static[op[2]][0] == decode.CALLEE_INTERNAL)

    def inline_site(self, op: tuple) -> Optional[tuple]:
        """``(deref, write)`` when ``op`` is a call whose hit is emitted inline."""
        if op[0] != decode.OP_CALL or op[1] is None:
            return None
        kind, name = self.dmod.callee_static[op[2]]
        site = _INLINE_SITES.get(name) if kind == decode.CALLEE_EXTERNAL else None
        if site is None or len(op[3]) != (2 if site[0] else 1):
            return None
        return site

    def op(self, depth: int, op: tuple, offset: int) -> None:
        """Emit ``op``; ``offset`` is ``steps`` minus the legacy count at it."""
        emit = self.src.emit
        tag = op[0]
        if tag in _BIN64_EXPR:
            self.wrap_op(depth, op, _BIN64_EXPR[tag].format(a=f"r{op[2]}", b=f"r{op[3]}"),
                         offset)
        elif tag in _PLAIN_EXPR:
            expr = _PLAIN_EXPR[tag].format(a=f"r{op[2]}", b=f"r{op[3]}")
            emit(depth, f"r{op[1]} = {expr}", offset)
        elif tag in _ICMP_TEST:
            emit(depth, f"r{op[1]} = 1 if {self.test(op)} else 0", offset)
        elif tag in _UNARY_EXPR:
            template, bits = _UNARY_EXPR[tag]
            expr = template.format(a=f"r{op[2]}", i=self.int_(op[2]))
            if bits is None:
                emit(depth, f"r{op[1]} = {expr}", offset)
            else:
                self.wrap(depth, f"r{op[1]}", expr, bits, offset)
        elif tag == decode.OP_GEP:
            scaled = f"r{op[3]}" if op[4] == 1 else f"r{op[3]} * {_lit(op[4])}"
            emit(depth, f"r{op[1]} = (r{op[2]} + {scaled}) & {_M64}", offset)
        elif tag == decode.OP_LOAD:
            codec = op[3]
            start, data = self.span(depth, op, f"r{op[2]}", codec[0], offset)
            unpack = self.src.bind("U", codec[1])
            emit(depth, f"r{op[1]} = {unpack}({data}, r{op[2]} - {start})[0]", offset)
        elif tag == decode.OP_STORE:
            codec = op[2]
            # The value is converted before the address is checked.
            if codec[3]:
                emit(depth, f"v = {self.int_(op[1])} & {_lit(codec[3])}", offset)
            elif codec[4] is float:
                emit(depth, f"v = float(r{op[1]})", offset)
            else:
                emit(depth, f"v = {self.src.bind('V', codec[4])}(r{op[1]})", offset)
            start, data = self.span(depth, op, f"r{op[3]}", codec[0], offset)
            pack = self.src.bind("P", codec[2])
            emit(depth, f"{pack}({data}, r{op[3]} - {start}, v)", offset)
        elif tag == decode.OP_BR:
            self.copies(depth, op[2], op[3], offset)
            emit(depth, f"b = {op[1]}", offset)
        elif tag == decode.OP_CONDBR:
            self.condbr(depth, op, offset)
        elif tag == decode.OP_RET:
            self.before_call(depth, offset)
            emit(depth, "return None" if op[1] is None else f"return r{op[1]}")
        elif tag == decode.OP_CALL:
            self.call(depth, op, offset)
        elif tag in (decode.OP_SDIV, decode.OP_SREM):
            self.division(depth, op, offset)
        elif tag in (decode.OP_SHL, decode.OP_LSHR, decode.OP_ASHR):
            bits = operator.index(op[4])
            a, amount = self.int_(op[2]), f"({self.int_(op[3])} % {bits})"
            if tag == decode.OP_LSHR:
                a = f"({a} & {(1 << bits) - 1})"
            shift = "<<" if tag == decode.OP_SHL else ">>"
            self.wrap(depth, f"r{op[1]}", f"{a} {shift} {amount}", bits, offset)
        elif tag == decode.OP_BINW:
            fn = self.src.bind("O", op[5])
            self.wrap(depth, f"r{op[1]}", f"{fn}({self.int_(op[2])}, {self.int_(op[3])})",
                      op[4], offset)
        elif tag == decode.OP_ICMP_U:
            fn = self.src.bind("O", op[4])
            emit(depth, f"r{op[1]} = 1 if {fn}({self.int_(op[2])} & {_M64}, "
                        f"{self.int_(op[3])} & {_M64}) else 0", offset)
        elif tag == decode.OP_FCMP:
            fn = self.src.bind("O", op[4])
            emit(depth, f"r{op[1]} = 1 if {fn}(float(r{op[2]}), float(r{op[3]})) else 0",
                 offset)
        elif tag == decode.OP_FDIV:
            emit(depth, f"fa = float(r{op[2]})", offset)
            emit(depth, f"fb = float(r{op[3]})", offset)
            emit(depth, f"r{op[1]} = fa / fb if fb != 0.0 else FDIV0(fa)", offset)
        elif tag == decode.OP_SELECT:
            emit(depth, f"r{op[1]} = r{op[3]} if r{op[2]} else r{op[4]}", offset)
        elif tag == decode.OP_ALLOCA:
            emit(depth, f"r{op[1]} = alloca({_lit(op[2])}, allocas)", offset)
        elif tag == decode.OP_WRAP:
            self.wrap(depth, f"r{op[1]}", self.int_(op[2]), op[3], offset)
        elif tag == decode.OP_ZEXT:
            self.wrap(depth, f"r{op[1]}", f"{self.int_(op[2])} & {_lit(op[3])}", op[4], offset)
        elif tag == decode.OP_RAISE:
            self.raise_(depth, op[1], offset)
        else:  # pragma: no cover - the decoder emits only known tags
            raise InterpError(f"bad decoded op tag {tag}")

    def test(self, icmp: tuple) -> str:
        return _ICMP_TEST[icmp[0]].format(a=f"r{icmp[2]}", b=f"r{icmp[3]}")

    def condbr(self, depth: int, op: tuple, offset: int, icmp: Optional[tuple] = None,
               icmp_offset: int = 0) -> None:
        """A conditional branch; with ``icmp``, the compare that defines
        its condition, fused into it: the compare is the ``if`` test."""
        emit = self.src.emit
        if icmp is None:
            emit(depth, f"if r{op[1]}:", offset)
        else:
            emit(depth, f"if {self.test(icmp)}:", icmp_offset)
            emit(depth + 1, f"r{icmp[1]} = 1", offset)
        self.copies(depth + 1, op[3], op[4], offset)
        emit(depth + 1, f"b = {op[2]}", offset)
        emit(depth, "else:", offset)
        if icmp is not None:
            emit(depth + 1, f"r{icmp[1]} = 0", offset)
        self.copies(depth + 1, op[6], op[7], offset)
        emit(depth + 1, f"b = {op[5]}", offset)

    def division(self, depth: int, op: tuple, offset: int) -> None:
        emit = self.src.emit
        sdiv = op[0] == decode.OP_SDIV
        dst = f"r{op[1]}"
        # An operand not known to be an int is converted once, to a local.
        names = []
        for local, slot in (("ia", op[2]), ("ib", op[3])):
            if self.facts.kinds[slot]:
                names.append(f"r{slot}")
            else:
                emit(depth, f"{local} = int(r{slot})", offset)
                names.append(local)
        ia, ib = names
        # Both signs known: floor division is the truncating one.
        emit(depth, f"if {ia} >= 0 < {ib}:", offset)
        emit(depth + 1, f"{dst} = {ia} // {ib}" if sdiv else f"{dst} = {ia} % {ib}", offset)
        emit(depth, "else:", offset)
        emit(depth + 1, f"if {ib} == 0:", offset)
        self.raise_(depth + 2, "sdiv by zero" if sdiv else "srem by zero", offset)
        emit(depth + 1, f"q = abs({ia}) // abs({ib})", offset)
        if sdiv:
            emit(depth + 1, f"{dst} = -q if ({ia} < 0) != ({ib} < 0) else q", offset)
        else:
            emit(depth + 1, f"if ({ia} < 0) != ({ib} < 0):", offset)
            emit(depth + 2, "q = -q", offset)
            emit(depth + 1, f"{dst} = {ia} - q * {ib}", offset)
        if id(op) not in self.facts.unwrapped:
            self.wrap(depth, dst, dst, op[4], offset)

    def call(self, depth: int, op: tuple, offset: int) -> None:
        emit = self.src.emit
        _tag, dest, cid, args = op
        kind, name = self.dmod.callee_static[cid]
        lhs = "" if dest is None else f"r{dest} = "
        if kind == decode.CALLEE_GLOBAL:
            emit(depth, f"{lhs}callees[{cid}] or resolve({cid})", offset)
            return
        argv = ", ".join(f"r{s}" for s in args)
        if kind != decode.CALLEE_INTERNAL:
            site = self.inline_site(op)
            if site is not None:
                self.inline_hit(depth, op, *site, offset)
                emit(depth, "else:", offset)
                depth += 1
            self.before_call(depth, offset)
            emit(depth, f"{lhs}(callees[{cid}] or resolve({cid}))({argv})")
            self.drop(depth)
            return
        callee = self.dmod.functions[name]
        if len(args) != callee.nargs:
            self.raise_(
                depth, f"@{name} expects {callee.nargs} args, got {len(args)}", offset
            )
            return
        if cid not in self.internal:
            self.internal.append(cid)
        self.before_call(depth, offset)
        emit(depth, f"{lhs}f{cid}(interp{', ' if argv else ''}{argv})")
        emit(depth, "steps = interp.steps")
        self.drop(depth)

    def inline_hit(self, depth: int, op: tuple, deref: bool, write: bool,
                   offset: int) -> None:
        """The ``if`` that books a guard's or a deref's hit in place;
        the caller emits the entry call as its ``else``.

        Each step books what the entry books on a hit, in its order
        (``GuardEngine.guard``'s fast path, or ``chunk_access`` on the
        stream's pinned object), from the ``t_*`` locals of the bound
        :class:`InlineState`.
        """
        emit = self.src.emit
        _tag, dest, _cid, args = op
        ptr = f"r{args[0]}"
        heap = f"({ptr} & {MAX_HEAP_OFFSET})"
        custody = f"tfm is not None and {ptr} & {TFM_TAG_MASK}"
        inner = depth + 1
        if deref:
            # Fig. 5's boundary check: still on the object the stream pinned.
            emit(depth, f"if {custody} and (st := t_chunks.get(r{args[1]})) is not None "
                        f"and (o := {heap} >> t_object_shift) == st.current_obj:", offset)
            kind = GuardKind.BOUNDARY
        else:
            # Fig. 4b: a state-table word with the unsafe mask clear.
            emit(depth, f"if {custody} and (o := {heap} >> t_object_shift) < t_num_objects "
                        f"and not t_words[o] & {UNSAFE_MASK}:", offset)
            fast = "t_fast_write" if write else "t_fast_read"
            # CacheModel.access's hit: the line moves to its set's end.
            emit(inner, f"a = t_table_base + o * {ENTRY_BYTES}", offset)
            emit(inner, "line = a // t_line_size", offset)
            emit(inner, "tag = line // t_num_sets", offset)
            emit(inner, "e = t_sets.get(line % t_num_sets)", offset)
            emit(inner, "if e is not None and tag in e:", offset)
            emit(inner + 1, "e.move_to_end(tag)", offset)
            emit(inner + 1, "t_cache_stats.hits += 1" if self.checked else "nh += 1", offset)
            emit(inner + 1, f"c = {fast}[1]", offset)
            emit(inner, "else:", offset)
            emit(inner + 1, f"c = {fast}[t_cache_access(a)]", offset)
            kind = GuardKind.FAST
        # ResidencySet.access's hit: a CLOCK hot bit or an LRU move.
        emit(inner, "if o in t_resident:", offset)
        emit(inner + 1, "if t_use_clock:", offset)
        emit(inner + 2, "t_resident[o] = True", offset)
        emit(inner + 1, "else:", offset)
        emit(inner + 2, "t_resident.move_to_end(o)", offset)
        if write:
            emit(inner + 1, "t_dirty.add(o)", offset)
        emit(inner, "else:", offset)
        emit(inner + 1, f"t_residency_access(o, {write})", offset)
        if self.checked:
            name = self.src.bind("K", kind)
            emit(inner, f"t_guards[{name}] = t_guards.get({name}, 0) + 1", offset)
            emit(inner, "t_metrics.accesses += 1", offset)
        else:
            emit(inner, "nb += 1" if deref else "nf += 1", offset)
        emit(inner, f"t_metrics.cycles += {'t_chunk_hit' if deref else 'c'}", offset)
        emit(inner, f"r{dest} = {TWIN_BASE} + {heap}", offset)

    def segments(self, bi: int) -> List[List[tuple]]:
        """Block ``bi``'s ops, split after every internal call."""
        out: List[List[tuple]] = [[]]
        for op in self.df.blocks[bi]:
            out[-1].append(op)
            if self.is_internal_call(op):
                out.append([])
        return [seg for seg in out if seg]


def _counted(op: tuple) -> int:
    """Steps ``op`` counts: one, except a synthetic raise's none."""
    return op[2] if op[0] == decode.OP_RAISE else 1


def _emit_segment_ops(em: _Emitter, depth: int, ops: List[tuple], steps: int) -> None:
    """The unchecked ops of a segment counting ``steps`` steps in all.

    A signed compare right before the branch on its result is fused
    into the branch.
    """
    done = i = 0
    while i < len(ops):
        op = ops[i]
        done += _counted(op)
        nxt = ops[i + 1] if i + 1 < len(ops) else None
        if (op[0] in _ICMP_TEST and nxt is not None and nxt[0] == decode.OP_CONDBR
                and nxt[1] == op[1]):
            done += 1
            em.condbr(depth, nxt, steps - done, op, steps - done + 1)
            i += 2
        else:
            em.op(depth, op, steps - done)
            i += 1


def _prologue(src: _Source, em: _Emitter, depth: int, full: bool) -> None:
    """Bind the interpreter state the ops use (all of it when ``full``),
    with every span dropped and no hit counted."""
    tags = {op[0] for block in em.df.blocks for op in block}
    calls = [op for block in em.df.blocks for op in block if op[0] == decode.OP_CALL]
    uses_cache = any(em.dmod.callee_static[op[2]][0] != decode.CALLEE_INTERNAL for op in calls)
    if full or tags & {decode.OP_LOAD, decode.OP_STORE, decode.OP_ALLOCA}:
        src.emit(depth, "memory = interp.memory")
    if full or tags & {decode.OP_LOAD, decode.OP_STORE}:
        src.emit(depth, "span = memory.span")
    if full or uses_cache:
        src.emit(depth, "callees = interp._callee_cache")
        src.emit(depth, "resolve = interp._resolve_callee")
    if full or decode.OP_ALLOCA in tags:
        src.emit(depth, "alloca = interp._alloca")
    if full or any(em.inline_site(op) for op in calls):
        src.emit(depth, "tfm = interp.inline_state")
        src.emit(depth, "if tfm is not None:")
        src.emit(depth + 1, ", ".join(f"t_{f}" for f in InlineState._fields) + " = tfm")
    if em.sites:
        names = " = ".join(f"ms{k} = ml{k}" for k in em.sites.values())
        src.emit(depth, f"{names} = {_NO_SPAN}")
    counts = ["nf", "nh"] * em.fast + ["nb"] * em.boundary
    if counts:
        src.emit(depth, " = ".join(counts) + " = 0")


def _register(source: str, filename: str, fn: Callable) -> None:
    """Make ``source`` the lines tracebacks show for ``filename`` while
    ``fn`` lives."""
    lines = source.splitlines(True)
    linecache.cache[filename] = (len(source), None, lines, filename)
    weakref.finalize(fn, linecache.cache.pop, filename, None)


def _compile(source: str, filename: str, ns: Dict[str, object]) -> Callable:
    scope: Dict[str, object] = {}
    exec(compile(source, filename, "exec"), ns, scope)
    fn = scope["decoded"]
    _register(source, filename, fn)
    return fn


class _Crossing:
    """Runs the checked build of a segment that crosses ``max_steps``."""

    def __init__(self, dmod: DecodedModule, df: DecodedFunction, src: _Source,
                 facts: ValueFacts, segments) -> None:
        self.dmod = dmod
        self.df = df
        self.src = src
        self.facts = facts
        #: Segment id -> (phi steps, ops).
        self.segments = segments
        self.built: Dict[int, Callable] = {}

    def __call__(self, interp, seg: int, steps: int, frame: Dict[str, object]) -> None:
        fn = self.built.get(seg)
        if fn is None:
            fn = self.built[seg] = self._build(seg)
        counts = [frame.get(n, 0) for n in ("nf", "nh", "nb")]
        if any(counts):
            # The frame's hits, posted before anything the segment calls.
            _post(interp.inline_state.metrics, interp.inline_state.cache_stats, *counts)
        regs = tuple(frame[f"r{i}"] for i in range(len(self.df.template)))
        fn(interp, steps, frame.get("allocas"), regs)
        raise AssertionError("a segment that crosses max_steps ran to its end")

    def _build(self, seg: int) -> Callable:
        phis, ops = self.segments[seg]
        src = _Source(self.src.ns, self.src.bound)
        em = _Emitter(self.dmod, self.df, src, ops, self.facts, checked=True)
        src.emit(0, "def decoded(interp, steps, allocas, regs):")
        src.emit(1, ", ".join(f"r{i}" for i in range(len(self.df.template))) + ", = regs")
        src.emit(1, "max_steps = interp.max_steps")
        _prologue(src, em, 1, full=True)
        if phis:
            src.emit(1, f"steps += {phis}")
        for op in ops:
            if _counted(op):
                src.emit(1, "steps += 1")
                src.emit(1, "interp.steps = steps")
                src.emit(1, "if steps > max_steps:")
                src.emit(2, "raise EXCEEDED(max_steps)")
            em.op(1, op, 0)
        filename = f"<decoded @{self.df.name} #{next(_serial)} checked {seg}>"
        return _compile(src.text(), filename, src.ns)


def _generate_function(dmod: DecodedModule, df: DecodedFunction) -> _Emitter:
    ns: Dict[str, object] = {
        "InterpError": InterpError,
        "EXCEEDED": _exceeded,
        "FDIV0": _fdiv_by_zero,
        "POST": _post,
        "F": df.func,
        "NAMES": tuple(df.names),
        "T": tuple(df.template[df.nargs:]),
    }
    src = _Source(ns, {})
    facts = value_facts(df)
    em = _Emitter(dmod, df, src, [op for block in df.blocks for op in block], facts)
    segments: List[tuple] = []

    params = "".join(f", r{i}" for i in range(df.nargs))
    src.emit(0, f"def decoded(interp{params}):")
    src.emit(1, "steps = interp.steps")
    src.emit(1, "max_steps = interp.max_steps")
    src.emit(1, "hook = interp.block_hook")
    _prologue(src, em, 1, full=False)
    has_allocas = any(op[0] == decode.OP_ALLOCA for block in df.blocks for op in block)
    if has_allocas:
        src.emit(1, "allocas = []")
    if len(df.template) > df.nargs:
        regs = ", ".join(f"r{i}" for i in range(df.nargs, len(df.template)))
        src.emit(1, f"{regs}, = T")
    src.emit(1, f"b = {df.start}")
    src.emit(1, "try:")
    src.emit(2, "while True:")
    src.emit(3, "if hook is not None:")
    em.flush(4)
    src.emit(4, "hook(F, NAMES[b])", 0)
    em.drop(4)

    def block(depth: int, bi: int) -> None:
        phis = df.phis[bi]
        for ops in em.segments(bi):
            steps = phis + sum(_counted(op) for op in ops)
            if steps > phis:
                src.emit(depth, f"steps += {steps}")
                src.emit(depth, "if steps > max_steps:")
                # The checked build reads the registers and the hit
                # counts from the frame.
                src.emit(depth + 1, f"X(interp, {len(segments)}, steps - {steps}, locals())")
                segments.append((phis, ops))
            elif steps:
                src.emit(depth, f"steps += {steps}")
            _emit_segment_ops(em, depth, ops, steps - phis)
            phis = 0

    def tree(depth: int, lo: int, hi: int) -> None:
        if hi - lo == 1:
            block(depth, lo)
            return
        mid = (lo + hi) // 2
        src.emit(depth, f"if b < {mid}:")
        tree(depth + 1, lo, mid)
        src.emit(depth, "else:")
        tree(depth + 1, mid, hi)

    tree(3, 0, len(df.blocks))
    src.emit(1, "except BaseException as exc:")
    src.emit(2, "d = LINES.get(exc.__traceback__.tb_lineno)")
    src.emit(2, "if d is not None:")
    src.emit(3, "interp.steps = steps - d")
    # Only an op's line can raise with hits not posted: a call, the hook
    # and a crossing's checked build post them first.
    em.flush(3)
    src.emit(2, "raise")
    if has_allocas:
        src.emit(1, "finally:")
        src.emit(2, "for a in reversed(allocas):")
        src.emit(3, "memory.unmap(a)")

    ns["LINES"] = src.faults
    ns["X"] = _Crossing(dmod, df, src, facts, segments)
    df.source = src.text()
    df.code = _compile(df.source, f"<decoded @{df.name} #{next(_serial)}>", ns)
    return em


def generate(dmod: DecodedModule) -> None:
    """Generate ``code`` and ``source`` for every function of ``dmod``."""
    emitters = [_generate_function(dmod, df) for df in dmod.functions.values()]
    # Link: each direct call names its callee's generated function.
    for em in emitters:
        ns = em.src.ns
        for cid in em.internal:
            ns[f"f{cid}"] = dmod.functions[dmod.callee_static[cid][1]].code
