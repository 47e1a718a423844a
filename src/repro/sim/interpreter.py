"""A byte-accurate interpreter for :mod:`repro.ir`.

The interpreter plays the role of the CPU: it executes IR instructions
against a sparse :class:`AddressSpace`, resolves calls against the
module's functions, a builtin libc (malloc/free/memcpy/...), and any
*intrinsics* a far-memory runtime registers (``tfm_*`` guards and
allocation entry points); every intrinsic follows one positional
protocol, :data:`IntrinsicFn`, in both engines.  Loads and stores
through non-canonical addresses that were never mapped raise
:class:`SegmentationFault`, just as the hardware would
general-protection-fault — this is what makes the guard transformation
*observable*: untransformed programs crash on TrackFM pointers,
transformed ones run.

Two execution engines share one semantics:

* the **decoded** engine (default) runs :mod:`repro.sim.decode`'s flat,
  slot-indexed op records — operands are list indices, branch targets
  are block indices, callees resolve through a per-interpreter cache,
  and a guard or chunk-deref call is an op that hands its argument
  registers straight to the resolved intrinsic — and is several times
  faster;
* the **legacy** engine walks the IR objects directly, one
  ``isinstance`` ladder per dynamic instruction.  It is kept as the
  executable specification: the decoded engine must match it value for
  value, step for step, metric for metric (``tests/test_decode_cache.py``
  and the engine leg of ``tests/test_fuzz_differential.py`` enforce this
  over the fuzzer's whole seed corpus).

Select with ``Interpreter(module, engine="legacy")`` or the
``REPRO_INTERP_ENGINE`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import InterpError, SegmentationFault
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    FCmp,
    Gep,
    ICmp,
    Instruction,
    IntToPtr,
    Load,
    Phi,
    PtrToInt,
    Ret,
    Select,
    Store,
)
from repro.ir.module import Module
from repro.ir.types import IntType
from repro.ir.values import Argument, Constant, UndefValue, Value
from repro.sim.memory import AddressSpace

#: Address-space layout (canonical ranges).
STACK_BASE = 0x1000_0000
GLOBAL_BASE = 0x2000_0000
LIBC_HEAP_BASE = 0x4000_0000

_U64 = (1 << 64) - 1


def _wrap(value: int, bits: int) -> int:
    """Wrap to two's complement at ``bits`` width."""
    mask = (1 << bits) - 1
    value &= mask
    if bits > 1 and value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value


def _unsigned(value: int, bits: int) -> int:
    return value & ((1 << bits) - 1)


@dataclass
class InterpResult:
    """Outcome of one top-level run."""

    value: object
    steps: int
    output: List[str] = field(default_factory=list)


class _Frame:
    """One activation record."""

    __slots__ = ("func", "env", "block", "prev_block", "allocas")

    def __init__(self, func: Function) -> None:
        self.func = func
        self.env: Dict[Value, object] = {}
        self.block: BasicBlock = func.entry
        self.prev_block: Optional[BasicBlock] = None
        self.allocas: List[int] = []


#: The intrinsic protocol: an intrinsic is called with the call's
#: arguments as positional arguments, ``fn(*args)``, and returns the
#: call's value (ignored for a void call).  Both engines call it so:
#: the legacy engine and the decoded engine's generic call op with the
#: gathered arguments, the decoded bridge ops (``OP_GUARD``/``OP_DEREF``)
#: straight from their argument registers.  An intrinsic that needs the
#: interpreter or a runtime binds it itself, as a bound method or a
#: closure.
IntrinsicFn = Callable[..., object]


class Interpreter:
    """Executes one module; reusable across multiple ``run`` calls."""

    def __init__(
        self,
        module: Module,
        intrinsics: Optional[Dict[str, IntrinsicFn]] = None,
        block_hook: Optional[Callable[[Function, str], None]] = None,
        max_steps: int = 50_000_000,
        engine: Optional[str] = None,
    ) -> None:
        self.module = module
        self.memory = AddressSpace()
        self.intrinsics: Dict[str, IntrinsicFn] = dict(intrinsics or {})
        self.block_hook = block_hook
        self.max_steps = max_steps
        if engine is None:
            engine = os.environ.get("REPRO_INTERP_ENGINE", "decoded")
        if engine not in ("decoded", "legacy"):
            raise InterpError(f"unknown interpreter engine {engine!r}")
        self.engine = engine
        self.steps = 0
        self.output: List[str] = []
        self._stack_top = STACK_BASE
        self._heap_top = LIBC_HEAP_BASE
        self._heap_sizes: Dict[int, int] = {}
        self._globals: Dict[str, int] = {}
        #: Decoded-engine state: the decoded module this interpreter last
        #: ran, and its callee-id -> resolved-callable cache (reset when
        #: the decode cache turns over or an intrinsic is registered).
        self._dmod = None
        self._callee_cache: List[Optional[tuple]] = []
        self._map_globals()

    # -- setup ----------------------------------------------------------

    def _map_globals(self) -> None:
        addr = GLOBAL_BASE
        for g in self.module.globals():
            self.memory.map_region(addr, g.size_bytes, label=f"global:{g.name}")
            self._globals[g.name] = addr
            addr += (g.size_bytes + 63) // 64 * 64

    def global_addr(self, name: str) -> int:
        addr = self._globals.get(name)
        if addr is None:
            raise InterpError(f"no global @{name}")
        return addr

    def register_intrinsic(self, name: str, fn: IntrinsicFn) -> None:
        self.intrinsics[name] = fn
        # A name previously resolved as a builtin (or left unresolved)
        # may now bind to this intrinsic: drop the resolution cache.
        self._callee_cache = [None] * len(self._callee_cache)

    # -- builtin libc heap --------------------------------------------------

    def libc_malloc(self, size: int) -> int:
        """The *default* (canonical) heap; replaced by tfm_malloc post-pass."""
        if size <= 0:
            size = 1
        addr = self._heap_top
        self.memory.map_region(addr, size, label="heap")
        self._heap_sizes[addr] = size
        self._heap_top += (size + 15) // 16 * 16
        return addr

    def libc_free(self, addr: int) -> None:
        if addr == 0:
            return
        if addr not in self._heap_sizes:
            raise InterpError(f"free of non-heap address {addr:#x}")
        del self._heap_sizes[addr]
        self.memory.unmap(addr)

    def libc_realloc(self, addr: int, size: int) -> int:
        if addr == 0:
            return self.libc_malloc(size)
        old_size = self._heap_sizes.get(addr)
        if old_size is None:
            raise InterpError(f"realloc of non-heap address {addr:#x}")
        new = self.libc_malloc(size)
        data = self.memory.read_bytes(addr, min(old_size, size))
        self.memory.write_bytes(new, data)
        self.libc_free(addr)
        return new

    # -- execution ----------------------------------------------------------

    def run(self, entry: str = "main", args: Sequence[object] = ()) -> InterpResult:
        """Execute ``entry(args)`` to completion."""
        func = self.module.get_function(entry)
        if self.engine == "legacy" or func.is_declaration:
            value = self._call_function(func, list(args))
        else:
            dmod = self._decoded()
            value = self._call_decoded(dmod.functions[func.name], list(args))
        return InterpResult(value=value, steps=self.steps, output=list(self.output))

    # -- decoded engine -----------------------------------------------------

    def _decoded(self):
        """The module's decoded form; one cache check per ``run``."""
        from repro.sim.decode import decode_module

        dmod = decode_module(self.module)
        if dmod is not self._dmod:
            self._dmod = dmod
            self._callee_cache = [None] * len(dmod.callees)
        return dmod

    def _resolve_callee(self, cid: int) -> tuple:
        """Resolve a callee id once; cached until intrinsics change.

        The cached entry is ``(kind, payload)``: 0 = internal decoded
        function, 1 = a callable under the intrinsic protocol (a
        registered intrinsic, else a builtin libc wrapper), 2 = a
        ``global_addr.*`` constant.  An external name always resolves
        to kind 1 or raises, which is what lets a bridge op call
        ``payload`` without looking at ``kind``.
        """
        from repro.sim.decode import CALLEE_GLOBAL, CALLEE_INTERNAL

        tag, name = self._dmod.callee_static[cid]
        if tag == CALLEE_GLOBAL:
            entry = (2, self.global_addr(name))
        elif tag == CALLEE_INTERNAL:
            entry = (0, self._dmod.functions[name])
        else:
            fn = self.intrinsics.get(name)
            if fn is None:
                builtin = _BUILTIN_WRAPPERS.get(name)
                if builtin is None:
                    raise InterpError(f"call to unresolved function @{name}")
                fn = builtin(self)
            entry = (1, fn)
        self._callee_cache[cid] = entry
        return entry

    def _call_decoded(self, dfunc, args: List[object]) -> object:
        """Run one decoded activation frame (the hot loop).

        Mirrors ``_run_frame``/``_execute`` semantics exactly, including
        step accounting: one step per executed non-phi instruction plus
        one per phi evaluated on a taken edge.  ``self.steps`` is kept in
        a local and synced around calls and at returns.
        """
        from repro.sim.decode import (
            OP_ADD64, OP_ALLOCA, OP_AND64, OP_ASHR, OP_BINW, OP_BR, OP_CALL,
            OP_CONDBR, OP_DEREF, OP_FADD, OP_FCMP, OP_FDIV, OP_FMUL,
            OP_FPTOSI, OP_FSUB, OP_GEP, OP_GUARD, OP_ICMP_EQ, OP_ICMP_NE,
            OP_ICMP_SGE, OP_ICMP_SGT, OP_ICMP_SLE, OP_ICMP_SLT, OP_ICMP_U,
            OP_INTTOPTR, OP_LOAD, OP_LSHR, OP_MUL64, OP_OR64, OP_PTRTOINT,
            OP_RAISE, OP_RET, OP_SDIV, OP_SELECT, OP_SHL, OP_SITOFP, OP_SREM,
            OP_STORE, OP_SUB64, OP_WRAP, OP_XOR64, OP_ZEXT,
        )

        if len(args) != dfunc.nargs:
            raise InterpError(
                f"@{dfunc.name} expects {dfunc.nargs} args, got {len(args)}"
            )
        regs = dfunc.template[:]
        if args:
            regs[: len(args)] = args
        func = dfunc.func
        blocks = dfunc.blocks
        names = dfunc.names
        hook = self.block_hook
        memory = self.memory
        load = memory.load
        store = memory.store
        callees = self._callee_cache
        max_steps = self.max_steps
        steps = self.steps
        allocas: List[int] = []
        M64 = _U64
        S63 = 1 << 63
        P64 = 1 << 64
        bi = dfunc.start
        try:
            while True:
                if hook is not None:
                    hook(func, names[bi])
                for op in blocks[bi]:
                    steps += 1
                    if steps > max_steps:
                        self.steps = steps
                        raise InterpError(f"exceeded max_steps={max_steps}")
                    tag = op[0]
                    if tag == OP_ADD64:
                        v = (regs[op[2]] + regs[op[3]]) & M64
                        regs[op[1]] = v - P64 if v >= S63 else v
                    elif tag == OP_GEP:
                        regs[op[1]] = (regs[op[2]] + regs[op[3]] * op[4]) & M64
                    elif tag == OP_BR:
                        nphi = op[3]
                        if nphi:
                            if nphi == 1:
                                d, s = op[2]
                                regs[d] = regs[s]
                            else:
                                dests, gather = op[2]
                                for d, v in zip(dests, gather(regs)):
                                    regs[d] = v
                            steps += nphi
                        bi = op[1]
                        break
                    elif tag == OP_ICMP_SLT:
                        regs[op[1]] = 1 if regs[op[2]] < regs[op[3]] else 0
                    elif tag == OP_CONDBR:
                        if regs[op[1]]:
                            bi = op[2]
                            copies = op[3]
                            nphi = op[4]
                        else:
                            bi = op[5]
                            copies = op[6]
                            nphi = op[7]
                        if nphi:
                            if nphi == 1:
                                d, s = copies
                                regs[d] = regs[s]
                            else:
                                dests, gather = copies
                                for d, v in zip(dests, gather(regs)):
                                    regs[d] = v
                            steps += nphi
                        break
                    elif tag == OP_LOAD:
                        regs[op[1]] = load(regs[op[2]], op[3])
                    elif tag == OP_DEREF:
                        ce = callees[op[2]]
                        if ce is None:
                            ce = self._resolve_callee(op[2])
                        self.steps = steps
                        regs[op[1]] = ce[1](regs[op[3]], regs[op[4]])
                        steps = self.steps
                    elif tag == OP_MUL64:
                        v = (regs[op[2]] * regs[op[3]]) & M64
                        regs[op[1]] = v - P64 if v >= S63 else v
                    elif tag == OP_GUARD:
                        ce = callees[op[2]]
                        if ce is None:
                            ce = self._resolve_callee(op[2])
                        self.steps = steps
                        regs[op[1]] = ce[1](regs[op[3]])
                        steps = self.steps
                    elif tag == OP_STORE:
                        store(regs[op[3]], op[2], regs[op[1]])
                    elif tag == OP_AND64:
                        v = (regs[op[2]] & regs[op[3]]) & M64
                        regs[op[1]] = v - P64 if v >= S63 else v
                    elif tag == OP_SREM:
                        ia, ib = int(regs[op[2]]), int(regs[op[3]])
                        if ib == 0:
                            self.steps = steps
                            raise InterpError("srem by zero")
                        q = abs(ia) // abs(ib)
                        q = -q if (ia < 0) != (ib < 0) else q
                        v = ia - q * ib
                        if op[4] == 64:
                            v &= M64
                            regs[op[1]] = v - P64 if v >= S63 else v
                        else:
                            regs[op[1]] = _wrap(v, op[4])
                    elif tag == OP_SUB64:
                        v = (regs[op[2]] - regs[op[3]]) & M64
                        regs[op[1]] = v - P64 if v >= S63 else v
                    elif tag == OP_CALL:
                        ce = callees[op[2]]
                        if ce is None:
                            ce = self._resolve_callee(op[2])
                        kind = ce[0]
                        if kind == 2:
                            result = ce[1]
                        else:
                            call_args = op[3](regs)
                            self.steps = steps
                            if kind == 1:
                                result = ce[1](*call_args)
                            else:
                                result = self._call_decoded(ce[1], call_args)
                            steps = self.steps
                        if op[1] is not None:
                            regs[op[1]] = result
                    elif tag == OP_RET:
                        self.steps = steps
                        s = op[1]
                        return regs[s] if s is not None else None
                    elif tag == OP_OR64:
                        v = (regs[op[2]] | regs[op[3]]) & M64
                        regs[op[1]] = v - P64 if v >= S63 else v
                    elif tag == OP_XOR64:
                        v = (regs[op[2]] ^ regs[op[3]]) & M64
                        regs[op[1]] = v - P64 if v >= S63 else v
                    elif tag == OP_ICMP_EQ:
                        regs[op[1]] = 1 if regs[op[2]] == regs[op[3]] else 0
                    elif tag == OP_ICMP_NE:
                        regs[op[1]] = 1 if regs[op[2]] != regs[op[3]] else 0
                    elif tag == OP_ICMP_SLE:
                        regs[op[1]] = 1 if regs[op[2]] <= regs[op[3]] else 0
                    elif tag == OP_ICMP_SGT:
                        regs[op[1]] = 1 if regs[op[2]] > regs[op[3]] else 0
                    elif tag == OP_ICMP_SGE:
                        regs[op[1]] = 1 if regs[op[2]] >= regs[op[3]] else 0
                    elif tag == OP_ICMP_U:
                        regs[op[1]] = (
                            1 if op[4](int(regs[op[2]]) & M64, int(regs[op[3]]) & M64)
                            else 0
                        )
                    elif tag == OP_SELECT:
                        regs[op[1]] = regs[op[3]] if regs[op[2]] else regs[op[4]]
                    elif tag == OP_ALLOCA:
                        addr = self._stack_top
                        memory.map_region(addr, op[2], label="stack")
                        allocas.append(addr)
                        self._stack_top += (op[2] + 15) // 16 * 16
                        regs[op[1]] = addr
                    elif tag == OP_BINW:
                        regs[op[1]] = _wrap(
                            op[5](int(regs[op[2]]), int(regs[op[3]])), op[4]
                        )
                    elif tag == OP_SDIV:
                        ia, ib = int(regs[op[2]]), int(regs[op[3]])
                        if ib == 0:
                            self.steps = steps
                            raise InterpError("sdiv by zero")
                        q = abs(ia) // abs(ib)
                        v = -q if (ia < 0) != (ib < 0) else q
                        if op[4] == 64:
                            v &= M64
                            regs[op[1]] = v - P64 if v >= S63 else v
                        else:
                            regs[op[1]] = _wrap(v, op[4])
                    elif tag == OP_SHL:
                        bits = op[4]
                        regs[op[1]] = _wrap(
                            int(regs[op[2]]) << (int(regs[op[3]]) % bits), bits
                        )
                    elif tag == OP_LSHR:
                        bits = op[4]
                        regs[op[1]] = _wrap(
                            _unsigned(int(regs[op[2]]), bits)
                            >> (int(regs[op[3]]) % bits),
                            bits,
                        )
                    elif tag == OP_ASHR:
                        bits = op[4]
                        regs[op[1]] = _wrap(
                            int(regs[op[2]]) >> (int(regs[op[3]]) % bits), bits
                        )
                    elif tag == OP_FADD:
                        regs[op[1]] = float(regs[op[2]]) + float(regs[op[3]])
                    elif tag == OP_FSUB:
                        regs[op[1]] = float(regs[op[2]]) - float(regs[op[3]])
                    elif tag == OP_FMUL:
                        regs[op[1]] = float(regs[op[2]]) * float(regs[op[3]])
                    elif tag == OP_FDIV:
                        fa, fb = float(regs[op[2]]), float(regs[op[3]])
                        if fb == 0.0:
                            regs[op[1]] = (
                                float("inf") if fa > 0
                                else float("-inf") if fa < 0
                                else float("nan")
                            )
                        else:
                            regs[op[1]] = fa / fb
                    elif tag == OP_FCMP:
                        regs[op[1]] = (
                            1 if op[4](float(regs[op[2]]), float(regs[op[3]])) else 0
                        )
                    elif tag == OP_PTRTOINT:
                        regs[op[1]] = _wrap(int(regs[op[2]]), 64)
                    elif tag == OP_INTTOPTR:
                        regs[op[1]] = int(regs[op[2]]) & M64
                    elif tag == OP_WRAP:
                        regs[op[1]] = _wrap(int(regs[op[2]]), op[3])
                    elif tag == OP_ZEXT:
                        regs[op[1]] = _wrap(int(regs[op[2]]) & op[3], op[4])
                    elif tag == OP_SITOFP:
                        regs[op[1]] = float(int(regs[op[2]]))
                    elif tag == OP_FPTOSI:
                        regs[op[1]] = _wrap(int(float(regs[op[2]])), 64)
                    elif tag == OP_RAISE:
                        self.steps = steps
                        raise InterpError(op[1])
                    else:  # pragma: no cover - decoder emits only known tags
                        self.steps = steps
                        raise InterpError(f"bad decoded op tag {tag}")
        finally:
            for addr in reversed(allocas):
                memory.unmap(addr)

    def _call_function(self, func: Function, args: List[object]) -> object:
        if func.is_declaration:
            return self._call_external(func.name, args)
        if len(args) != len(func.args):
            raise InterpError(
                f"@{func.name} expects {len(func.args)} args, got {len(args)}"
            )
        frame = _Frame(func)
        for formal, actual in zip(func.args, args):
            frame.env[formal] = actual
        try:
            return self._run_frame(frame)
        finally:
            for addr in reversed(frame.allocas):
                self.memory.unmap(addr)

    def _run_frame(self, frame: _Frame) -> object:
        while True:
            if self.block_hook is not None:
                self.block_hook(frame.func, frame.block.name)
            result = self._run_block(frame)
            if result is not _CONTINUE:
                return result

    def _run_block(self, frame: _Frame) -> object:
        # Phi nodes are evaluated simultaneously from the edge taken.
        block = frame.block
        phis = block.phis()
        if phis:
            if frame.prev_block is None:
                raise InterpError(f"phi in entry block %{block.name}")
            values = [
                self._value(frame, phi.incoming_for(frame.prev_block)) for phi in phis
            ]
            for phi, v in zip(phis, values):
                frame.env[phi] = v
            self.steps += len(phis)
        for inst in block.instructions[len(phis):]:
            self.steps += 1
            if self.steps > self.max_steps:
                raise InterpError(f"exceeded max_steps={self.max_steps}")
            outcome = self._execute(frame, inst)
            if outcome is _RETURN:
                return frame.env.get(_RETURN_SLOT)
            if outcome is _BRANCHED:
                return _CONTINUE
        raise InterpError(f"block %{block.name} fell through without terminator")

    # -- instruction dispatch ------------------------------------------------

    def _value(self, frame: _Frame, v: Value) -> object:
        if isinstance(v, Constant):
            return v.value
        if isinstance(v, UndefValue):
            return 0
        if v in frame.env:
            return frame.env[v]
        raise InterpError(f"use of undefined value {v.short()} in @{frame.func.name}")

    def _execute(self, frame: _Frame, inst: Instruction) -> object:
        if isinstance(inst, BinOp):
            frame.env[inst] = self._binop(frame, inst)
            return None
        if isinstance(inst, Load):
            addr = self._value(frame, inst.pointer)
            frame.env[inst] = self.memory.read_value(int(addr), inst.type)
            return None
        if isinstance(inst, Store):
            addr = self._value(frame, inst.pointer)
            self.memory.write_value(int(addr), inst.value.type, self._value(frame, inst.value))
            return None
        if isinstance(inst, Gep):
            base = int(self._value(frame, inst.base))
            index = int(self._value(frame, inst.index))
            frame.env[inst] = (base + index * inst.elem_size) & _U64
            return None
        if isinstance(inst, ICmp):
            frame.env[inst] = self._icmp(frame, inst)
            return None
        if isinstance(inst, FCmp):
            frame.env[inst] = self._fcmp(frame, inst)
            return None
        if isinstance(inst, Br):
            frame.prev_block = frame.block
            frame.block = inst.target
            return _BRANCHED
        if isinstance(inst, CondBr):
            cond = self._value(frame, inst.condition)
            frame.prev_block = frame.block
            frame.block = inst.if_true if cond else inst.if_false
            return _BRANCHED
        if isinstance(inst, Ret):
            frame.env[_RETURN_SLOT] = (
                self._value(frame, inst.value) if inst.value is not None else None
            )
            return _RETURN
        if isinstance(inst, Call):
            frame.env[inst] = self._call(frame, inst)
            return None
        if isinstance(inst, Select):
            cond, a, b = (self._value(frame, op) for op in inst.operands)
            frame.env[inst] = a if cond else b
            return None
        if isinstance(inst, Alloca):
            addr = self._stack_top
            self.memory.map_region(addr, inst.size_bytes, label="stack")
            frame.allocas.append(addr)
            self._stack_top += (inst.size_bytes + 15) // 16 * 16
            frame.env[inst] = addr
            return None
        if isinstance(inst, PtrToInt):
            frame.env[inst] = _wrap(int(self._value(frame, inst.operands[0])), 64)
            return None
        if isinstance(inst, IntToPtr):
            frame.env[inst] = int(self._value(frame, inst.operands[0])) & _U64
            return None
        if isinstance(inst, Cast):
            frame.env[inst] = self._cast(frame, inst)
            return None
        if isinstance(inst, Phi):
            raise InterpError("phi reached dispatch (must be at block head)")
        raise InterpError(f"cannot execute {inst.render()}")

    def _binop(self, frame: _Frame, inst: BinOp) -> object:
        a = self._value(frame, inst.lhs)
        b = self._value(frame, inst.rhs)
        op = inst.opcode
        if op.startswith("f"):
            fa, fb = float(a), float(b)
            if op == "fadd":
                return fa + fb
            if op == "fsub":
                return fa - fb
            if op == "fmul":
                return fa * fb
            if op == "fdiv":
                if fb == 0.0:
                    return float("inf") if fa > 0 else float("-inf") if fa < 0 else float("nan")
                return fa / fb
        ia, ib = int(a), int(b)
        bits = inst.type.bits if isinstance(inst.type, IntType) else 64
        if op == "add":
            return _wrap(ia + ib, bits)
        if op == "sub":
            return _wrap(ia - ib, bits)
        if op == "mul":
            return _wrap(ia * ib, bits)
        if op == "sdiv":
            if ib == 0:
                raise InterpError("sdiv by zero")
            q = abs(ia) // abs(ib)
            return _wrap(-q if (ia < 0) != (ib < 0) else q, bits)
        if op == "srem":
            if ib == 0:
                raise InterpError("srem by zero")
            q = abs(ia) // abs(ib)
            q = -q if (ia < 0) != (ib < 0) else q
            return _wrap(ia - q * ib, bits)
        if op == "and":
            return _wrap(ia & ib, bits)
        if op == "or":
            return _wrap(ia | ib, bits)
        if op == "xor":
            return _wrap(ia ^ ib, bits)
        if op == "shl":
            return _wrap(ia << (ib % bits), bits)
        if op == "lshr":
            return _wrap(_unsigned(ia, bits) >> (ib % bits), bits)
        if op == "ashr":
            return _wrap(ia >> (ib % bits), bits)
        raise InterpError(f"unknown binop {op}")

    def _icmp(self, frame: _Frame, inst: ICmp) -> int:
        a = int(self._value(frame, inst.operands[0]))
        b = int(self._value(frame, inst.operands[1]))
        pred = inst.pred
        if pred.startswith("u"):
            a, b = _unsigned(a, 64), _unsigned(b, 64)
            pred = {"ult": "slt", "ule": "sle", "ugt": "sgt", "uge": "sge"}[pred]
        table = {
            "eq": a == b,
            "ne": a != b,
            "slt": a < b,
            "sle": a <= b,
            "sgt": a > b,
            "sge": a >= b,
        }
        return int(table[pred])

    def _fcmp(self, frame: _Frame, inst: FCmp) -> int:
        a = float(self._value(frame, inst.operands[0]))
        b = float(self._value(frame, inst.operands[1]))
        table = {
            "oeq": a == b,
            "one": a != b,
            "olt": a < b,
            "ole": a <= b,
            "ogt": a > b,
            "oge": a >= b,
        }
        return int(table[inst.pred])

    def _cast(self, frame: _Frame, inst: Cast) -> object:
        v = self._value(frame, inst.operands[0])
        if inst.opcode in ("trunc", "zext", "sext"):
            to_bits = inst.type.bits  # type: ignore[union-attr]
            iv = int(v)
            if inst.opcode == "zext":
                src_bits = inst.operands[0].type.bits  # type: ignore[union-attr]
                return _wrap(_unsigned(iv, src_bits), to_bits)
            return _wrap(iv, to_bits)
        if inst.opcode == "sitofp":
            return float(int(v))
        if inst.opcode == "fptosi":
            return _wrap(int(float(v)), 64)
        raise InterpError(f"unknown cast {inst.opcode}")

    # -- calls ----------------------------------------------------------

    def _call(self, frame: _Frame, inst: Call) -> object:
        args = [self._value(frame, a) for a in inst.args]
        name = inst.callee
        if name.startswith("global_addr."):
            return self.global_addr(name[len("global_addr."):])
        if self.module.has_function(name):
            target = self.module.get_function(name)
            if not target.is_declaration:
                return self._call_function(target, args)
        return self._call_external(name, args)

    def _call_external(self, name: str, args: List[object]) -> object:
        fn = self.intrinsics.get(name)
        if fn is not None:
            return fn(*args)
        if name == "malloc":
            return self.libc_malloc(int(args[0]))
        if name == "calloc":
            return self.libc_malloc(int(args[0]) * int(args[1]))
        if name == "realloc":
            return self.libc_realloc(int(args[0]), int(args[1]))
        if name == "free":
            self.libc_free(int(args[0]))
            return None
        if name == "memset":
            dst, byte, n = (int(a) for a in args)
            self.memory.write_bytes(dst, bytes([byte & 0xFF]) * n)
            return dst
        if name == "memcpy":
            dst, src, n = (int(a) for a in args)
            self.memory.write_bytes(dst, self.memory.read_bytes(src, n))
            return dst
        if name == "print_i64":
            self.output.append(str(int(args[0])))
            return None
        if name == "print_f64":
            self.output.append(repr(float(args[0])))
            return None
        if name == "abort":
            raise InterpError("abort() called")
        raise InterpError(f"call to unresolved function @{name}")


def _memset(interp: "Interpreter") -> IntrinsicFn:
    write_bytes = interp.memory.write_bytes

    def fn(*args: object) -> object:
        dst, byte, n = (int(a) for a in args)
        write_bytes(dst, bytes([byte & 0xFF]) * n)
        return dst

    return fn


def _memcpy(interp: "Interpreter") -> IntrinsicFn:
    memory = interp.memory

    def fn(*args: object) -> object:
        dst, src, n = (int(a) for a in args)
        memory.write_bytes(dst, memory.read_bytes(src, n))
        return dst

    return fn


def _abort(*args: object) -> object:
    raise InterpError("abort() called")


#: Decoded-engine equivalents of :meth:`Interpreter._call_external`'s
#: builtin libc chain, under the intrinsic protocol.  Each entry is a
#: factory ``interp -> fn(*args)`` so the resolved callable binds its
#: interpreter once, not per call; like the chain, each reads the
#: arguments it needs by position and ignores any others.
_BUILTIN_WRAPPERS: Dict[str, Callable[["Interpreter"], IntrinsicFn]] = {
    "malloc": lambda i: lambda *args: i.libc_malloc(int(args[0])),
    "calloc": lambda i: lambda *args: i.libc_malloc(int(args[0]) * int(args[1])),
    "realloc": lambda i: lambda *args: i.libc_realloc(int(args[0]), int(args[1])),
    "free": lambda i: lambda *args: i.libc_free(int(args[0])),
    "memset": _memset,
    "memcpy": _memcpy,
    "print_i64": lambda i: lambda *args: i.output.append(str(int(args[0]))),
    "print_f64": lambda i: lambda *args: i.output.append(repr(float(args[0]))),
    "abort": lambda i: _abort,
}


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debug only
        return f"<{self.name}>"


_CONTINUE = _Sentinel("continue")
_BRANCHED = _Sentinel("branched")
_RETURN = _Sentinel("return")
_RETURN_SLOT = _Sentinel("return-slot")
