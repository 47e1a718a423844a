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

* the **decoded** engine (default) runs the Python function
  :mod:`repro.sim.codegen` generates for each function of
  :mod:`repro.sim.decode`'s op records — registers are locals, blocks
  are straight-line code, a call to a function of the module is a
  direct call, and other callees resolve through a per-interpreter
  cache — and is more than ten times faster (``python -m repro.bench
  regress`` records the ratio);
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

from repro.errors import InterpError
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
from repro.ir.values import Constant, UndefValue, Value
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
#: the legacy engine with the evaluated arguments, the decoded engine's
#: generated code straight from its argument registers.  An intrinsic
#: that needs the interpreter or a runtime binds it itself, as a bound
#: method or a closure.
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
        #: ran, and its callee-id -> resolved callable or global address
        #: cache (reset when the decode cache turns over or an intrinsic
        #: is registered).
        self._dmod = None
        self._callee_cache: List[object] = []
        #: The state generated code's inline TrackFM guard and deref hits
        #: read (:class:`~repro.trackfm.runtime.InlineState`), bound by
        #: :meth:`~repro.sim.irrun.TrackFMProgram.run` for one run; with
        #: None every such site calls its entry point.
        self.inline_state = None
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
            dfunc = self._decoded().functions[func.name]
            if len(args) != dfunc.nargs:
                raise InterpError(
                    f"@{func.name} expects {dfunc.nargs} args, got {len(args)}"
                )
            value = dfunc.code(self, *args)
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

    def _resolve_callee(self, cid: int) -> object:
        """Resolve an external or global callee id once; cached until
        intrinsics change.

        An external name resolves to a callable under the intrinsic
        protocol (a registered intrinsic, else a builtin libc wrapper)
        or raises; a ``global_addr.*`` name to the global's address.
        Generated code calls internal functions directly, never
        through here.
        """
        from repro.sim.decode import CALLEE_GLOBAL

        tag, name = self._dmod.callee_static[cid]
        if tag == CALLEE_GLOBAL:
            entry = self.global_addr(name)
        else:
            entry = self.intrinsics.get(name)
            if entry is None:
                builtin = _BUILTIN_WRAPPERS.get(name)
                if builtin is None:
                    raise InterpError(f"call to unresolved function @{name}")
                entry = builtin(self)
        self._callee_cache[cid] = entry
        return entry

    def _alloca(self, size: int, allocas: List[int]) -> int:
        """Map a stack slot of ``size`` bytes for a frame whose slots
        are ``allocas`` (unmapped when the frame exits)."""
        addr = self._stack_top
        self.memory.map_region(addr, size, label="stack")
        allocas.append(addr)
        self._stack_top += (size + 15) // 16 * 16
        return addr

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
            frame.env[inst] = self._alloca(inst.size_bytes, frame.allocas)
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
