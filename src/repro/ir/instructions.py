"""IR instructions.

The set is the minimal one TrackFM's passes care about: memory
(``alloca``/``load``/``store``/``gep``), integer and float arithmetic,
comparisons, control flow (``br``/``condbr``/``ret``), calls, phis,
selects, and the pointer<->integer casts whose handling §3.2 of the paper
calls out ("even if a pointer is cast to an integer type ... the
resulting load/store will still be properly guarded").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.errors import IRTypeError
from repro.ir.types import IRType, I1, I64, F64, PTR, VOID
from repro.ir.values import Value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.basicblock import BasicBlock
    from repro.ir.function import Function


class Instruction(Value):
    """Base class: an instruction is also the SSA value it defines."""

    #: Mnemonic, set by subclasses.
    opcode: str = "?"

    def __init__(self, ty: IRType, operands: Sequence[Value], name: str = "") -> None:
        super().__init__(ty, name)
        self.operands: List[Value] = list(operands)
        self.parent: Optional["BasicBlock"] = None
        #: Free-form pass annotations (e.g. "tfm.guarded", "tfm.heap").
        self.metadata: Dict[str, object] = {}

    # -- classification helpers used by analyses ---------------------------

    def is_terminator(self) -> bool:
        return isinstance(self, (Br, CondBr, Ret))

    def is_memory_access(self) -> bool:
        return isinstance(self, (Load, Store))

    def replace_uses_of(self, old: Value, new: Value) -> int:
        """Replace occurrences of ``old`` among this instruction's operands."""
        count = 0
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new
                count += 1
        return count

    def successors(self) -> Tuple["BasicBlock", ...]:
        """Blocks this instruction can transfer control to."""
        return ()

    def render(self) -> str:
        """One-line textual form."""
        ops = ", ".join(op.short() for op in self.operands)
        lhs = f"{self.short()} = " if not self.type.is_void() else ""
        return f"{lhs}{self.opcode} {ops}".rstrip()


class Alloca(Instruction):
    """Stack allocation of ``size_bytes`` bytes; yields a pointer.

    Stack memory is never remotable (§3.1), so the guard pass skips
    pointers whose provenance is an ``alloca``.
    """

    opcode = "alloca"

    def __init__(self, size_bytes: int, name: str = "") -> None:
        if size_bytes <= 0:
            raise IRTypeError("alloca size must be positive")
        super().__init__(PTR, [], name)
        self.size_bytes = size_bytes

    def render(self) -> str:
        return f"{self.short()} = alloca {self.size_bytes}"


class Load(Instruction):
    """Load a value of type ``ty`` from a pointer operand."""

    opcode = "load"

    def __init__(self, ty: IRType, ptr: Value, name: str = "") -> None:
        if not ptr.type.is_pointer():
            raise IRTypeError(f"load requires a pointer, got {ptr.type}")
        if ty.is_void():
            raise IRTypeError("cannot load void")
        super().__init__(ty, [ptr], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    def render(self) -> str:
        return f"{self.short()} = load {self.type}, {self.pointer.short()}"


class Store(Instruction):
    """Store a value through a pointer operand."""

    opcode = "store"

    def __init__(self, value: Value, ptr: Value) -> None:
        if not ptr.type.is_pointer():
            raise IRTypeError(f"store requires a pointer, got {ptr.type}")
        if value.type.is_void():
            raise IRTypeError("cannot store void")
        super().__init__(VOID, [value, ptr])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]

    def render(self) -> str:
        return f"store {self.value.type} {self.value.short()}, {self.pointer.short()}"


class Gep(Instruction):
    """Pointer arithmetic: ``base + index * elem_size`` (bytes).

    A byte-level get-element-pointer; ``elem_size`` is the stride in
    bytes, carried explicitly because pointers are opaque.
    """

    opcode = "gep"

    def __init__(self, base: Value, index: Value, elem_size: int, name: str = "") -> None:
        if not base.type.is_pointer():
            raise IRTypeError(f"gep base must be a pointer, got {base.type}")
        if not index.type.is_int():
            raise IRTypeError(f"gep index must be an integer, got {index.type}")
        if elem_size <= 0:
            raise IRTypeError("gep element size must be positive")
        super().__init__(PTR, [base, index], name)
        self.elem_size = elem_size

    @property
    def base(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]

    def render(self) -> str:
        return (
            f"{self.short()} = gep {self.base.short()}, "
            f"{self.index.short()} x {self.elem_size}"
        )


_INT_BINOPS = {"add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl", "lshr", "ashr"}
_FLOAT_BINOPS = {"fadd", "fsub", "fmul", "fdiv"}


class BinOp(Instruction):
    """Two-operand arithmetic; integer and float flavours."""

    def __init__(self, op: str, a: Value, b: Value, name: str = "") -> None:
        if op in _INT_BINOPS:
            if not (a.type.is_int() and a.type == b.type):
                raise IRTypeError(f"{op} needs matching int operands, got {a.type}/{b.type}")
            ty = a.type
        elif op in _FLOAT_BINOPS:
            if not (a.type.is_float() and b.type.is_float()):
                raise IRTypeError(f"{op} needs f64 operands, got {a.type}/{b.type}")
            ty = F64
        else:
            raise IRTypeError(f"unknown binop {op!r}")
        super().__init__(ty, [a, b], name)
        self.opcode = op

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


_ICMP_PREDS = {"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}
_FCMP_PREDS = {"oeq", "one", "olt", "ole", "ogt", "oge"}


class ICmp(Instruction):
    """Integer (or pointer) comparison producing an i1."""

    opcode = "icmp"

    def __init__(self, pred: str, a: Value, b: Value, name: str = "") -> None:
        if pred not in _ICMP_PREDS:
            raise IRTypeError(f"unknown icmp predicate {pred!r}")
        ok = (a.type.is_int() and a.type == b.type) or (
            a.type.is_pointer() and b.type.is_pointer()
        )
        if not ok:
            raise IRTypeError(f"icmp needs matching int/ptr operands, got {a.type}/{b.type}")
        super().__init__(I1, [a, b], name)
        self.pred = pred

    def render(self) -> str:
        a, b = self.operands
        return f"{self.short()} = icmp {self.pred} {a.short()}, {b.short()}"


class FCmp(Instruction):
    """Float comparison producing an i1."""

    opcode = "fcmp"

    def __init__(self, pred: str, a: Value, b: Value, name: str = "") -> None:
        if pred not in _FCMP_PREDS:
            raise IRTypeError(f"unknown fcmp predicate {pred!r}")
        if not (a.type.is_float() and b.type.is_float()):
            raise IRTypeError("fcmp needs f64 operands")
        super().__init__(I1, [a, b], name)
        self.pred = pred

    def render(self) -> str:
        a, b = self.operands
        return f"{self.short()} = fcmp {self.pred} {a.short()}, {b.short()}"


class Br(Instruction):
    """Unconditional branch."""

    opcode = "br"

    def __init__(self, target: "BasicBlock") -> None:
        super().__init__(VOID, [])
        self.target = target

    def successors(self) -> Tuple["BasicBlock", ...]:
        return (self.target,)

    def render(self) -> str:
        return f"br label %{self.target.name}"


class CondBr(Instruction):
    """Conditional branch on an i1."""

    opcode = "condbr"

    def __init__(self, cond: Value, if_true: "BasicBlock", if_false: "BasicBlock") -> None:
        if not (cond.type.is_int() and cond.type == I1):
            raise IRTypeError(f"condbr condition must be i1, got {cond.type}")
        super().__init__(VOID, [cond])
        self.if_true = if_true
        self.if_false = if_false

    @property
    def condition(self) -> Value:
        return self.operands[0]

    def successors(self) -> Tuple["BasicBlock", ...]:
        return (self.if_true, self.if_false)

    def render(self) -> str:
        return (
            f"condbr {self.condition.short()}, "
            f"label %{self.if_true.name}, label %{self.if_false.name}"
        )


class Ret(Instruction):
    """Function return, with or without a value."""

    opcode = "ret"

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__(VOID, [value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def render(self) -> str:
        if self.value is None:
            return "ret void"
        return f"ret {self.value.type} {self.value.short()}"


class Call(Instruction):
    """Direct call to a named function.

    ``callee`` is a name resolved at execution time against the module's
    functions and the runtime's registered intrinsics; this mirrors how
    the TrackFM passes rewrite ``malloc`` -> ``tfm_malloc`` by name
    (the libc transformation pass, §3.1).
    """

    opcode = "call"

    def __init__(self, ret_ty: IRType, callee: str, args: Sequence[Value], name: str = "") -> None:
        if not callee:
            raise IRTypeError("call requires a callee name")
        super().__init__(ret_ty, list(args), name)
        self.callee = callee

    @property
    def args(self) -> List[Value]:
        return self.operands

    def render(self) -> str:
        args = ", ".join(a.short() for a in self.operands)
        lhs = f"{self.short()} = " if not self.type.is_void() else ""
        return f"{lhs}call {self.type} @{self.callee}({args})"


class Phi(Instruction):
    """SSA phi node: value depends on the predecessor we arrived from."""

    opcode = "phi"

    def __init__(self, ty: IRType, name: str = "") -> None:
        if ty.is_void():
            raise IRTypeError("phi cannot be void")
        super().__init__(ty, [], name)
        self.incoming: List[Tuple[Value, "BasicBlock"]] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type != self.type:
            raise IRTypeError(
                f"phi of {self.type} got incoming {value.type} from %{block.name}"
            )
        self.incoming.append((value, block))
        self.operands.append(value)

    def incoming_for(self, block: "BasicBlock") -> Value:
        for value, pred in self.incoming:
            if pred is block:
                return value
        raise IRTypeError(f"phi %{self.name} has no incoming from %{block.name}")

    def replace_uses_of(self, old: Value, new: Value) -> int:
        count = super().replace_uses_of(old, new)
        self.incoming = [
            (new if value is old else value, blk) for value, blk in self.incoming
        ]
        return count

    def render(self) -> str:
        pairs = ", ".join(f"[{v.short()}, %{b.name}]" for v, b in self.incoming)
        return f"{self.short()} = phi {self.type} {pairs}"


class Select(Instruction):
    """``cond ? a : b`` without a branch."""

    opcode = "select"

    def __init__(self, cond: Value, a: Value, b: Value, name: str = "") -> None:
        if cond.type != I1:
            raise IRTypeError("select condition must be i1")
        if a.type != b.type:
            raise IRTypeError(f"select arms disagree: {a.type} vs {b.type}")
        super().__init__(a.type, [cond, a, b], name)


class Cast(Instruction):
    """Integer width change (trunc/zext/sext) or int<->float conversion."""

    VALID = {"trunc", "zext", "sext", "sitofp", "fptosi"}

    def __init__(self, op: str, value: Value, to: IRType, name: str = "") -> None:
        if op not in self.VALID:
            raise IRTypeError(f"unknown cast {op!r}")
        super().__init__(to, [value], name)
        self.opcode = op

    def render(self) -> str:
        v = self.operands[0]
        return f"{self.short()} = {self.opcode} {v.type} {v.short()} to {self.type}"


class PtrToInt(Instruction):
    """Reinterpret a pointer as an i64 (offset math on TrackFM pointers)."""

    opcode = "ptrtoint"

    def __init__(self, ptr: Value, name: str = "") -> None:
        if not ptr.type.is_pointer():
            raise IRTypeError("ptrtoint needs a pointer")
        super().__init__(I64, [ptr], name)


class IntToPtr(Instruction):
    """Reinterpret an i64 as a pointer."""

    opcode = "inttoptr"

    def __init__(self, value: Value, name: str = "") -> None:
        if not (value.type.is_int() and value.type == I64):
            raise IRTypeError("inttoptr needs an i64")
        super().__init__(PTR, [value], name)


TERMINATORS = (Br, CondBr, Ret)
