"""IR values: the SSA names instructions produce and consume."""

from __future__ import annotations

from repro.errors import IRTypeError
from repro.ir.types import IRType, IntType, F64, PTR


class Value:
    """Anything an instruction can use as an operand."""

    def __init__(self, ty: IRType, name: str = "") -> None:
        self.type = ty
        self.name = name

    def short(self) -> str:
        """Operand-position rendering, e.g. ``%x`` or ``42``."""
        return f"%{self.name}" if self.name else "%<anon>"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.short()}: {self.type}>"


class Constant(Value):
    """An immediate integer, float or null-pointer constant."""

    def __init__(self, ty: IRType, value) -> None:
        super().__init__(ty, name="")
        if ty.is_int():
            if not isinstance(value, int):
                raise IRTypeError(f"integer constant needs int, got {value!r}")
            assert isinstance(ty, IntType)
            # Wrap into the type's two's-complement range so IR constants
            # behave like machine integers.
            mask = (1 << ty.bits) - 1
            wrapped = value & mask
            if wrapped >= (1 << (ty.bits - 1)) and ty.bits > 1:
                wrapped -= 1 << ty.bits
            value = wrapped
        elif ty.is_float():
            value = float(value)
        elif ty.is_pointer():
            if value != 0:
                raise IRTypeError("pointer constants must be null (0)")
        else:
            raise IRTypeError(f"cannot build a constant of type {ty}")
        self.value = value

    def short(self) -> str:
        if self.type.is_pointer():
            return "null"
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and self.type == other.type
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, ty: IRType, name: str, index: int) -> None:
        super().__init__(ty, name)
        self.index = index


class UndefValue(Value):
    """An undefined value (used for unreachable phi inputs)."""

    def short(self) -> str:
        return "undef"


def const_int(value: int, ty: IntType) -> Constant:
    """Shorthand for an integer constant."""
    return Constant(ty, value)


def const_f64(value: float) -> Constant:
    """Shorthand for a double constant."""
    return Constant(F64, value)


def null_ptr() -> Constant:
    """The null pointer constant."""
    return Constant(PTR, 0)
