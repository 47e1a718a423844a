"""IR type system: integers, one float width, opaque pointers, void.

Pointers are opaque (as in modern LLVM): the pointee type is not part of
the pointer type.  Element sizes therefore travel explicitly on ``gep``
and ``load``/``store`` instructions, which keeps the guard passes honest
about access widths.
"""

from __future__ import annotations

from repro.errors import IRTypeError


class IRType:
    """Base class for IR types.  Types are singletons; compare with is/==."""

    def size_bytes(self) -> int:
        """Byte width of a value of this type (0 for void)."""
        raise NotImplementedError

    def is_int(self) -> bool:
        return isinstance(self, IntType)

    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == getattr(other, "__dict__", None)

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))

    def __repr__(self) -> str:
        return str(self)


class IntType(IRType):
    """An integer of ``bits`` width (1, 8, 16, 32 or 64)."""

    VALID_WIDTHS = (1, 8, 16, 32, 64)

    def __init__(self, bits: int) -> None:
        if bits not in self.VALID_WIDTHS:
            raise IRTypeError(f"unsupported integer width i{bits}")
        self.bits = bits

    def size_bytes(self) -> int:
        return max(1, self.bits // 8)

    def __str__(self) -> str:
        return f"i{self.bits}"


class FloatType(IRType):
    """A 64-bit IEEE double (the only float width we need)."""

    def size_bytes(self) -> int:
        return 8

    def __str__(self) -> str:
        return "f64"


class PointerType(IRType):
    """An opaque pointer; 8 bytes on our x86_64-like machine."""

    def size_bytes(self) -> int:
        return 8

    def __str__(self) -> str:
        return "ptr"


class VoidType(IRType):
    """The absence of a value (function returns only)."""

    def size_bytes(self) -> int:
        return 0

    def __str__(self) -> str:
        return "void"


I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F64 = FloatType()
PTR = PointerType()
VOID = VoidType()
