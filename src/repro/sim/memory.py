"""A sparse, region-based byte-addressable address space.

The interpreter's memory is a set of non-overlapping regions, each a
``bytearray``.  Accessing an unmapped address raises
:class:`SegmentationFault` — the behaviour a non-canonical (TrackFM)
pointer triggers on real x86 when it escapes to an unguarded load/store
(§3.1, footnote 3).

Typed accesses go through a codec (:data:`Codec`), resolved once per IR
type by :func:`codec_for`: the decoder bakes one into every load and store, so
the per-access path never re-derives a type's width, signedness or
float-ness.  :meth:`AddressSpace.load`/:meth:`AddressSpace.store` are
the only typed-access implementation; ``read_value``/``write_value``
look the codec up and call them.  Both keep a two-entry hot-region
cache, the most recently used region and the one used before it: an
access inside the first costs one bounds test, one inside the second
two tests and a swap of the entries, and any other falls back to the
sorted-region bisect and becomes the first entry.  Two entries cover a
loop that alternates between two arrays (a stencil's source and
destination, a histogram's keys and counts).  :meth:`AddressSpace.unmap`
clears whichever entries hold the region it removes.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.errors import InterpError, SegmentationFault
from repro.ir.types import FloatType, IntType, IRType, PointerType

_U64 = (1 << 64) - 1


#: How values of one IR type are laid out in memory (little-endian): a
#: plain tuple, indexed on the hot path (a ``NamedTuple`` subclass would
#: miss the interpreter's tuple-index fast path).  Fields, in order:
#:
#: 0. ``size``: byte width of one access;
#: 1. ``unpack_from`` of the load format (``struct.Struct``): signed for
#:    i8..i64, unsigned for i1 and ptr, a double for f64;
#: 2. ``pack_into`` of the store format, unsigned for every integer;
#: 3. ``mask``: a stored integer wraps to the type's width; 0 for f64
#:    and ptr, which ``convert`` handles instead;
#: 4. ``convert``: the store conversion when ``mask`` is 0 — ``float``
#:    for f64, a range check raising :class:`OverflowError` for ptr.
Codec = Tuple[int, Callable, Callable, int, Callable]


def _pointer_bits(value) -> int:
    """A stored pointer is an unsigned 64-bit integer; nothing wraps."""
    value = int(value)
    if not 0 <= value <= _U64:
        raise OverflowError(f"pointer value {value:#x} does not fit in 64 bits")
    return value


def _int_codec(bits: int) -> Codec:
    size = max(1, bits // 8)
    store_fmt = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}[size]
    # i1 loads the whole byte unsigned: only i8 and wider sign-extend.
    load_fmt = store_fmt if bits == 1 else store_fmt.lower()
    return (
        size,
        struct.Struct(load_fmt).unpack_from,
        struct.Struct(store_fmt).pack_into,
        (1 << bits) - 1,
        int,
    )


#: Integer codecs by bit width (``IntType.VALID_WIDTHS``).
_INT_CODECS: Dict[int, Codec] = {bits: _int_codec(bits) for bits in IntType.VALID_WIDTHS}
_F64 = struct.Struct("<d")
_P64 = struct.Struct("<Q")
_F64_CODEC: Codec = (8, _F64.unpack_from, _F64.pack_into, 0, float)
_PTR_CODEC: Codec = (8, _P64.unpack_from, _P64.pack_into, 0, _pointer_bits)


def codec_for(ty: IRType) -> Codec:
    """The codec of a loadable IR type.

    Dispatches on the type's class and width rather than on ``ty``
    itself: ``IRType.__eq__``/``__hash__`` read ``__dict__``, which
    would cost more than the access the codec exists to speed up.
    """
    if isinstance(ty, IntType):
        return _INT_CODECS[ty.bits]
    if isinstance(ty, FloatType):
        return _F64_CODEC
    if isinstance(ty, PointerType):
        return _PTR_CODEC
    raise InterpError(f"no memory access of type {ty}")


@dataclass
class MemoryRegion:
    """One mapped range [start, start+len(data)).

    ``data`` is never replaced or resized while the region is mapped:
    the address space caches it by reference.
    """

    start: int
    data: bytearray
    label: str = ""

    @property
    def end(self) -> int:
        return self.start + len(self.data)

    def contains(self, addr: int, size: int = 1) -> bool:
        return self.start <= addr and addr + size <= self.end


#: The hot-region cache's empty state: no access (size >= 1) fits in it.
_NO_REGION: Tuple[int, int, bytearray] = (0, 0, bytearray())


class AddressSpace:
    """Sorted, non-overlapping memory regions with typed accessors."""

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._regions: List[MemoryRegion] = []
        #: ``(start, end, data)`` of the region the last typed access
        #: used, and of the one used before it; an entry is cleared when
        #: its region is unmapped.
        self._hot: Tuple[int, int, bytearray] = _NO_REGION
        self._prev: Tuple[int, int, bytearray] = _NO_REGION

    # -- mapping --------------------------------------------------------

    def map_region(self, start: int, size: int, label: str = "") -> MemoryRegion:
        """Map ``size`` zeroed bytes at ``start``; rejects overlaps."""
        if size <= 0:
            raise InterpError("cannot map empty region")
        idx = bisect.bisect_right(self._starts, start)
        if idx > 0 and self._regions[idx - 1].end > start:
            raise InterpError(f"overlap mapping {start:#x} (+{size})")
        if idx < len(self._regions) and self._regions[idx].start < start + size:
            raise InterpError(f"overlap mapping {start:#x} (+{size})")
        region = MemoryRegion(start, bytearray(size), label)
        self._starts.insert(idx, start)
        self._regions.insert(idx, region)
        return region

    def unmap(self, start: int) -> None:
        """Unmap the region beginning exactly at ``start``."""
        idx = bisect.bisect_left(self._starts, start)
        if idx >= len(self._starts) or self._starts[idx] != start:
            raise InterpError(f"no region starts at {start:#x}")
        del self._starts[idx]
        del self._regions[idx]
        if self._hot[0] == start:
            self._hot = _NO_REGION
        if self._prev[0] == start:
            self._prev = _NO_REGION

    def region_for(self, addr: int, size: int = 1) -> MemoryRegion:
        idx = bisect.bisect_right(self._starts, addr) - 1
        if idx >= 0:
            region = self._regions[idx]
            if region.contains(addr, size):
                return region
        raise SegmentationFault(
            f"access to unmapped address {addr:#x} (size {size})"
        )

    def is_mapped(self, addr: int, size: int = 1) -> bool:
        try:
            self.region_for(addr, size)
            return True
        except SegmentationFault:
            return False

    def regions(self) -> List[MemoryRegion]:
        return list(self._regions)

    # -- raw bytes --------------------------------------------------------

    def read_bytes(self, addr: int, size: int) -> bytes:
        region = self.region_for(addr, size)
        off = addr - region.start
        return bytes(region.data[off : off + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        region = self.region_for(addr, len(data))
        off = addr - region.start
        region.data[off : off + len(data)] = data

    # -- typed accessors --------------------------------------------------

    def _make_hot(self, addr: int, size: int) -> Tuple[int, int, bytearray]:
        """Cache miss: find the region (or fault) and make it the first
        entry; the old first entry becomes the second."""
        region = self.region_for(addr, size)
        self._prev = self._hot
        hot = self._hot = (region.start, region.end, region.data)
        return hot

    def load(self, addr: int, codec: Codec):
        """Load one value of ``codec``'s type from ``addr``."""
        start, end, data = self._hot
        if not (start <= addr and addr + codec[0] <= end):
            prev = self._prev
            start, end, data = prev
            if start <= addr and addr + codec[0] <= end:
                self._prev = self._hot
                self._hot = prev
            else:
                start, end, data = self._make_hot(addr, codec[0])
        return codec[1](data, addr - start)[0]

    def store(self, addr: int, codec: Codec, value) -> None:
        """Store ``value`` as ``codec``'s type at ``addr``.

        The value is converted before the address is checked, so an
        unrepresentable value raises even at an unmapped address.
        """
        mask = codec[3]
        value = int(value) & mask if mask else codec[4](value)
        start, end, data = self._hot
        if not (start <= addr and addr + codec[0] <= end):
            prev = self._prev
            start, end, data = prev
            if start <= addr and addr + codec[0] <= end:
                self._prev = self._hot
                self._hot = prev
            else:
                start, end, data = self._make_hot(addr, codec[0])
        codec[2](data, addr - start, value)

    def read_value(self, addr: int, ty: IRType):
        return self.load(addr, codec_for(ty))

    def write_value(self, addr: int, ty: IRType, value) -> None:
        self.store(addr, codec_for(ty), value)
