"""Non-canonical TrackFM pointers.

§3.1: "The 60th bit of the address is used to flag a pointer as a
TrackFM pointer" — on x86_64 any address with bits above 47 set is
non-canonical, so hardware faults if such a pointer reaches an unguarded
load/store, and TrackFM's custody check (``shr $0x3c, %rax``) can
recognize its own pointers in one instruction.  TrackFM-managed
allocations live at offsets from 2^60 (§3.2), and the object id of a
pointer is its heap offset divided by the object size (a shift for
powers of two).
"""

from __future__ import annotations

from repro.errors import PointerError
from repro.units import is_power_of_two, log2_exact

#: The custody check's shift: bits 60..63 must be non-zero for a
#: TrackFM pointer (Fig. 4b line 0 shifts right by 0x3c = 60).
TFM_TAG_SHIFT = 60

#: Base of the non-canonical address range (§3.2: "starting at 2^60").
TFM_BASE = 1 << TFM_TAG_SHIFT

#: Largest representable heap offset under the tag.
MAX_HEAP_OFFSET = TFM_BASE - 1

#: Addresses are 64-bit: the custody check looks at bits 60..63 only.
U64_MASK = (1 << 64) - 1

#: Bits 60..63.  ``addr & TFM_TAG_MASK`` is the custody check in one
#: operation: it is non-zero exactly when ``(addr & U64_MASK) >>
#: TFM_TAG_SHIFT`` is, for every int, negative and >= 2**64 included.
TFM_TAG_MASK = 0xF << TFM_TAG_SHIFT


def is_tfm_pointer(addr: int) -> bool:
    """The custody check: are any of bits 60..63 set?"""
    return (addr & TFM_TAG_MASK) != 0


def encode_tfm_pointer(heap_offset: int) -> int:
    """Tag a heap offset into the non-canonical TrackFM range."""
    if not 0 <= heap_offset <= MAX_HEAP_OFFSET:
        raise PointerError(f"heap offset {heap_offset:#x} out of TrackFM range")
    return TFM_BASE | heap_offset

def decode_tfm_pointer(addr: int) -> int:
    """Recover the heap offset from a TrackFM pointer."""
    if not is_tfm_pointer(addr):
        raise PointerError(f"{addr:#x} is not a TrackFM pointer")
    return addr & MAX_HEAP_OFFSET


def object_id_of(addr: int, object_size: int) -> int:
    """Object id of a TrackFM pointer: offset >> log2(object size).

    §3.2: "The object corresponding to a TrackFM pointer can be derived
    by dividing the TrackFM pointer by the object size (a right shift
    for powers of two)."
    """
    if not is_power_of_two(object_size):
        raise PointerError("object size must be a power of two")
    return decode_tfm_pointer(addr) >> log2_exact(object_size)
