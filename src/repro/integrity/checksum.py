"""Seeded checksum codec for far-memory payload verification.

Two kinds of tags live here:

* :meth:`ChecksumCodec.checksum` — a seeded CRC-32 over real bytes.
  CRC-32 detects *every* single-bit flip regardless of the seed (the
  generator polynomial has more than one term), which is the property
  the hypothesis suite pins; the seed keys the tag so checksums from
  different deployments never validate against each other.
* :meth:`ChecksumCodec.object_checksum` — a 64-bit tag for a simulated
  object at a given writeback *version*.  The simulator does not move
  real payload bytes over the wire, so remote-copy state is modelled as
  ``(obj_id, version)`` and the tag is a splitmix64 hash of that pair;
  64 bits keeps accidental tag collisions out of the test universe.
"""

from __future__ import annotations

import zlib

from repro.hashing import splitmix64

_MASK64 = (1 << 64) - 1


def flip_bit(payload: bytes, bit: int) -> bytes:
    """``payload`` with bit ``bit`` (0 = LSB of byte 0) flipped."""
    if not payload:
        raise ValueError("cannot flip a bit in an empty payload")
    bit %= len(payload) * 8
    byte_index, bit_index = divmod(bit, 8)
    out = bytearray(payload)
    out[byte_index] ^= 1 << bit_index
    return bytes(out)


class ChecksumCodec:
    """Seeded checksums for payload bytes and simulated object versions."""

    __slots__ = ("seed", "_crc_init")

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed & _MASK64
        # CRC of the seed's own bytes keys the running CRC register.
        self._crc_init = zlib.crc32(self.seed.to_bytes(8, "little"))

    def checksum(self, payload: bytes) -> int:
        """Seeded CRC-32 of ``payload`` (32-bit unsigned)."""
        return zlib.crc32(payload, self._crc_init) & 0xFFFFFFFF

    def verify(self, payload: bytes, check: int) -> bool:
        return self.checksum(payload) == check

    def object_checksum(self, obj_id: int, version: int) -> int:
        """64-bit tag of simulated object state ``(obj_id, version)``."""
        return splitmix64(self.seed ^ splitmix64(((obj_id & _MASK64) << 20) ^ version))
