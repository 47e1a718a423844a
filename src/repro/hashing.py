"""The splitmix64 mixer behind every seeded decision in the reproduction.

Fault schedules, ring placement, replica and object checksums and the
synthetic workloads all derive their deterministic "randomness" from
it.  This module imports nothing from the package, so any module can
use it without an import cycle.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 round: a bijective mix of a 64-bit integer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64
