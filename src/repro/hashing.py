"""The splitmix64 mixer behind every seeded decision in the reproduction.

Fault schedules, ring placement, replica and object checksums and the
synthetic workloads all derive their deterministic "randomness" from
it.  This module imports nothing from the package, so any module can
use it without an import cycle.
"""

from __future__ import annotations


def splitmix64(x: int) -> int:
    """One splitmix64 round: a bijective mix of a 64-bit integer.

    The mask is a literal (a constant, not a global load), and the last
    xor-shift needs none: ``x`` is already below 2**64 there.
    """
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)
