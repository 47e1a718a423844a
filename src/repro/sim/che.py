"""Che's approximation for LRU hit rates.

Given per-granule access probabilities (the "heat" vectors the hashmap
and memcached workloads build), an LRU cache of capacity ``C`` admits a
*characteristic time* ``T`` such that

    sum_i (1 - exp(-m_i * T)) = C

and granule ``i``'s hit rate is ``1 - exp(-m_i * T)`` (Che, Tung &
Wang, 2002).  This models what a real LRU does under a heavy-tailed
request stream far better than an ideal "hottest-K resident" cache: the
zipf tail continuously churns through the cache, evicting warm entries,
so aggregate hit rates are substantially lower — which is exactly the
refetch traffic behind the paper's I/O-amplification numbers (Fig. 13:
TrackFM still amplifies the working set 2.3x).
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError


def characteristic_time(masses: np.ndarray, capacity: int) -> float:
    """Solve Che's fixed point for the characteristic time T."""
    m = np.asarray(masses, dtype=np.float64)
    if m.ndim != 1 or len(m) == 0:
        raise WorkloadError("masses must be a non-empty 1-D array")
    if capacity <= 0:
        return 0.0
    if capacity >= len(m):
        return float("inf")
    total = m.sum()
    if total <= 0:
        raise WorkloadError("masses must have positive total")
    neg = -(m / total)
    buf = np.empty_like(neg)

    def filled(t: float) -> float:
        # sum(-expm1(-m * t)); negating the sum, not each term, is exact.
        np.multiply(neg, t, out=buf)
        np.expm1(buf, out=buf)
        return -float(buf.sum())

    lo, hi = 0.0, 1.0
    while filled(hi) < capacity:
        hi *= 2.0
        if hi > 1e18:  # pragma: no cover - degenerate distributions
            return hi
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if filled(mid) < capacity:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lru_hit_rate(masses: np.ndarray, capacity: int) -> float:
    """Aggregate LRU hit rate of a request stream over its granules.

    ``masses[i]`` is the probability a request touches granule ``i``
    (they are normalized internally); ``capacity`` is how many granules
    fit in the cache.
    """
    m = np.asarray(masses, dtype=np.float64)
    if capacity <= 0 or len(m) == 0:
        return 0.0
    if capacity >= len(m):
        return 1.0
    total = m.sum()
    if total <= 0:
        return 0.0
    m = m / total
    t = characteristic_time(m, capacity)
    if t == float("inf"):
        return 1.0
    # The sum of per-granule rates can round a hair above 1.
    return min(1.0, float(np.sum(m * -np.expm1(-m * t))))


def per_granule_hit_rates(masses: np.ndarray, capacity: int) -> np.ndarray:
    """Per-granule hit probabilities under the same approximation."""
    m = np.asarray(masses, dtype=np.float64)
    if capacity <= 0 or len(m) == 0:
        return np.zeros_like(m)
    if capacity >= len(m):
        return np.ones_like(m)
    total = m.sum()
    if total <= 0:
        return np.zeros_like(m)
    norm = m / total
    t = characteristic_time(norm, capacity)
    if t == float("inf"):
        return np.ones_like(m)
    return -np.expm1(-norm * t)
