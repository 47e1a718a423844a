"""Zipf-distributed key generation.

The paper's hashmap and memcached experiments sample keys from a Zipf
distribution ("skew 1.02", "skew parameter between 1.01 and 1.04", up
to 1.3).  We generate keys by inverse-CDF sampling over the exact
normalized distribution — deterministic under a seed, vectorized with
numpy.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError


class ZipfGenerator:
    """Samples ranks 0..n-1 with P(rank i) proportional to 1/(i+1)^skew."""

    def __init__(self, n_keys: int, skew: float, seed: int = 12345) -> None:
        if n_keys <= 0:
            raise WorkloadError("n_keys must be positive")
        if skew <= 0:
            raise WorkloadError("zipf skew must be positive")
        self.n_keys = n_keys
        self.skew = skew
        self._rng = np.random.default_rng(seed)
        ranks = np.arange(1, n_keys + 1, dtype=np.float64)
        weights = ranks ** (-skew)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]

    def sample(self, count: int) -> np.ndarray:
        """``count`` keys (int64 ranks, 0-based), most popular = 0."""
        if count <= 0:
            raise WorkloadError("sample count must be positive")
        u = self._rng.random(count)
        return np.searchsorted(self._cdf, u, side="left").astype(np.int64)

    def hot_fraction(self, top_k: int) -> float:
        """Probability mass of the ``top_k`` most popular keys."""
        if top_k <= 0:
            return 0.0
        k = min(top_k, self.n_keys)
        return float(self._cdf[k - 1])

    def expected_hit_rate(self, cache_keys: int) -> float:
        """Hit rate of an ideal cache holding the hottest ``cache_keys``.

        Used by closed-form sweeps: under LRU with zipf traffic the
        cache converges to roughly the most popular keys.
        """
        return self.hot_fraction(cache_keys)
