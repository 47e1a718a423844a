"""Streaming histograms with percentile queries (HdrHistogram-lite).

The trace layer needs latency/size distributions (p50/p95/p99 fetch
latency, bytes-per-fetch) without storing one float per sample — a
traced STREAM run fetches hundreds of thousands of objects.  The
classic answer is a log-bucketed histogram: exact counts for small
values, then power-of-two ranges split into ``2**sub_bits`` linear
sub-buckets, giving a bounded relative error of ``2**-sub_bits`` with
O(1) record cost and O(buckets) memory.

Histograms merge (counter addition — associative and commutative) and
round-trip losslessly through ``to_dict``/``from_dict``, which is what
lets per-runtime traces be folded into one report.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.errors import TraceError


class StreamingHistogram:
    """Log2-bucketed histogram over non-negative values."""

    __slots__ = ("sub_bits", "_base", "buckets", "count", "total", "min", "max")

    def __init__(self, sub_bits: int = 4) -> None:
        if not 1 <= sub_bits <= 12:
            raise TraceError(f"sub_bits must be in [1, 12], got {sub_bits}")
        self.sub_bits = sub_bits
        self._base = 1 << sub_bits
        #: Sparse bucket index -> sample count.
        self.buckets: Dict[int, int] = {}
        self.count = 0
        #: Exact running sum of the raw (unquantized) values.
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    # -- indexing ---------------------------------------------------------

    def _representative(self, idx: int) -> float:
        """Midpoint of the bucket's value range (inverse of the index
        :meth:`record` computes)."""
        if idx < self._base:
            return float(idx)
        shift = idx // self._base - 1
        sub = idx - shift * self._base
        lo = sub << shift
        return float(lo + ((1 << shift) >> 1))

    # -- recording --------------------------------------------------------

    def record(self, value: float, count: int = 1) -> None:
        """Record ``count`` samples of ``value`` (clamped at zero)."""
        if count <= 0:
            return
        v = float(value)
        if v < 0.0:
            v = 0.0
        # Bucket index of the quantized value n (monotone in n): exact
        # below 2**sub_bits, then 2**sub_bits linear sub-buckets per
        # power of two.
        n = round(v)
        base = self._base
        if n < base:
            idx = n
        else:
            shift = n.bit_length() - (self.sub_bits + 1)
            idx = shift * base + (n >> shift)  # n >> shift is in [base, 2*base)
        buckets = self.buckets
        buckets[idx] = buckets.get(idx, 0) + count
        self.count += count
        self.total += v * count
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    # -- queries -----------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` in [0, 100]; 0.0 when empty.

        Monotone in ``p`` by construction: the cumulative target rank is
        monotone and buckets are walked in value order.
        """
        if not 0.0 <= p <= 100.0:
            raise TraceError(f"percentile {p} outside [0, 100]")
        if self.count == 0:
            return 0.0
        target = max(1, -(-int(p * self.count) // 100))  # ceil(p/100 * count)
        cumulative = 0
        for idx in sorted(self.buckets):
            cumulative += self.buckets[idx]
            if cumulative >= target:
                return self._representative(idx)
        return self._representative(max(self.buckets))  # pragma: no cover

    def percentiles(self, ps: Iterable[float] = (50.0, 95.0, 99.0)) -> Dict[str, float]:
        """The standard summary block: ``{"p50": ..., "p95": ..., ...}``."""
        return {f"p{g:g}": self.percentile(g) for g in ps}

    # -- merge / serialization ------------------------------------------------

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold ``other`` into this histogram (counter addition)."""
        if other.sub_bits != self.sub_bits:
            raise TraceError(
                f"cannot merge histograms with sub_bits {self.sub_bits} != "
                f"{other.sub_bits}"
            )
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-safe form (lossless round trip via ``from_dict``)."""
        return {
            "sub_bits": self.sub_bits,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(i): self.buckets[i] for i in sorted(self.buckets)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StreamingHistogram":
        hist = cls(sub_bits=int(data["sub_bits"]))  # type: ignore[arg-type]
        hist.count = int(data["count"])  # type: ignore[arg-type]
        hist.total = float(data["total"])  # type: ignore[arg-type]
        hist.min = float("inf") if data["min"] is None else float(data["min"])  # type: ignore[arg-type]
        hist.max = float("-inf") if data["max"] is None else float(data["max"])  # type: ignore[arg-type]
        hist.buckets = {int(k): int(v) for k, v in data["buckets"].items()}  # type: ignore[union-attr]
        return hist

    def items(self) -> List[Tuple[float, int]]:
        """(representative value, count) pairs in value order."""
        return [(self._representative(i), self.buckets[i]) for i in sorted(self.buckets)]

    def __repr__(self) -> str:  # pragma: no cover - debug only
        return (
            f"StreamingHistogram(count={self.count}, mean={self.mean:.1f}, "
            f"p50={self.percentile(50):.1f}, p99={self.percentile(99):.1f})"
        )
