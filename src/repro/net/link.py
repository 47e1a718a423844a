"""Latency/bandwidth/overhead link model with byte accounting."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import RuntimeConfigError

#: CPU clock of the paper's testbed (Xeon E5-2640v4), used to convert
#: link bandwidth into bytes per cycle: 25 Gb/s at 2.4 GHz.
CPU_GHZ = 2.4
LINK_GBPS = 25.0

#: Bytes the wire can move per CPU cycle at those rates (~1.30).
BYTES_PER_CYCLE_25G = (LINK_GBPS * 1e9 / 8.0) / (CPU_GHZ * 1e9)


class TransferDirection(enum.Enum):
    """Fetch pulls data to the local node; evict pushes it back."""

    FETCH = "fetch"
    EVICT = "evict"


# Enum members bound once: a class lookup is slow (docs/performance.md).
_FETCH = TransferDirection.FETCH


@dataclass
class LinkStats:
    """Per-link accounting."""

    messages: int = 0
    bytes_fetched: int = 0
    bytes_evicted: int = 0
    busy_cycles: float = 0.0

    @property
    def total_bytes(self) -> int:
        return self.bytes_fetched + self.bytes_evicted

    def reset(self) -> None:
        self.messages = 0
        self.bytes_fetched = 0
        self.bytes_evicted = 0
        self.busy_cycles = 0.0


@dataclass
class NetworkLink:
    """One point-to-point link.

    ``transfer_cycles(size)`` is the blocking cost of one message:
    ``latency + per_message_overhead + size / bytes_per_cycle``.
    Pipelined transfers (prefetching, concurrent fetches) amortize the
    latency term across ``depth`` outstanding requests —
    ``pipelined_cycles`` models that the way AIFM's runtime does: the
    wire time is paid in full, the round-trip only once per ``depth``.
    """

    latency_cycles: float
    bytes_per_cycle: float = BYTES_PER_CYCLE_25G
    per_message_cycles: float = 300.0
    stats: LinkStats = field(default_factory=LinkStats)
    #: Optional :class:`repro.net.faults.FaultSchedule`.  ``None`` (the
    #: default) keeps ``transfer`` on the healthy path at the cost of a
    #: single attribute check — same contract as the tracer hot path.
    faults: Optional[object] = None

    def __post_init__(self) -> None:
        if self.latency_cycles < 0 or self.per_message_cycles < 0:
            raise RuntimeConfigError("link costs must be >= 0")
        if self.bytes_per_cycle <= 0:
            raise RuntimeConfigError("bandwidth must be positive")

    def wire_cycles(self, size_bytes: int) -> float:
        """Pure serialization time of ``size_bytes`` on the wire."""
        return size_bytes / self.bytes_per_cycle

    def transfer_cycles(self, size_bytes: int) -> float:
        """Blocking (unpipelined) cost of one message."""
        return self.latency_cycles + self.per_message_cycles + self.wire_cycles(size_bytes)

    def pipelined_cycles(self, size_bytes: int, depth: int) -> float:
        """Per-message cost with ``depth`` overlapping requests."""
        if depth < 1:
            raise RuntimeConfigError("pipeline depth must be >= 1")
        if depth == 1:
            # A depth-1 "pipeline" is just a blocking message; the
            # overlap formula below would double-count the per-message
            # cost (once inside the round-trip, once as issue overhead).
            return self.transfer_cycles(size_bytes)
        overlap = (self.latency_cycles + self.per_message_cycles) / depth
        return max(self.wire_cycles(size_bytes), overlap) + self.per_message_cycles / depth

    # -- accounted transfers ----------------------------------------------

    def transfer(
        self,
        size_bytes: int,
        direction: TransferDirection,
        depth: int = 1,
    ) -> float:
        """Account one message and return its cycle cost.

        With a fault schedule installed, a lost message raises
        :class:`~repro.errors.TransientNetworkError` *before* any stats
        accounting — a dropped message moved no bytes and its cost is
        charged by the retry policy (timeout + backoff), not the link.
        """
        if size_bytes < 0:
            raise RuntimeConfigError("cannot transfer a negative size")
        if depth < 1:
            raise RuntimeConfigError("pipeline depth must be >= 1")
        faults = self.faults
        extra = faults.roll(size_bytes) if faults is not None else 0.0
        # transfer_cycles/pipelined_cycles + extra: same float operations, one frame.
        wire = size_bytes / self.bytes_per_cycle
        if depth == 1:
            cost = self.latency_cycles + self.per_message_cycles + wire + extra
        else:
            overlap = (self.latency_cycles + self.per_message_cycles) / depth
            cost = max(wire, overlap) + self.per_message_cycles / depth + extra
        self.stats.messages += 1
        if direction is _FETCH:
            self.stats.bytes_fetched += size_bytes
        else:
            self.stats.bytes_evicted += size_bytes
        self.stats.busy_cycles += cost
        return cost
