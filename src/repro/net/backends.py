"""Remote-memory backends: the far node seen through a link.

Calibration targets (Table 2, §4.1):

* Fastswap's one-sided RDMA fetch of a 4 KB page costs ~34K cycles end
  to end, of which ~1.3K is kernel fault handling — so the RDMA
  backend's blocking 4 KB fetch is tuned to ~32.7K cycles.
* TrackFM's slow-path guard on a remote object costs ~35K cycles end to
  end over AIFM's TCP (Shenango) backend, of which ~0.45K is the guard —
  so the TCP backend's blocking 4 KB fetch is tuned to ~34.5K cycles.

The TCP backend has a higher per-message software cost but supports deep
pipelining (Shenango's user-level tasking), which is what prefetching
exploits; one-sided RDMA has lower latency but Fastswap issues it from
the page-fault path, one page at a time (plus kernel readahead, modelled
in the Fastswap runtime itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import FarMemoryUnavailableError, TransientNetworkError
from repro.integrity.checker import attach_integrity
from repro.integrity.config import default_integrity_config
from repro.net.faults import CircuitBreaker, RetryPolicy, default_fault_plan
from repro.net.link import (
    BYTES_PER_CYCLE_25G,
    NetworkLink,
    TransferDirection,
)

# Enum members bound once: a class lookup is slow (docs/performance.md).
_FETCH = TransferDirection.FETCH
_EVICT = TransferDirection.EVICT


@dataclass
class RemoteBackend:
    """A far node reachable over a link; counts fetches and evictions.

    Without a :class:`RetryPolicy` or :class:`CircuitBreaker` the
    backend is a thin pass-through to the link.  With either installed,
    ``fetch``/``evict`` absorb :class:`TransientNetworkError` from a
    fault-injected link: each loss is charged a detection timeout plus
    backoff, retried up to the policy's limits, and fed to the breaker;
    exhaustion or an open breaker raises
    :class:`FarMemoryUnavailableError`.

    While there is no breaker or it is ``quiet`` (closed, no failure on
    record), a message goes straight to the link, exactly as on a bare
    backend: a quiet breaker's ``allow`` and ``record_success`` would
    change nothing.  The retry loop (:meth:`_resilient_cost`) starts at
    the message's first loss, or before the first attempt while the
    breaker is not quiet.
    """

    link: NetworkLink
    name: str = "remote"
    retry_policy: Optional[RetryPolicy] = None
    breaker: Optional[CircuitBreaker] = None
    #: Optional :class:`repro.sim.metrics.Metrics` that retry/timeout/
    #: drop counters flow into (wired by the owning pool/runtime).
    metrics: Optional[object] = None
    #: Optional tracer for ``fault``/``retry`` events (wired alongside
    #: the owning runtime's tracer).
    tracer: Optional[object] = None
    #: Optional :class:`repro.integrity.IntegrityChecker` — when set,
    #: fetches that name an ``obj_id`` are checksum-verified (and
    #: repaired / quarantined) before the data is trusted.
    integrity: Optional[object] = None

    @property
    def resilient(self) -> bool:
        return self.retry_policy is not None or self.breaker is not None

    def fetch(
        self, size_bytes: int, depth: int = 1, obj_id: Optional[int] = None
    ) -> float:
        """Pull ``size_bytes`` from the remote node; returns cycles.

        With an integrity checker attached and an ``obj_id`` named, the
        payload is verified after the transfer (detect → bounded repair
        → quarantine); without either, the extra cost is one ``is
        None`` check.
        """
        breaker = self.breaker
        if breaker is None or breaker.quiet:
            try:
                cost = self.link.transfer(size_bytes, _FETCH, depth)
            except TransientNetworkError as loss:
                cost = self._resilient_cost(loss, self.link.transfer, size_bytes, _FETCH, depth)
        else:
            cost = self._resilient_cost(None, self.link.transfer, size_bytes, _FETCH, depth)
        if self.integrity is not None and obj_id is not None:
            cost += self.verify_payload(obj_id, size_bytes, depth)
        return cost

    def evict(self, size_bytes: int, depth: int = 1) -> float:
        """Push ``size_bytes`` back to the remote node; returns cycles."""
        breaker = self.breaker
        if breaker is None or breaker.quiet:
            try:
                return self.link.transfer(size_bytes, _EVICT, depth)
            except TransientNetworkError as loss:
                return self._resilient_cost(loss, self.link.transfer, size_bytes, _EVICT, depth)
        return self._resilient_cost(None, self.link.transfer, size_bytes, _EVICT, depth)

    def admit(self, size_bytes: int) -> float:
        """Resilience penalty for one transfer whose base cost lives elsewhere.

        The Fastswap runtime charges its *calibrated* end-to-end fault
        cost directly (and bumps link stats by hand), so it must not pay
        the link's transfer cost a second time.  ``admit`` rolls the
        fault schedule for one message and returns only the extra cycles
        faults and retries add on top — zero on a healthy link.
        """
        faults = self.link.faults
        if faults is None:
            return 0.0
        breaker = self.breaker
        if breaker is None or breaker.quiet:
            try:
                return faults.roll(size_bytes)
            except TransientNetworkError as loss:
                return self._resilient_cost(loss, faults.roll, size_bytes)
        return self._resilient_cost(None, faults.roll, size_bytes)

    # -- integrity ---------------------------------------------------------

    def verify_payload(self, obj_id: int, size_bytes: int, depth: int = 1) -> float:
        """Checksum-verify one already-fetched payload; returns cycles.

        The explicit entry point for paths that account their transfer
        cost elsewhere (Fastswap's calibrated fault path, pool
        prefetch).  Raises :class:`~repro.errors.DataIntegrityError`
        when the object ends up quarantined.
        """
        integrity = self.integrity
        if integrity is None:
            return 0.0
        return integrity.verify_fetch(
            obj_id,
            size_bytes,
            refetch=lambda: self.fetch(size_bytes, depth),
            rewrite=lambda: self.evict(size_bytes, depth),
        )

    def payload_rewrite(self, size_bytes: int, depth: int = 1) -> float:
        """Re-drive one writeback payload (journal replay); returns cycles."""
        return self.evict(size_bytes, depth)

    def set_tracer(self, tracer) -> None:
        """Point the backend (and its integrity checker) at ``tracer``."""
        self.tracer = tracer
        if self.integrity is not None:
            self.integrity.tracer = tracer

    # -- retry / breaker core ---------------------------------------------

    def _resilient_cost(
        self, loss: Optional[TransientNetworkError], send: Callable[..., float], *args
    ) -> float:
        """Send ``send(*args)`` under the retry policy and breaker.

        ``loss`` is the first attempt's :class:`TransientNetworkError`
        when a quiet breaker (or none) already let it go straight to the
        link (the attempt is booked here, as if this loop had made it),
        or None to start with a first attempt.  Returns the successful
        attempt's cost plus all accumulated penalty cycles (timeouts +
        backoffs).  Raises ``FarMemoryUnavailableError`` when the
        breaker rejects the request or retries are exhausted; with
        neither a policy nor a breaker, nothing absorbs the loss and it
        propagates as it is.
        """
        policy = self.retry_policy
        breaker = self.breaker
        if policy is None and breaker is None:
            raise loss
        penalty = 0.0
        attempt = 0 if loss is None else 1
        while True:
            if loss is None:
                if breaker is not None and not breaker.allow():
                    raise FarMemoryUnavailableError(
                        f"{self.name}: circuit breaker open "
                        f"({breaker.consecutive_failures} consecutive failures)"
                    )
                attempt += 1
                try:
                    cost = send(*args)
                except TransientNetworkError as err:
                    loss = err
                else:
                    if breaker is not None:
                        breaker.record_success()
                    return cost + penalty
            if breaker is not None:
                breaker.record_failure()
            timeout = policy.timeout_cycles if policy is not None else 0.0
            penalty += timeout
            self._count("drops")
            self._count("timeouts")
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.fault(loss.kind, loss.message_index, self._now())
            if policy is None or not policy.should_retry(attempt):
                raise FarMemoryUnavailableError(
                    f"{self.name}: gave up after {attempt} attempt(s) "
                    f"(last loss: {loss})"
                ) from loss
            backoff = policy.backoff_cycles(attempt)
            policy.consume_retry()
            penalty += backoff
            self._count("retries")
            if tracer is not None and tracer.enabled:
                tracer.retry(attempt, backoff, self._now())
            loss = None

    def _count(self, counter: str, n: int = 1) -> None:
        metrics = self.metrics
        if metrics is not None:
            setattr(metrics, counter, getattr(metrics, counter) + n)

    def _now(self) -> float:
        """Timestamp for fault/retry trace events (simulated cycles)."""
        metrics = self.metrics
        if metrics is not None:
            return float(metrics.cycles)
        return self.link.stats.busy_cycles

    def fetch_cost(self, size_bytes: int, depth: int = 1) -> float:
        """Cost of a fetch without accounting it (planning queries)."""
        if depth <= 1:
            return self.link.transfer_cycles(size_bytes)
        return self.link.pipelined_cycles(size_bytes, depth)

    @property
    def bytes_fetched(self) -> int:
        return self.link.stats.bytes_fetched

    @property
    def bytes_evicted(self) -> int:
        return self.link.stats.bytes_evicted


class TcpBackend(RemoteBackend):
    """Shenango-style TCP backend (AIFM / TrackFM)."""


class RdmaBackend(RemoteBackend):
    """One-sided RDMA backend (Fastswap)."""


#: Wire time of a 4 KB page at 25 Gb/s is ~3.1K cycles; the remaining
#: budget is split between propagation latency and per-message software
#: cost for each backend.
_PAGE_WIRE = 4096 / BYTES_PER_CYCLE_25G

#: TCP: 4 KB blocking fetch ~= 34.5K cycles (35K minus the ~450-cycle
#: guard).  Software per-message cost dominates (protocol + copies).
TCP_LATENCY_CYCLES = 24_000.0
TCP_PER_MESSAGE_CYCLES = 34_500.0 - TCP_LATENCY_CYCLES - _PAGE_WIRE

#: RDMA: 4 KB blocking fetch ~= 32.7K cycles (34K minus ~1.3K fault
#: handling).  NIC doorbell + DMA; lower per-message software cost.
RDMA_LATENCY_CYCLES = 28_000.0
RDMA_PER_MESSAGE_CYCLES = 32_700.0 - RDMA_LATENCY_CYCLES - _PAGE_WIRE


def _apply_default_faults(backend: RemoteBackend) -> RemoteBackend:
    """Arm ``backend`` with the process-default fault plan, if any.

    Each backend gets a *fresh* schedule, policy and breaker (never
    shared mutable state), so two backends built under the same plan
    see identical fault sequences — the determinism the chaos suite
    pins.  The retry policy's jitter seed follows the plan seed.
    """
    plan = default_fault_plan()
    if plan is not None:
        backend.link.faults = plan.schedule()
        backend.retry_policy = RetryPolicy(seed=plan.seed)
        backend.breaker = CircuitBreaker()
    config = default_integrity_config()
    if config is not None and config.enabled:
        attach_integrity(backend, config)
    return backend


def make_tcp_backend() -> TcpBackend:
    """A TCP backend calibrated to the paper's TrackFM remote costs."""
    link = NetworkLink(
        latency_cycles=TCP_LATENCY_CYCLES,
        bytes_per_cycle=BYTES_PER_CYCLE_25G,
        per_message_cycles=TCP_PER_MESSAGE_CYCLES,
    )
    return _apply_default_faults(TcpBackend(link, name="tcp"))


def make_rdma_backend() -> RdmaBackend:
    """An RDMA backend calibrated to the paper's Fastswap remote costs."""
    link = NetworkLink(
        latency_cycles=RDMA_LATENCY_CYCLES,
        bytes_per_cycle=BYTES_PER_CYCLE_25G,
        per_message_cycles=RDMA_PER_MESSAGE_CYCLES,
    )
    return _apply_default_faults(RdmaBackend(link, name="rdma"))


#: Seed salt mixed into a shard's fault-plan seed so every shard of a
#: cluster replays an *independent* (but still deterministic) schedule.
SHARD_SEED_SALT = 0x5EED_5A17


def make_shard_backend(kind: str, shard_id: int, plan=None) -> RemoteBackend:
    """A far node for one shard: its own link, schedule, policy, breaker.

    Shards are independent fault domains: nothing mutable is shared
    between two shards' backends, and when a ``plan`` is given each
    shard rolls it under a seed derived from ``(plan.seed, shard_id)``
    — so shard 3 of an 8-shard cluster sees the same fault sequence on
    every run, regardless of what the other shards do.

    Unlike the process-default factories, the retry policy and breaker
    are *always* armed (even with no plan): a serving cluster must be
    able to lose a shard mid-run, and the loss path runs through the
    retry/breaker machinery.
    """
    if kind == "tcp":
        backend: RemoteBackend = TcpBackend(
            NetworkLink(
                latency_cycles=TCP_LATENCY_CYCLES,
                bytes_per_cycle=BYTES_PER_CYCLE_25G,
                per_message_cycles=TCP_PER_MESSAGE_CYCLES,
            ),
            name=f"tcp-shard{shard_id}",
        )
    elif kind == "rdma":
        backend = RdmaBackend(
            NetworkLink(
                latency_cycles=RDMA_LATENCY_CYCLES,
                bytes_per_cycle=BYTES_PER_CYCLE_25G,
                per_message_cycles=RDMA_PER_MESSAGE_CYCLES,
            ),
            name=f"rdma-shard{shard_id}",
        )
    else:
        raise ValueError(f"unknown backend kind {kind!r} (want 'tcp' or 'rdma')")
    seed = shard_id ^ SHARD_SEED_SALT
    if plan is not None and not plan.is_noop:
        shard_plan = plan.reseeded(plan.seed ^ seed)
        backend.link.faults = shard_plan.schedule()
        seed = shard_plan.seed
    backend.retry_policy = RetryPolicy(seed=seed)
    backend.breaker = CircuitBreaker()
    return backend
