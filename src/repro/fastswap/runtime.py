"""The Fastswap runtime simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import (
    DataIntegrityError,
    FarMemoryUnavailableError,
    PointerError,
    RuntimeConfigError,
)
from repro.integrity import (
    IntegrityChecker,
    IntegrityConfig,
    RecoveryManager,
    RecoveryReport,
    attach_integrity,
)
from repro.machine.costs import AccessKind, CostTable, DEFAULT_COSTS
from repro.net.backends import RemoteBackend, make_rdma_backend
from repro.sim.metrics import Metrics
from repro.sim.residency import ResidencySet
from repro.trace.tracer import NULL_TRACER
from repro.units import BASE_PAGE, align_up, ceil_div, is_power_of_two, log2_exact

# Enum members bound once: a class lookup is slow (docs/performance.md).
_WRITE = AccessKind.WRITE


@dataclass
class FastswapConfig:
    """Sizing knobs for the kernel-swap baseline."""

    #: Bytes of local memory (the cgroup limit the paper sweeps).
    local_memory: int
    #: Total application heap (swap-backed working set).
    heap_size: int
    #: Architected page size — fixed by hardware, the point of Fig. 13.
    page_size: int = BASE_PAGE
    #: Kernel cycles of direct reclaim per evicted page under pressure
    #: (cgroup accounting + unmap + TLB shootdown).
    reclaim_cycles: float = 2_000.0
    #: Fraction of dirty-page writeback charged synchronously.
    writeback_sync_fraction: float = 0.25
    #: Reclaim victim selection: CLOCK second-chance (the Linux
    #: active/inactive approximation) vs strict LRU — the ablation
    #: engine's evacuation-policy knob flips this to LRU.
    use_clock: bool = True
    costs: CostTable = field(default_factory=lambda: DEFAULT_COSTS)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.page_size):
            raise RuntimeConfigError("page size must be a power of two")
        if self.local_memory < self.page_size:
            raise RuntimeConfigError("local memory smaller than one page")
        if self.heap_size < self.page_size:
            raise RuntimeConfigError("heap smaller than one page")
        if self.reclaim_cycles < 0:
            raise RuntimeConfigError("reclaim_cycles must be >= 0")
        if not 0.0 <= self.writeback_sync_fraction <= 1.0:
            raise RuntimeConfigError("writeback_sync_fraction must be in [0, 1]")

    @property
    def local_capacity_pages(self) -> int:
        return max(1, self.local_memory // self.page_size)

    @property
    def num_pages(self) -> int:
        return ceil_div(self.heap_size, self.page_size)


class FastswapRuntime:
    """Page-granularity far memory with kernel fault costs.

    Unmodified binaries run as-is: resident pages are reached through the
    hardware page table at zero software cost; only faults cost cycles.
    """

    def __init__(
        self,
        config: FastswapConfig,
        backend: Optional[RemoteBackend] = None,
        tracer=None,
    ) -> None:
        self.config = config
        self.backend = backend if backend is not None else make_rdma_backend()
        self.metrics = Metrics()
        if self.backend.metrics is None:
            self.backend.metrics = self.metrics
        integrity = self.backend.integrity
        if integrity is not None and integrity.metrics is None:
            integrity.metrics = self.metrics
        #: Trace sink (disabled by default: one attribute check per event site).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Degraded-mode hook, same contract as the object pool's:
        #: ``handler(page) -> stall cycles`` serves a major fault locally
        #: when the remote tier is unavailable.
        self.degraded_handler = None
        self.page_shift = log2_exact(config.page_size)
        # Linux reclaim approximates LRU with active/inactive lists;
        # CLOCK-style second chance is the closest simple model (strict
        # LRU reachable via config for the evacuation-policy ablation).
        self.residency = ResidencySet(
            config.local_capacity_pages, use_clock=config.use_clock
        )
        self._brk = 0

    def set_tracer(self, tracer) -> None:
        """Attach a tracer to this runtime and its backend."""
        self.tracer = tracer
        self.backend.set_tracer(tracer)

    @property
    def integrity(self) -> Optional[IntegrityChecker]:
        """The backend's integrity checker (None when verification is off)."""
        return self.backend.integrity

    def enable_integrity(
        self, config: Optional[IntegrityConfig] = None
    ) -> IntegrityChecker:
        """Checksum-verify every swapped-in page (detect → repair → quarantine).

        The per-page checksum tag lives in a simulated page-table
        sidecar (see :meth:`page_table_entry`); dirty-page writebacks
        start following the write-ahead journal.  Returns the checker.
        """
        checker = attach_integrity(self.backend, config)
        checker.metrics = self.metrics
        checker.tracer = self.tracer
        return checker

    def recover(self) -> RecoveryReport:
        """Replay/roll back the journal after an injected crash.

        Intent-only (torn) page writebacks are rolled back by
        reinstating the page resident + dirty; durable uncommitted ones
        are re-driven over the wire and committed.
        """
        checker = self.backend.integrity
        if checker is None:
            raise RuntimeConfigError(
                "runtime has no integrity checker; call enable_integrity() first"
            )
        manager = RecoveryManager(
            checker,
            self.backend,
            self.page_size,
            writeback_depth=1,  # kernel writeback: one page per wire op
            reinstate=self._reinstate_page,
            reconcile=None,  # residency is the page table; nothing aliases it
        )
        return manager.recover()

    def _reinstate_page(self, page: int) -> float:
        """Undo a rolled-back writeback: page resident + dirty again.

        Mirrors the object pool's recovery hook: cycles (reclaim +
        journaled victim writeback) are self-accounted into
        ``metrics.cycles``.
        """
        outcome = self.residency.access(page, write=True)
        cycles = 0.0
        for victim, dirty in outcome.evicted:
            cycles += self.config.reclaim_cycles
            self.metrics.evictions += 1
            if dirty:
                cycles += self._write_back_page(victim)
        self.metrics.cycles += cycles
        return cycles

    def _write_back_page(self, page: int) -> float:
        """Journaled writeback of one dirty page; returns its sync cycles.

        Books the page's bytes (``bytes_evacuated``, the link's
        ``bytes_evicted``) but not the cycles: the caller adds them.
        ``_touch_page``'s reclaim keeps an inline copy of this rule.
        """
        integrity = self.backend.integrity
        if integrity is not None:
            integrity.begin_writeback(page)
        link = self.backend.link
        wb = link.wire_cycles(self.page_size)
        self.metrics.bytes_evacuated += self.page_size
        link.stats.bytes_evicted += self.page_size
        if integrity is not None:
            integrity.finish_writeback(page)
        return wb * self.config.writeback_sync_fraction

    def page_table_entry(self, page: int) -> Tuple[bool, bool, Optional[int]]:
        """Simulated PTE view: ``(resident, dirty, checksum tag)``.

        The tag is the sidecar checksum the page's remote copy must
        verify against (None with integrity off) — the page-granular
        analogue of :class:`~repro.aifm.objectmeta.ObjectMeta.check`.
        """
        if page < 0 or page >= self.config.num_pages:
            raise PointerError(f"page {page} out of range [0, {self.config.num_pages})")
        resident = page in self.residency
        dirty = self.residency.is_dirty(page) if resident else False
        integrity = self.backend.integrity
        check = integrity.expected_check(page) if integrity is not None else None
        return resident, dirty, check

    def enable_degraded_mode(self, stall_cycles: float = 0.0, hook=None) -> None:
        """Serve major faults locally when far memory is unavailable."""
        if hook is not None:
            self.degraded_handler = hook
        else:
            self.degraded_handler = lambda _page: stall_cycles

    def remote_backends(self) -> Tuple[RemoteBackend, ...]:
        """Every far node this runtime talks to (one: the swap target).

        Uniform across the four runtimes; the serving layer uses it to
        treat each shard's backends as one fault domain.
        """
        return (self.backend,)

    @property
    def page_size(self) -> int:
        return self.config.page_size

    # -- allocation: plain heap, page-aligned bump ---------------------------

    def allocate(self, size: int) -> int:
        """sbrk-style allocation; returns the heap offset."""
        if size <= 0:
            size = 1
        offset = self._brk
        self._brk = align_up(self._brk + size, 16)
        if self._brk > self.config.heap_size:
            raise PointerError("Fastswap heap exhausted")
        return offset

    def page_of(self, offset: int) -> int:
        if offset < 0 or offset >= self.config.heap_size:
            raise PointerError(f"offset {offset:#x} outside the heap")
        return offset >> self.page_shift

    # -- the access path ----------------------------------------------------

    def access(
        self,
        offset: int,
        kind: AccessKind = AccessKind.READ,
        size: int = 8,
    ) -> float:
        """One load/store; returns cycles (fault handling if any + access)."""
        costs = self.config.costs
        cycles = costs.local_access
        first = self.page_of(offset)
        last = self.page_of(offset + size - 1)
        for page in range(first, last + 1):
            cycles += self._touch_page(page, kind)
        self.metrics.accesses += 1
        self.metrics.cycles += cycles
        return cycles

    def _touch_page(self, page: int, kind: AccessKind) -> float:
        write = kind is _WRITE
        hit, evicted = self.residency.access(page, write)
        if hit:
            return 0.0
        backend = self.backend
        link = backend.link
        metrics = self.metrics
        config = self.config
        page_size = config.page_size
        # CostTable.fastswap_fault(kind, remote=True), read in place.
        costs = config.costs
        fault_cycles = (
            costs.fastswap_fault_remote_write
            if write
            else costs.fastswap_fault_remote_read
        )
        degraded = False
        tracer = self.tracer
        # The fault cost above is *calibrated* end to end, so the swap-in
        # itself never goes through backend.fetch (it would double-charge
        # the link).  With faults installed, admit() rolls the schedule
        # for this one message and adds only the retry/spike penalty.
        # The test is ``backend.resilient``, read without its property.
        if (
            link.faults is not None
            or backend.retry_policy is not None
            or backend.breaker is not None
        ):
            try:
                fault_cycles += backend.admit(page_size)
            except FarMemoryUnavailableError:
                handler = self.degraded_handler
                if handler is None:
                    self.residency.discard(page)
                    raise
                degraded = True
                fault_cycles = handler(page)
                metrics.degraded_accesses += 1
                if tracer.enabled:
                    tracer.degrade("page", metrics.cycles, page=page)
        cycles = fault_cycles
        integrity = backend.integrity
        if not degraded:
            metrics.major_faults += 1
            metrics.remote_fetches += 1
            metrics.bytes_fetched += page_size
            link.stats.messages += 1
            link.stats.bytes_fetched += page_size
            if tracer.enabled:
                tracer.fetch(
                    page_size, fault_cycles, metrics.cycles,
                    obj_id=page, name="major_fault",
                )
            if integrity is not None:
                try:
                    cycles += backend.verify_payload(page, page_size)
                except DataIntegrityError:
                    # Quarantined: the swapped-in page is untrustworthy.
                    self.residency.discard(page)
                    raise
        for victim, dirty in evicted:
            cycles += config.reclaim_cycles
            metrics.evictions += 1
            if dirty:
                if integrity is not None:
                    integrity.begin_writeback(victim)
                wb = link.wire_cycles(page_size)
                cycles += wb * config.writeback_sync_fraction
                metrics.bytes_evacuated += page_size
                link.stats.bytes_evicted += page_size
                if integrity is not None:
                    integrity.finish_writeback(victim)
            if tracer.enabled:
                tracer.evict(
                    page_size, metrics.cycles,
                    dirty=int(dirty), name="reclaim",
                )
        return cycles

    # -- closed-form scan ------------------------------------------------------

    def sequential_scan(
        self,
        offset: int,
        n_elems: int,
        elem_size: int,
        kind: AccessKind = AccessKind.READ,
        resident_fraction: float = 0.0,
        body_cycles: Optional[float] = None,
        under_pressure: bool = True,
    ) -> float:
        """Bulk cost of a sequential loop at page granularity.

        ``under_pressure`` adds per-page direct reclaim when local
        memory is full (the common case in the sweeps).
        """
        if n_elems <= 0:
            return 0.0
        if not 0.0 <= resident_fraction <= 1.0:
            raise RuntimeConfigError("resident_fraction must be in [0, 1]")
        costs = self.config.costs
        body = costs.local_access if body_cycles is None else body_cycles
        total_bytes = n_elems * elem_size
        n_pages = max(1, ceil_div(total_bytes, self.page_size))
        misses = int(round(n_pages * (1.0 - resident_fraction)))

        cycles = n_elems * body
        cycles += misses * costs.fastswap_fault(kind, remote=True)
        if misses and self.backend.integrity is not None:
            # Closed-form scans verify each swapped-in page's checksum
            # (no corruption rolls: the closed form models the
            # healthy-payload cost envelope).
            cycles += misses * self.backend.integrity.config.verify_cycles
        if under_pressure:
            cycles += misses * self.config.reclaim_cycles
            self.metrics.evictions += misses
        self.metrics.major_faults += misses
        self.metrics.remote_fetches += misses
        self.metrics.bytes_fetched += misses * self.page_size
        self.backend.link.stats.messages += misses
        self.backend.link.stats.bytes_fetched += misses * self.page_size
        tracer = self.tracer
        if tracer.enabled and misses:
            tracer.fetch(
                misses * self.page_size, costs.fastswap_fault(kind, remote=True),
                self.metrics.cycles, n=misses, name="scan_fault",
            )
        if kind is AccessKind.WRITE and misses:
            wb = self.backend.link.wire_cycles(self.page_size)
            cycles += misses * wb * self.config.writeback_sync_fraction
            self.metrics.bytes_evacuated += misses * self.page_size
            self.backend.link.stats.bytes_evicted += misses * self.page_size
            if tracer.enabled:
                tracer.evict(
                    misses * self.page_size, self.metrics.cycles,
                    n=misses, dirty=misses, name="scan_writeback",
                )
        self.metrics.accesses += n_elems
        self.metrics.cycles += cycles
        return cycles

    # -- Table 2 probes -------------------------------------------------------

    def fault_probe(self, kind: AccessKind, remote: bool) -> float:
        """Cost of a single fault event (Table 2 microprobe)."""
        cycles = self.config.costs.fastswap_fault(kind, remote)
        if remote:
            self.metrics.major_faults += 1
        else:
            self.metrics.minor_faults += 1
        return cycles
