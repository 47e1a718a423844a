"""Cycle cost tables calibrated to the paper's measurements.

Sources (all from the TrackFM paper):

* Table 1 — fast/slow path guard costs, cached vs uncached, for a *local*
  object: fast read/write 21 cycles cached (297/309 uncached); slow read
  144 (453 uncached); slow write 159 (432 uncached).
* §4.1 — an unmodified local load/store costs 36 cycles.
* Table 2 — Fastswap read/write fault 1.3K cycles when the page is local
  (swap-cache hit), 34K/35K when remote; TrackFM slow-path guard 35K when
  the object is remote (TCP backend fetch included).
* §3.3 — instruction counts: custody check ~4 instructions on the
  not-managed path and ~6 on the managed path, fast path 14 instructions
  total, slow path >= 144 instructions.
* §3.4 — boundary check 3 instructions; the locality-invariant guard is a
  runtime call, "slightly more expensive" than a slow-path guard.  Its
  default below is fitted so the cost model's crossover lands at the
  paper's ~730 elements/object (Fig. 6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace

from repro.errors import RuntimeConfigError


class AccessKind(enum.Enum):
    """Whether a guarded access is a read (load) or a write (store)."""

    READ = "read"
    WRITE = "write"


class GuardKind(enum.Enum):
    """Which guard flavour a memory access went through.

    ``NONE`` is an unguarded access (stack/global, or the custody check's
    not-managed exit).  ``BOUNDARY`` is the 3-instruction object-boundary
    check inserted by loop chunking, and ``LOCALITY`` the
    locality-invariant guard taken when the boundary is crossed.
    """

    NONE = "none"
    CUSTODY_MISS = "custody_miss"
    FAST = "fast"
    SLOW = "slow"
    BOUNDARY = "boundary"
    LOCALITY = "locality"

    # Members are singletons, so identity hashing agrees with equality.
    # Every guard bumps ``Metrics.guards[kind]``; this keeps that dict
    # update off the Python-level ``Enum.__hash__``.
    __hash__ = object.__hash__


# Enum members bound once: a class lookup is slow (docs/performance.md).
_READ = AccessKind.READ


@dataclass(frozen=True)
class CostTable:
    """All cycle costs used by the simulators, in one place.

    Cached vs uncached distinguishes whether the guard's object-state-table
    lookup (the single data access on the fast path, §3.3) hits or misses
    the CPU cache.
    """

    #: Unmodified local load/store (§4.1).
    local_access: float = 36.0

    #: Extra cycles of a fast-path guard over the raw access, cached.
    fast_guard_read_cached: float = 21.0
    fast_guard_write_cached: float = 21.0
    #: Total fast-path guard cost when the state-table entry misses cache.
    fast_guard_read_uncached: float = 297.0
    fast_guard_write_uncached: float = 309.0

    #: Slow-path guard with the object already local (runtime call only).
    slow_guard_read_cached: float = 144.0
    slow_guard_write_cached: float = 159.0
    slow_guard_read_uncached: float = 453.0
    slow_guard_write_uncached: float = 432.0

    #: Slow-path guard when the object is remote: dominated by the fetch.
    #: (Table 2: ~35K cycles end to end over the TCP backend.)
    slow_guard_remote: float = 35_000.0

    #: Fastswap page-fault costs (Table 2).
    fastswap_fault_local: float = 1_300.0
    fastswap_fault_remote_read: float = 34_000.0
    fastswap_fault_remote_write: float = 35_000.0

    #: Custody check on the not-managed exit (~4 instructions).
    custody_miss: float = 4.0

    #: Loop-chunking helper costs (§3.4).  The boundary check is the
    #: 3-instruction per-iteration test (Fig. 5, yellow).  The locality
    #: invariant guard (orange) is a runtime call that pins one object —
    #: "slightly more expensive" than a slow-path guard.  Chunked loops
    #: additionally pay a one-time per-loop-entry setup (the
    #: ``tfm_init``/``tfm_rw`` calls in Fig. 5 that create the chunk
    #: state).  This split is what reconciles the paper's numbers: the
    #: Fig. 6 microloop (one object per loop entry) breaks even at
    #: d* = (setup + c_l - c_f) / (c_f - c_b) ~= 730 elements/object,
    #: while long STREAM loops amortize the setup and reach the ~2x
    #: speedups of Fig. 7, and nested short loops (k-means, Fig. 8)
    #: pay the setup per outer iteration and slow down ~4x.
    boundary_check: float = 3.0
    locality_guard: float = 420.0
    chunk_setup: float = 12_700.0

    #: Instruction-count view of the same guards, used by the cost model
    #: (Eqs. 1-3 are expressed in per-guard instruction costs).
    fast_guard_instrs: int = 14
    slow_guard_instrs: int = 144
    boundary_check_instrs: int = 3
    custody_check_instrs: int = 6

    #: Evacuation (write-back of a dirty object/page) is charged the same
    #: as a remote fetch of the same size by default.
    evacuation_factor: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise RuntimeConfigError(f"cost {f.name!r} must be >= 0, got {value}")

    # -- guard cost lookups -------------------------------------------------

    def fast_guard(self, kind: AccessKind, cached: bool = True) -> float:
        """Extra cycles charged for a fast-path guard (excludes the access)."""
        if kind is _READ:
            return self.fast_guard_read_cached if cached else self.fast_guard_read_uncached
        return self.fast_guard_write_cached if cached else self.fast_guard_write_uncached

    def slow_guard_local(self, kind: AccessKind, cached: bool = True) -> float:
        """Slow-path guard cycles when the object is already local."""
        if kind is _READ:
            return self.slow_guard_read_cached if cached else self.slow_guard_read_uncached
        return self.slow_guard_write_cached if cached else self.slow_guard_write_uncached

    def fastswap_fault(self, kind: AccessKind, remote: bool) -> float:
        """Fastswap page-fault cycles (Table 2)."""
        if not remote:
            return self.fastswap_fault_local
        if kind is _READ:
            return self.fastswap_fault_remote_read
        return self.fastswap_fault_remote_write

    def chunking_crossover_density(self) -> float:
        """Eq. 3: minimum elements/object for loop chunking to pay off.

        Evaluated for the paper's Fig. 6 setting — a loop whose entry
        covers a single object (N = d, one locality guard, setup paid
        once per entry): naive = (d-1)c_f + c_s vs chunked = setup +
        d*c_b + c_l.  Solving gives
        d* = (setup + c_l - c_s + c_f) / (c_f - c_b), ~722 with the
        defaults (the paper reports ~730).  The paper's Eq. 3 writes the
        same threshold with the setup folded into its c_l.
        """
        denom = self.fast_guard_read_cached - self.boundary_check
        if denom <= 0:
            raise RuntimeConfigError(
                "cost table degenerate: boundary check must be cheaper "
                "than a fast-path guard"
            )
        numerator = (
            self.chunk_setup
            + self.locality_guard
            - self.slow_guard_read_cached
            + self.fast_guard_read_cached
        )
        return numerator / denom

    def paging_crossover_density(
        self,
        objects_touched_per_page: float = 1.0,
        resident_fraction: float = 0.0,
        reclaim_cycles: float = 0.0,
        wire_object_cycles: float = 0.0,
        wire_page_cycles: float = 0.0,
        kind: AccessKind = AccessKind.READ,
    ) -> float:
        """Accesses/page/window above which paging beats object fetch.

        The "Tale of Two Paths" crossover: a page tier pays one
        amortized fault per non-resident page and nothing per access; an
        object tier pays a fast-path guard on *every* access plus one
        remote slow-path guard per non-resident object it touches.  With
        miss probability ``m = 1 - resident_fraction``, per page and
        window::

            page_cost(d)   = m * (fault_remote + reclaim + w_p)        (flat in d)
            object_cost(d) = d * c_f + k * m * (slow_guard_remote + w_o)

        where ``d`` is accesses per page, ``k`` objects touched per
        page, and ``w_p``/``w_o`` the wire serialization of one page /
        one object (the I/O amplification term: a page fault moves the
        whole page over the wire, an object fetch only the object).
        Solving ``page_cost = object_cost`` for ``d`` gives the
        crossover; clamped at 0 (dense pages touch every object, making
        the object tier's fetches alone dearer than one fault — paging
        wins at any density).
        """
        fast = self.fast_guard(kind, cached=True)
        if fast <= 0:
            raise RuntimeConfigError(
                "cost table degenerate: fast-path guard must cost cycles"
            )
        miss = 1.0 - resident_fraction
        page_cost = miss * (
            self.fastswap_fault(kind, remote=True)
            + reclaim_cycles
            + wire_page_cycles
        )
        object_fetches = (
            objects_touched_per_page
            * miss
            * (self.slow_guard_remote + wire_object_cycles)
        )
        return max(0.0, (page_cost - object_fetches) / fast)

    def with_overrides(self, **kwargs: float) -> "CostTable":
        """Return a copy with some costs replaced (for ablations)."""
        return replace(self, **kwargs)


#: The calibrated default used everywhere unless a benchmark overrides it.
DEFAULT_COSTS = CostTable()
