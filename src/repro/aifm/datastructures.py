"""AIFM's library-style remote data structures.

These are the programmer-facing types the library-based approach
requires (Listing 1): the application is *rewritten* to use them.  They
exist here for two reasons: the AIFM baseline in Figs. 14 uses them, and
they make the transparency contrast concrete — compare
``examples/quickstart.py`` (TrackFM, unmodified loop) with the
``RemoteArray`` loop these classes force on the developer.
"""

from __future__ import annotations

from repro.aifm.allocator import Allocation
from repro.aifm.runtime import AIFMRuntime
from repro.aifm.scope import DerefScope
from repro.errors import PointerError, WorkloadError
from repro.machine.costs import AccessKind
from repro.sim.plan import AccessPattern, AccessPlan


class RemoteArray:
    """A fixed-length array of ``elem_size``-byte elements in far memory.

    ``at(scope, i)`` mirrors AIFM's API (Listing 1): accesses must carry
    a DerefScope so the evacuator cannot pull the object out from under
    the caller.
    """

    def __init__(self, runtime: AIFMRuntime, length: int, elem_size: int = 8) -> None:
        if length <= 0 or elem_size <= 0:
            raise WorkloadError("RemoteArray needs positive length and element size")
        self.runtime = runtime
        self.length = length
        self.elem_size = elem_size
        self.allocation: Allocation = runtime.allocate(length * elem_size)

    def _offset(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise PointerError(f"index {index} out of range [0, {self.length})")
        return self.allocation.offset + index * self.elem_size

    def at(self, scope: DerefScope, index: int, stream: int = 0) -> float:
        """Read element ``index``; returns simulated cycles."""
        return self.runtime.access(
            self._offset(index),
            AccessKind.READ,
            size=self.elem_size,
            stream=stream,
            scope=scope,
        )

    def set(self, scope: DerefScope, index: int, stream: int = 0) -> float:
        """Write element ``index``; returns simulated cycles."""
        return self.runtime.access(
            self._offset(index),
            AccessKind.WRITE,
            size=self.elem_size,
            stream=stream,
            scope=scope,
        )

    def scan(self, kind: AccessKind = AccessKind.READ) -> float:
        """Iterate the whole array with the library iterator (prefetching)."""
        return self.runtime.cost_plan(
            AccessPlan(
                AccessPattern.SEQUENTIAL, self.length, self.elem_size,
                is_write=kind is AccessKind.WRITE,
            )
        )

    def free(self) -> None:
        self.runtime.free(self.allocation)


class RemoteList:
    """A singly-linked list with one AIFM object per node.

    §2: "A remote linked list ... might use an AIFM object size of 64B
    to constitute a single linked list node."  The library developer's
    iterator knows the link structure, so it prefetches the successor
    while the current node is processed — the manual counterpart of the
    compiler's chase-prefetch extension.
    """

    def __init__(self, runtime: AIFMRuntime, node_size: int = 64) -> None:
        if node_size <= 0:
            raise WorkloadError("RemoteList needs a positive node size")
        self.runtime = runtime
        self.node_size = node_size
        self._nodes: list = []  # Allocation per node, in list order

    def append(self, count: int = 1) -> None:
        """Append ``count`` fresh nodes."""
        if count <= 0:
            raise WorkloadError("append count must be positive")
        for _ in range(count):
            self._nodes.append(self.runtime.allocate(self.node_size))

    def __len__(self) -> int:
        return len(self._nodes)

    def node_object(self, index: int) -> int:
        """The pool object id backing node ``index``."""
        if not 0 <= index < len(self._nodes):
            raise PointerError(f"node {index} out of range")
        return self.runtime.pool.object_of_offset(self._nodes[index].offset)

    def walk(self, prefetch_next: bool = True) -> float:
        """Traverse the list once; returns simulated cycles.

        With ``prefetch_next`` the iterator issues the successor fetch
        before processing the current node (AIFM's iterator pattern).
        """
        cycles = 0.0
        for i, node in enumerate(self._nodes):
            # Touch the current node first (promoting it), THEN issue
            # the successor prefetch — the reverse order would let the
            # prefetch's eviction decision victimize the cold-inserted
            # current node.
            cycles += self.runtime.access(
                node.offset,
                AccessKind.READ,
                size=min(8, self.node_size),
                prefetch=False,
            )
            if prefetch_next and i + 1 < len(self._nodes):
                nxt = self.runtime.pool.object_of_offset(self._nodes[i + 1].offset)
                cycles += self.runtime.pool.prefetch(nxt, depth=2)
        return cycles

    def free(self) -> None:
        for node in self._nodes:
            self.runtime.free(node)
        self._nodes.clear()


class RemoteHashMap:
    """An open-addressed hash map whose buckets live in far memory.

    Keys hash to buckets; each bucket is ``entry_size`` bytes.  Lookups
    dereference exactly one bucket — the fine-grained access pattern
    that makes object size matter (Figs. 9/13).
    """

    def __init__(
        self,
        runtime: AIFMRuntime,
        capacity: int,
        entry_size: int = 16,
    ) -> None:
        if capacity <= 0 or entry_size <= 0:
            raise WorkloadError("RemoteHashMap needs positive capacity and entry size")
        self.runtime = runtime
        self.capacity = capacity
        self.entry_size = entry_size
        self.allocation = runtime.allocate(capacity * entry_size)

    def _bucket_offset(self, key: int) -> int:
        # Fibonacci hashing spreads keys across buckets deterministically.
        bucket = (key * 0x9E3779B97F4A7C15 & ((1 << 64) - 1)) % self.capacity
        return self.allocation.offset + bucket * self.entry_size

    def get(self, scope: DerefScope, key: int) -> float:
        """Point lookup; returns simulated cycles."""
        return self.runtime.access(
            self._bucket_offset(key),
            AccessKind.READ,
            size=self.entry_size,
            scope=scope,
            prefetch=False,  # point lookups have no stride to learn
        )

    def put(self, scope: DerefScope, key: int) -> float:
        """Point insert/update; returns simulated cycles."""
        return self.runtime.access(
            self._bucket_offset(key),
            AccessKind.WRITE,
            size=self.entry_size,
            scope=scope,
            prefetch=False,
        )

    def free(self) -> None:
        self.runtime.free(self.allocation)
