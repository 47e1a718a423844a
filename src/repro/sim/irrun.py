"""Bridge between the IR interpreter and the TrackFM runtime.

The compiler's transformed IR calls ``tfm_*`` entry points; this module
implements them as interpreter intrinsics backed by a real
:class:`TrackFMRuntime`.  Data for TrackFM allocations lives at a
*canonical twin* address range — the simulation analogue of "the guard
reverts the non-canonical address back into a canonical address"
(§3.3): ``tfm_malloc`` maps bytes at ``TWIN_BASE + heap_offset`` and
returns the tagged pointer ``2^60 | heap_offset``; guards translate one
to the other while charging their cycle costs.

An *untransformed* program that receives a TrackFM pointer and
dereferences it without a guard touches unmapped memory and gets a
:class:`SegmentationFault` — exactly the GP fault the paper's
non-canonical encoding guarantees.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import InterpError, PointerError
from repro.ir.module import Module
from repro.machine.costs import AccessKind
from repro.sim.interpreter import Interpreter, InterpResult
from repro.trackfm.pointer import (
    MAX_HEAP_OFFSET,
    TFM_TAG_SHIFT,
    U64_MASK,
    decode_tfm_pointer,
    is_tfm_pointer,
)
from repro.trackfm.runtime import TrackFMRuntime

#: Canonical twin base: 2^43, comfortably inside the 47-bit canonical
#: range and away from the interpreter's stack/global/libc-heap bases.
TWIN_BASE = 1 << 43


class TrackFMProgram:
    """A transformed module wired to a TrackFM runtime, ready to run."""

    def __init__(
        self,
        module: Module,
        runtime: TrackFMRuntime,
        max_steps: int = 50_000_000,
        engine: Optional[str] = None,
    ) -> None:
        self.module = module
        self.runtime = runtime
        self.interp = Interpreter(module, max_steps=max_steps, engine=engine)
        self._prefetch_flags: Dict[int, bool] = {}
        self._guard_read = self._guard_intrinsic(AccessKind.READ)
        self._guard_write = self._guard_intrinsic(AccessKind.WRITE)
        self._register_intrinsics()

    # -- public API --------------------------------------------------------

    def run(self, entry: str = "main", args: Optional[List[object]] = None) -> InterpResult:
        """Execute the transformed program.

        When the runtime carries an enabled tracer, the whole interpreted
        run is bracketed as a ``phase`` span on the simulated-cycle
        timeline (so guard/fetch events nest under it in Perfetto).
        """
        tracer = self.runtime.tracer
        if not tracer.enabled:
            return self.interp.run(entry, args or [])
        name = f"interpret:{entry}"
        tracer.begin_phase(name, self.runtime.metrics.cycles)
        try:
            result = self.interp.run(entry, args or [])
        finally:
            tracer.end_phase(name, self.runtime.metrics.cycles)
        tracer.counter(
            "interp_steps", self.runtime.metrics.cycles, steps=result.steps
        )
        return result

    def twin_addr(self, tfm_ptr: int) -> int:
        """Canonical twin of a TrackFM pointer."""
        return TWIN_BASE + decode_tfm_pointer(tfm_ptr)

    # -- intrinsics -----------------------------------------------------------

    def _register_intrinsics(self) -> None:
        reg = self.interp.register_intrinsic
        reg("tfm_runtime_init", self._init)
        reg("tfm_malloc", self._malloc)
        reg("tfm_malloc_pinned", self._malloc_pinned)
        reg("tfm_calloc", self._calloc)
        reg("tfm_realloc", self._realloc)
        reg("tfm_free", self._free)
        reg("tfm_guard_read", self._guard_read)
        reg("tfm_guard_write", self._guard_write)
        reg("tfm_chunk_begin", self._chunk_begin)
        reg("tfm_chunk_deref", self._chunk_deref(AccessKind.READ))
        reg("tfm_chunk_deref_write", self._chunk_deref(AccessKind.WRITE))
        reg("tfm_chunk_end", self._chunk_end)
        reg("tfm_prefetch_sched", self._prefetch_sched)
        reg("tfm_chase_deref", self._chase_deref_read)
        reg("tfm_chase_deref_write", self._chase_deref_write)
        reg("tfm_offload_reduce", self._offload_reduce)

    def _init(self, interp: Interpreter, args: List[object]) -> None:
        self.runtime.initialize()
        return None

    def _map_twin(self, tfm_ptr: int) -> None:
        alloc = self.runtime.allocation_of(tfm_ptr)
        base = TWIN_BASE + alloc.offset
        if not self.interp.memory.is_mapped(base, 1):
            self.interp.memory.map_region(base, alloc.size, label="tfm-heap")

    def _malloc(self, interp: Interpreter, args: List[object]) -> int:
        ptr = self.runtime.tfm_malloc(int(args[0]))
        self._map_twin(ptr)
        return ptr

    def _malloc_pinned(self, interp: Interpreter, args: List[object]) -> int:
        """Pinned local heap (heap-pruning extension): returns a
        *canonical* pointer — the memory can never be remoted, so no
        guard (and no non-canonical tag) is needed."""
        offset = self.runtime.tfm_malloc_pinned(int(args[0]))
        alloc = self.runtime.allocator.allocation_at(offset)
        assert alloc is not None
        base = TWIN_BASE + alloc.offset
        if not self.interp.memory.is_mapped(base, 1):
            self.interp.memory.map_region(base, alloc.size, label="tfm-pinned")
        return base

    def _calloc(self, interp: Interpreter, args: List[object]) -> int:
        ptr = self.runtime.tfm_calloc(int(args[0]), int(args[1]))
        self._map_twin(ptr)
        return ptr

    def _realloc(self, interp: Interpreter, args: List[object]) -> int:
        old_ptr, new_size = int(args[0]), int(args[1])
        if old_ptr == 0:
            return self._malloc(interp, [new_size])
        old_alloc = self.runtime.allocation_of(old_ptr)
        new_ptr = self._malloc(interp, [new_size])
        n = min(old_alloc.size, int(new_size))
        data = interp.memory.read_bytes(TWIN_BASE + old_alloc.offset, n)
        interp.memory.write_bytes(self.twin_addr(new_ptr), data)
        self._free(interp, [old_ptr])
        return new_ptr

    def _free(self, interp: Interpreter, args: List[object]) -> None:
        ptr = int(args[0])
        if ptr == 0:
            return None
        if not is_tfm_pointer(ptr) and self.runtime.is_pinned_allocation(ptr - TWIN_BASE):
            # A heap-pruned allocation: the program holds its canonical twin.
            self.runtime.tfm_free_pinned(ptr - TWIN_BASE)
            base = ptr
        else:
            # Any other canonical pointer is rejected here.
            alloc = self.runtime.allocation_of(ptr)
            self.runtime.tfm_free(ptr)
            base = TWIN_BASE + alloc.offset
        if interp.memory.is_mapped(base, 1):
            interp.memory.unmap(base)
        return None

    # -- guards ---------------------------------------------------------

    # The guard and chunk-deref intrinsics run once per guarded access.
    # Each is one frame that custody-checks and decodes the pointer once,
    # with the runtime, metrics bundle and access cost bound up front.

    def _guard_intrinsic(self, kind: AccessKind):
        """``tfm_guard_{read,write}``: guard, charge, return the twin address."""
        runtime = self.runtime
        metrics = runtime.metrics
        local_access = runtime.costs.local_access

        def guard(interp: Interpreter, args: List[object]) -> int:
            ptr = int(args[0])
            # ``runtime.guards`` is read per call: the adaptive hybrid
            # swaps in a tier router after construction.
            cycles = runtime.guards.guard(ptr, kind).cycles
            if not (ptr & U64_MASK) >> TFM_TAG_SHIFT:
                # Custody miss: the original pointer is used untouched.
                metrics.cycles += cycles
                return ptr
            metrics.accesses += 1
            metrics.cycles += cycles + local_access
            return TWIN_BASE + (ptr & MAX_HEAP_OFFSET)

        return guard

    # -- chunked streams --------------------------------------------------

    def _chunk_begin(self, interp: Interpreter, args: List[object]) -> None:
        stream, prefetch = int(args[0]), bool(args[1])
        self._prefetch_flags[stream] = prefetch
        self.runtime.chunk_begin(stream)
        return None

    def _chunk_deref(self, kind: AccessKind):
        """``tfm_chunk_deref[_write]``: one access of a chunked stream."""
        chunk_access = self.runtime.chunk_access
        prefetch_flags = self._prefetch_flags

        def deref(interp: Interpreter, args: List[object]) -> int:
            ptr = int(args[0])
            if not (ptr & U64_MASK) >> TFM_TAG_SHIFT:
                return ptr
            stream = int(args[1])
            chunk_access(
                ptr, kind, stream=stream, prefetch=prefetch_flags.get(stream, False)
            )
            return TWIN_BASE + (ptr & MAX_HEAP_OFFSET)

        return deref

    def _chunk_end(self, interp: Interpreter, args: List[object]) -> None:
        self.runtime.chunk_end(int(args[0]))
        return None

    def _prefetch_sched(self, interp: Interpreter, args: List[object]) -> None:
        base, offset, stride, count, distance, stream = (int(a) for a in args)
        self.runtime.install_prefetch_schedule(
            stream, base, offset, stride, count, distance
        )
        return None

    # -- pointer-chase prefetching (recursive data structures) ------------

    def _chase_deref(self, args: List[object], kind: AccessKind) -> int:
        """Guard a node access, then greedily prefetch node->next.

        Greedy (Luk & Mowry) prefetching only sees one node ahead, so
        the prefetch is charged at a shallow pipeline depth.
        """
        ptr, node, next_off, _stream = (int(a) for a in args)
        guard = self._guard_write if kind is AccessKind.WRITE else self._guard_read
        canon = guard(self.interp, (ptr,))
        if not is_tfm_pointer(node):
            return canon
        node_canon = TWIN_BASE + decode_tfm_pointer(node)
        from repro.ir.types import PTR as _PTR

        if not self.interp.memory.is_mapped(node_canon + next_off, 8):
            return canon
        next_ptr = int(self.interp.memory.read_value(node_canon + next_off, _PTR))
        if is_tfm_pointer(next_ptr):
            pool = self.runtime.pool
            obj = decode_tfm_pointer(next_ptr) >> pool.object_shift
            if 0 <= obj < pool.num_objects:
                # The thread is inside a guard: the evacuator barrier
                # (§3.3) cannot evict the object under access, so pin it
                # for the duration of the prefetch's eviction decision.
                cur = decode_tfm_pointer(ptr) >> pool.object_shift
                pool.pin(cur)
                try:
                    self.runtime.metrics.cycles += pool.prefetch(obj, depth=2)
                finally:
                    pool.unpin(cur)
        return canon

    def _chase_deref_read(self, interp: Interpreter, args: List[object]) -> int:
        return self._chase_deref(args, AccessKind.READ)

    def _chase_deref_write(self, interp: Interpreter, args: List[object]) -> int:
        return self._chase_deref(args, AccessKind.WRITE)

    # -- computation offload (near-data processing) ------------------------

    #: Remote CPU cycles per element of an offloaded reduction (the far
    #: node scans its own DRAM at memory speed).
    OFFLOAD_REMOTE_CYCLES_PER_ELEM = 4.0
    #: Request/response message payload (descriptor + scalar result).
    OFFLOAD_MESSAGE_BYTES = 64

    def _offload_reduce(self, interp: Interpreter, args: List[object]) -> int:
        """Run a reduction on the remote node instead of fetching data.

        Dirty local objects in the range are flushed first so the remote
        scans current data; the application then blocks for one request/
        response round trip plus the remote scan time — no data fetch.
        """
        from repro.compiler.offload import REDUCE_OPS
        from repro.ir.types import I64 as _I64

        base, n, elem, op_code, init = (int(a) for a in args)
        if n <= 0:
            return init
        if not is_tfm_pointer(base):
            raise InterpError("tfm_offload_reduce on a non-TrackFM pointer")
        runtime = self.runtime
        pool = runtime.pool
        link = pool.backend.link
        offset = decode_tfm_pointer(base)

        cycles = 0.0
        # Flush dirty objects covering the range (write-back before read).
        first_obj = offset >> pool.object_shift
        last_obj = (offset + n * elem - 1) >> pool.object_shift
        for obj in range(first_obj, last_obj + 1):
            if obj < pool.num_objects and pool.residency.is_dirty(obj):
                cycles += pool.backend.evict(pool.object_size, depth=4)
                runtime.metrics.bytes_evacuated += pool.object_size
                pool.residency.mark_clean(obj)
        # Ship the request, remote scan, ship the result.
        cycles += link.transfer_cycles(self.OFFLOAD_MESSAGE_BYTES)
        cycles += n * self.OFFLOAD_REMOTE_CYCLES_PER_ELEM
        cycles += link.transfer_cycles(self.OFFLOAD_MESSAGE_BYTES)
        link.stats.messages += 2
        link.stats.bytes_fetched += self.OFFLOAD_MESSAGE_BYTES
        link.stats.bytes_evicted += self.OFFLOAD_MESSAGE_BYTES
        runtime.metrics.bytes_fetched += self.OFFLOAD_MESSAGE_BYTES
        runtime.metrics.cycles += cycles
        runtime.metrics.remote_fetches += 1
        tracer = runtime.tracer
        if tracer.enabled:
            tracer.fetch(
                self.OFFLOAD_MESSAGE_BYTES, cycles, runtime.metrics.cycles,
                n=1, name="offload_reduce",
            )

        # The remote node computes over its authoritative copy — in the
        # simulation that is the twin memory.  Arithmetic matches the
        # interpreter's: signed two's complement at the element width.
        from repro.sim.interpreter import _wrap

        op_name = {v: k for k, v in REDUCE_OPS.items()}[op_code]
        twin = TWIN_BASE + offset
        bits = min(elem * 8, 64)
        mask = (1 << bits) - 1
        acc = init
        for i in range(n):
            raw = self.interp.memory.read_bytes(twin + i * elem, elem)
            value = int.from_bytes(raw, "little", signed=True)
            if op_name == "add":
                acc = _wrap(acc + value, bits)
            elif op_name == "xor":
                acc = _wrap((acc & mask) ^ (value & mask), bits)
            elif op_name == "and":
                acc = _wrap((acc & mask) & (value & mask), bits)
            else:
                acc = _wrap((acc & mask) | (value & mask), bits)
        return acc
