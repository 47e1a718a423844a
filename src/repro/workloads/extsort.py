"""External sort/shuffle: partitioned run formation + k-way merge.

Models the access pattern of an out-of-core sort over a far array:

* **Phase 1 (run formation):** each partition is read sequentially,
  sorted locally, and written back sequentially to a run region — the
  streaming, prefetch-friendly half.
* **Phase 2 (k-way merge):** a heap-of-heads merge reads one element
  from whichever run currently holds the minimum — a data-dependent
  interleaving across ``partitions`` far regions that defeats simple
  stride detection — and writes the merged output sequentially.

Keys are splitmix64 draws indexed by (seed, position), so the sorted
result, the merge interleaving, and the FNV digest are pure functions
of the constructor arguments.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Tuple

from repro.errors import WorkloadError
from repro.machine.costs import AccessKind
from repro.hashing import splitmix64
from repro.workloads.graph import WORD, _FNV_OFFSET, _fnv_fold


class ExternalSortWorkload:
    """Partitioned external sort over one far arena (input/runs/output)."""

    name = "extsort"

    def __init__(self, n_keys: int = 512, partitions: int = 4, seed: int = 2) -> None:
        if partitions < 2:
            raise WorkloadError("extsort needs at least 2 partitions")
        if n_keys < partitions:
            raise WorkloadError("extsort needs at least one key per partition")
        self.n_keys = n_keys
        self.partitions = partitions
        self.seed = seed
        self.keys = [
            splitmix64(((seed & ((1 << 64) - 1)) << 3) ^ splitmix64(i ^ 0x5EED))
            for i in range(n_keys)
        ]
        # Partition bounds: first `rem` partitions get one extra key.
        base, rem = divmod(n_keys, partitions)
        bounds: List[Tuple[int, int]] = []
        start = 0
        for p in range(partitions):
            size = base + (1 if p < rem else 0)
            bounds.append((start, start + size))
            start += size
        self.bounds = bounds
        #: Region bases inside the arena, in bytes.
        self.input_base = 0
        self.run_base = n_keys * WORD
        self.output_base = 2 * n_keys * WORD
        self.arena_bytes = 3 * n_keys * WORD

    def sorted_runs(self) -> List[List[int]]:
        return [sorted(self.keys[lo:hi]) for lo, hi in self.bounds]

    def merged(self) -> List[int]:
        return list(heapq.merge(*self.sorted_runs()))

    def accesses(self) -> Iterator[Tuple[int, AccessKind]]:
        """The far-memory access stream of the full sort, both phases."""
        runs = self.sorted_runs()
        # Phase 1: per-partition sequential read, then sequential write of
        # the sorted run into the run region (same slot range).
        for lo, hi in self.bounds:
            for i in range(lo, hi):
                yield self.input_base + i * WORD, AccessKind.READ
            for i in range(lo, hi):
                yield self.run_base + i * WORD, AccessKind.WRITE
        # Phase 2: heap merge.  Each pop reads the winning run's next
        # element (data-dependent region) and appends to the output.
        heads = [(run[0], p, 0) for p, run in enumerate(runs) if run]
        heapq.heapify(heads)
        out = 0
        while heads:
            key, p, idx = heapq.heappop(heads)
            lo, _hi = self.bounds[p]
            yield self.run_base + (lo + idx) * WORD, AccessKind.READ
            yield self.output_base + out * WORD, AccessKind.WRITE
            out += 1
            run = runs[p]
            if idx + 1 < len(run):
                heapq.heappush(heads, (run[idx + 1], p, idx + 1))

    def value(self) -> int:
        """FNV digest over the merged sorted sequence."""
        acc = _FNV_OFFSET
        for key in self.merged():
            acc = _fnv_fold(acc, key)
        acc = _fnv_fold(acc, self.n_keys)
        return acc
