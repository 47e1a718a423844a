"""NAS parallel benchmarks (serial C++ versions), far-memory models.

§4.5 / Table 3 / Fig. 17: five kernels (CG, FT, IS, MG, SP) run at a
25 % local-memory constraint.  Two TrackFM-relevant traits differ per
kernel:

* **temporal reuse** — how often a touched page/object is re-touched
  soon (FT's FFT stages have strong reuse, which amortizes Fastswap's
  faults; IS's bucket scatter has almost none);
* **analyzability** — whether TrackFM's loop analysis chunks the hot
  loops (FT's "deeply nested, tight loop structure ... confounds our
  loop analysis"), and how many memory instructions the unoptimized
  NOELLE pipeline sees (Fig. 17b: O1 cuts FT's memory instructions ~6x
  and SP's ~4x).

Besides the cost models, :func:`build_nas_ir` constructs genuine IR for
the kernels in *unoptimized* style (locals in stack slots, operands
re-loaded at every use) so the O1 study runs the real pass pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import WorkloadError
from repro.ir import IRBuilder, Module
from repro.ir.types import I64, PTR
from repro.ir.values import Constant
from repro.machine.costs import AccessKind, CostTable, DEFAULT_COSTS, GuardKind
from repro.net.backends import make_rdma_backend, make_tcp_backend
from repro.sim.metrics import Metrics
from repro.units import BASE_PAGE, GB, ceil_div

NAS_BODY_CYCLES = 14.0


@dataclass(frozen=True)
class NasBenchmark:
    """One NAS kernel's shape (Table 3 + §4.5 observations)."""

    name: str
    klass: str
    #: Paper working set in GB (Table 3).
    paper_memory_gb: int
    #: Lines of code (Table 3, descriptive only).
    loc: int
    #: Fraction of granule touches that re-hit a recently-used granule.
    temporal_reuse: float
    #: Does TrackFM's loop analysis manage to chunk the hot loops?
    chunkable: bool
    #: Memory-instruction inflation when NOELLE sees unoptimized IR
    #: (Fig. 17b: 6x for FT, 4x for SP; ~1 elsewhere).
    unopt_mem_inflation: float
    #: Passes over the working set (iterative kernels sweep repeatedly).
    passes: int = 3

    def working_set(self, scale_factor: int) -> int:
        return max(1 << 20, self.paper_memory_gb * GB // scale_factor)


#: Table 3's suite with the §4.5 qualitative traits attached.
NAS_SUITE: Tuple[NasBenchmark, ...] = (
    NasBenchmark("CG", "D", 9, 586, temporal_reuse=0.30, chunkable=True, unopt_mem_inflation=1.2),
    NasBenchmark("FT", "C", 6, 756, temporal_reuse=0.80, chunkable=False, unopt_mem_inflation=6.0),
    NasBenchmark("IS", "D", 34, 558, temporal_reuse=0.05, chunkable=True, unopt_mem_inflation=1.1),
    NasBenchmark("MG", "D", 27, 941, temporal_reuse=0.40, chunkable=True, unopt_mem_inflation=1.3),
    NasBenchmark("SP", "D", 12, 2013, temporal_reuse=0.30, chunkable=True, unopt_mem_inflation=4.0),
)


def nas_by_name(name: str) -> NasBenchmark:
    for b in NAS_SUITE:
        if b.name == name:
            return b
    raise WorkloadError(f"unknown NAS benchmark {name!r}")


@dataclass
class NasModel:
    """Cost model for one kernel at one local-memory setting."""

    bench: NasBenchmark
    working_set: int
    object_size: int = BASE_PAGE
    elem_size: int = 8
    costs: CostTable = field(default_factory=lambda: DEFAULT_COSTS)

    def _accesses_per_pass(self) -> int:
        return max(1, self.working_set // self.elem_size)

    def _effective_resident(self, local_memory: int) -> float:
        base = min(1.0, local_memory / self.working_set)
        reuse = self.bench.temporal_reuse
        return min(1.0, base + reuse * (1.0 - base))

    def run_local(self) -> float:
        return self.bench.passes * self._accesses_per_pass() * NAS_BODY_CYCLES

    def run_fastswap(self, local_memory: int) -> Tuple[float, Metrics]:
        c = self.costs
        metrics = Metrics()
        page = BASE_PAGE
        n = self._accesses_per_pass()
        n_pages = max(1, ceil_div(self.working_set, page))
        resident = self._effective_resident(local_memory)
        misses = int(round(n_pages * (1.0 - resident)))
        cycles = 0.0
        for _ in range(self.bench.passes):
            cycles += n * NAS_BODY_CYCLES
            cycles += misses * (c.fastswap_fault(AccessKind.READ, remote=True) + 2_000.0)
            metrics.major_faults += misses
            metrics.bytes_fetched += misses * page
            metrics.accesses += n
        metrics.cycles = cycles
        return cycles, metrics

    def run_trackfm(
        self, local_memory: int, o1: bool = True
    ) -> Tuple[float, Metrics]:
        c = self.costs
        metrics = Metrics()
        link = make_tcp_backend().link
        inflation = 1.0 if o1 else self.bench.unopt_mem_inflation
        n = int(self._accesses_per_pass() * inflation)
        n_objects = max(1, ceil_div(self.working_set, self.object_size))
        resident = self._effective_resident(local_memory)
        misses = int(round(n_objects * (1.0 - resident)))
        cycles = 0.0
        for _ in range(self.bench.passes):
            cycles += n * NAS_BODY_CYCLES
            if self.bench.chunkable:
                cycles += c.chunk_setup
                cycles += n * c.boundary_check
                cycles += n_objects * c.locality_guard
                cycles += misses * link.wire_cycles(self.object_size)
                metrics.count_guard(GuardKind.BOUNDARY, n)
                metrics.count_guard(GuardKind.LOCALITY, n_objects)
            else:
                fast = max(n - n_objects, 0)
                cycles += fast * c.fast_guard(AccessKind.READ, cached=True)
                cycles += (n_objects - misses) * c.slow_guard_local(
                    AccessKind.READ, cached=True
                )
                cycles += misses * (
                    c.slow_guard_local(AccessKind.READ, cached=False)
                    + link.transfer_cycles(self.object_size)
                )
                metrics.count_guard(GuardKind.FAST, fast)
                metrics.count_guard(GuardKind.SLOW, n_objects)
            metrics.bytes_fetched += misses * self.object_size
            metrics.accesses += n
        metrics.cycles = cycles
        return cycles, metrics

    def slowdown(self, system: str, local_memory: int, o1: bool = True) -> float:
        """Fig. 17's y-axis: cycles / local-only cycles."""
        base = self.run_local()
        if system == "fastswap":
            cycles, _ = self.run_fastswap(local_memory)
        elif system == "trackfm":
            cycles, _ = self.run_trackfm(local_memory, o1=o1)
        else:
            raise WorkloadError(f"unknown system {system!r}")
        return cycles / base


# -- real IR kernels for the O1 study (Fig. 17b) ------------------------------


def build_nas_ir(name: str, n: int = 64, unoptimized: bool = True) -> Module:
    """Build a NAS-kernel-shaped IR module.

    ``unoptimized=True`` emits the style NOELLE sees without O1: every
    scalar lives in a stack slot and is re-loaded at each use, so the
    loop bodies carry several redundant loads/stores per heap access.
    FT's body is emitted with a deeper redundancy factor than SP's,
    mirroring the paper's 6x vs 4x reductions.
    """
    bench = nas_by_name(name)
    del bench  # name validation only; the IR shape is driven by redundancy
    # Per-iteration spill/reload depth: FT's deep nests carry the most
    # temporaries (measured ~6x memory-instruction reduction under O1),
    # SP ~4x, the rest are nearly clean already.
    redundancy = {"FT": 3, "SP": 1}.get(name, 0)
    if not unoptimized:
        redundancy = 0

    m = Module(f"nas-{name.lower()}")
    f = m.add_function("main", I64)
    entry = f.add_block("entry")
    header = f.add_block("header")
    body = f.add_block("body")
    exit_ = f.add_block("exit")

    b = IRBuilder(entry)
    data = b.call(PTR, "malloc", [Constant(I64, n * 8)], name="data")
    # Stack slots for the "unoptimized locals" style.
    slots = [b.alloca(8, name=f"slot{i}") for i in range(max(redundancy, 1))]
    for slot in slots:
        b.store(0, slot)
    b.br(header)

    b.set_block(header)
    i = b.phi(I64, name="i")
    acc = b.phi(I64, name="acc")
    cond = b.icmp("slt", i, n)
    b.condbr(cond, body, exit_)

    b.set_block(body)
    if redundancy:
        # Unoptimized style: spill/reload scalars around the heap access.
        reloaded = []
        for slot in slots:
            reloaded.append(b.load(I64, slot))
        bump = reloaded[0]
        for r in reloaded[1:]:
            bump = b.add(bump, r)
        b.store(bump, slots[0])
        extra = b.load(I64, slots[0])
    else:
        extra = Constant(I64, 0)
    addr = b.gep(data, i, 8, name="addr")
    v = b.load(I64, addr, name="v")
    tmp = b.add(v, extra)
    acc2 = b.add(acc, tmp, name="acc2")
    i2 = b.add(i, 1, name="i2")
    b.br(header)
    i.add_incoming(Constant(I64, 0), entry)
    i.add_incoming(i2, body)
    acc.add_incoming(Constant(I64, 0), entry)
    acc.add_incoming(acc2, body)

    b.set_block(exit_)
    b.ret(acc)
    return m
