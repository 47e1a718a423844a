"""The four host-benchmark workloads.

A workload is built from a seed: its constructor is the benchmark's
set-up (inputs plus an independent reference to check outputs against).
Each timed rep then goes through the system's public entry points only:

* ``prepare()`` makes the rep's fresh, untimed inputs;
* ``run(inputs)`` is the timed region: it constructs the runtime or
  cluster, drives it and returns the raw outcome;
* ``result(raw)`` (untimed) turns the outcome into a :class:`RepResult`:
  the op count, the values to check, the deterministic simulated
  metrics and the per-layer counts read from public ``Metrics``,
  ``ClusterStats`` and ``CompileResult`` fields;
* ``check(result)`` compares the values with ``expected``, the
  reference, and returns ``(attempted, failures)``.

``scale`` shrinks every size (the smoke test runs at a few percent).
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

from repro.aifm.pool import PoolConfig
from repro.bench.hybrid import EPOCH_ACCESSES, SELECTOR
from repro.compiler import CompilerConfig, TrackFMCompiler
from repro.hybrid.placement import Placement
from repro.hybrid.runtime import AdaptiveHybridRuntime
from repro.machine.costs import AccessKind, GuardKind
from repro.serve import (
    ChaosAction,
    ClusterConfig,
    ServingSimulation,
    ShardedCluster,
    TrafficConfig,
    default_value,
    generate_schedule,
    next_value,
)
from repro.sim.irrun import TrackFMProgram
from repro.sim.metrics import Metrics
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import BASE_PAGE, KB, align_up
from repro.workloads import nas_kernels
from repro.workloads.phase import PhaseShiftWorkload

#: AIFM object size for every workload (the paper's default band).
OBJECT_SIZE = 256

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


@dataclass
class RepResult:
    """What one rep produced, in checkable and countable form."""

    #: Ops the rep completed (IR steps, requests or accesses).
    ops: int
    #: Outputs compared against the workload's reference.
    values: Dict[str, int]
    #: Deterministic simulated metrics (identical on every rep).
    sim: Dict[str, float]
    #: Deterministic per-layer counts (identical on every rep).
    counts: Dict[str, float]
    #: Host seconds spent compiling (``nas`` only).
    compile_s: float = 0.0


class Workload:
    """Checks shared by every workload: one per expected output."""

    #: Output name -> the value the reference says it must have.
    expected: Dict[str, int]

    def check(self, res: RepResult) -> Tuple[int, List[str]]:
        """``(attempted, failures)`` of ``res`` against the reference."""
        failures = [
            f"{name}: got {res.values.get(name)!r}, expected {want}"
            for name, want in self.expected.items()
            if res.values.get(name) != want
        ]
        return len(self.expected), failures


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _runtime_counts(m: Metrics, ops: int) -> Dict[str, float]:
    """Per-layer counts every runtime's ``Metrics`` bundle carries."""
    accesses = m.accesses
    object_misses = m.remote_fetches - m.major_faults
    counts = {
        f"trackfm.guards_per_access.{kind.value}": _ratio(m.guard_count(kind), accesses)
        for kind in (GuardKind.FAST, GuardKind.SLOW, GuardKind.BOUNDARY, GuardKind.LOCALITY)
    }
    counts.update({
        "aifm.miss_ratio": _ratio(object_misses, accesses),
        "aifm.evictions_per_op": _ratio(m.evictions, ops),
        "aifm.prefetch_useful_ratio": _ratio(m.prefetches_useful, m.prefetches_issued),
        "net.bytes_per_op": _ratio(m.bytes_fetched + m.bytes_evacuated, ops),
        "net.retries_per_fetch": _ratio(m.retries, m.remote_fetches),
        "net.drops_per_op": _ratio(m.drops, ops),
        "fastswap.major_faults_per_op": _ratio(m.major_faults, ops),
        "hybrid.tier_switches": float(m.tier_switches),
        "hybrid.migrated_per_op": _ratio(m.objects_migrated, ops),
        # The count pass's per-access denominator.
        "accesses": float(accesses),
    })
    return counts


# -- nas: the five NAS mini-kernels, compiled and interpreted ----------------

#: name -> (base sizes, indices of the sizes the seed perturbs, footprint
#: in bytes of the kernel's heap allocations as a function of the sizes).
NAS_SHAPES: Dict[str, Tuple[Tuple[int, ...], Tuple[int, ...], Callable[..., int]]] = {
    "CG": ((2048, 4), (0,), lambda rows, k: 16 * rows * k + 8 * rows),
    "IS": ((8192, 256), (0,), lambda keys, buckets: 8 * (keys + buckets)),
    "MG": ((8192,), (0,), lambda n: 16 * n),
    "SP": ((8192,), (0,), lambda n: 8 * n),
    "FT": ((96, 96), (0, 1), lambda rows, cols: 8 * rows * cols),
}


class Nas(Workload):
    """``nas``: compile each kernel afresh, run it at 1/4 local memory."""

    name = "nas"
    op = "IR step"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        rng = random.Random(seed)
        self.sizes: Dict[str, Tuple[int, ...]] = {}
        self.pools: Dict[str, PoolConfig] = {}
        self.expected: Dict[str, int] = {}
        for kname, (base, perturbed, footprint) in NAS_SHAPES.items():
            sizes = []
            for i, size in enumerate(base):
                if i in perturbed:
                    size = max(4, int(size * scale))
                    size += rng.randrange(size // 16 + 1)
                sizes.append(size)
            self.sizes[kname] = tuple(sizes)
            fp = footprint(*sizes)
            self.pools[kname] = PoolConfig(
                object_size=OBJECT_SIZE,
                local_memory=max(OBJECT_SIZE, fp // 4 // OBJECT_SIZE * OBJECT_SIZE),
                heap_size=align_up(2 * fp + 4 * KB, OBJECT_SIZE),
            )
            self.expected[kname] = nas_kernels.KERNELS[kname][1](*sizes)

    def prepare(self) -> List[Tuple[str, object]]:
        gc.collect()
        return [
            (kname, nas_kernels.KERNELS[kname][0](*sizes))
            for kname, sizes in self.sizes.items()
        ]

    def run(self, modules: Sequence[Tuple[str, object]]) -> list:
        out = []
        for kname, module in modules:
            started = perf_counter()
            compiled = TrackFMCompiler(CompilerConfig(object_size=OBJECT_SIZE)).compile(module)
            compile_s = perf_counter() - started
            runtime = TrackFMRuntime(self.pools[kname])
            result = TrackFMProgram(compiled.module, runtime).run("main")
            out.append((kname, compiled, runtime, result, compile_s))
        return out

    def result(self, raw: list) -> RepResult:
        compiled = [c for _k, c, _rt, _r, _s in raw]
        results = {kname: r for kname, _c, _rt, r, _s in raw}
        steps = sum(r.steps for r in results.values())
        m = Metrics.aggregate(rt.metrics for _k, _c, rt, _r, _s in raw)
        counts = _runtime_counts(m, steps)
        counts["compiler.inst_growth"] = _ratio(
            sum(c.instructions_after for c in compiled),
            sum(c.instructions_before for c in compiled),
        )
        counts["compiler.guards_inserted"] = float(sum(c.guards_inserted for c in compiled))
        counts["compiler.accesses_chunked"] = float(sum(c.accesses_chunked for c in compiled))
        return RepResult(
            ops=steps,
            values={kname: r.value for kname, r in results.items()},
            sim={"sim_cycles_per_op": m.cycles / steps},
            counts=counts,
            compile_s=sum(s for *_rest, s in raw),
        )


# -- serve-read / serve-write: the sharded serving layer -----------------------


@dataclass(frozen=True)
class ServeShape:
    """One serving traffic mix and cluster posture."""

    shards: int
    replication: int
    clients: int
    requests_per_client: int
    write_fraction: float
    mean_gap_cycles: float
    #: Lose shard 1 at 40% of the run and rebalance at 70%.
    knockout: bool
    n_keys: int = 4096
    zipf_skew: float = 1.02
    local_memory: int = 4 * KB


class Serve(Workload):
    """Open-loop Zipf traffic through a ``ShardedCluster`` of TrackFM shards."""

    op = "request"
    shape: ServeShape

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        shape = self.shape
        self.schedule = generate_schedule(TrafficConfig(
            clients=shape.clients,
            requests_per_client=max(1, int(shape.requests_per_client * scale)),
            n_keys=shape.n_keys,
            zipf_skew=shape.zipf_skew,
            mean_interarrival_cycles=shape.mean_gap_cycles,
            write_fraction=shape.write_fraction,
            seed=seed,
        ))
        self.cluster_config = ClusterConfig(
            n_shards=shape.shards,
            n_keys=shape.n_keys,
            runtime="trackfm",
            object_size=OBJECT_SIZE,
            local_memory=shape.local_memory,
            seed=seed,
            replication=shape.replication,
        )
        end = float(self.schedule.times[-1])
        self.chaos = (
            (ChaosAction(end * 0.4, "lose", 1), ChaosAction(end * 0.7, "rebalance"))
            if shape.knockout else ()
        )
        # The reference: a plain-dict replay of the schedule, fault-free.
        values: Dict[int, int] = {}
        for key, write in zip(self.schedule.keys.tolist(), self.schedule.writes.tolist()):
            if write:
                values[key] = next_value(key, values.get(key, default_value(key)))
        self.expected = {
            str(key): values.get(key, default_value(key)) for key in range(shape.n_keys)
        }
        self.expected["requests"] = len(self.schedule)

    def prepare(self) -> None:
        gc.collect()

    def run(self, _inputs: None) -> Tuple[ShardedCluster, ServingSimulation, object]:
        cluster = ShardedCluster(self.cluster_config)
        sim = ServingSimulation(cluster, self.schedule, self.chaos)
        return cluster, sim, sim.run()

    def result(self, raw) -> RepResult:
        cluster, sim, report = raw
        requests = report.requests
        m = cluster.merged_metrics()
        latency = cluster.merged_latency()
        stats = cluster.stats
        counts = _runtime_counts(m, requests)
        counts.update({
            "serve.quorum_reads_per_req": m.quorum_reads / requests,
            "serve.replica_writes_per_req": m.replica_writes / requests,
            "serve.read_repairs": float(m.read_repairs),
            "serve.promoted_keys": float(stats.promoted_keys),
            # Every request's latency is its queue wait plus its service
            # cycles, and the runtimes charge exactly the service cycles.
            "serve.sim_wait_share": 1.0 - m.cycles / latency.total,
        })
        return RepResult(
            ops=requests,
            values={"requests": requests, **{str(k): v for k, v in sim.final_values.items()}},
            sim={
                "sim_cycles_per_op": m.cycles / requests,
                "sim_p50_cycles": latency.percentile(50.0),
                "sim_p999_cycles": latency.percentile(99.9),
                "sim_latency_n": float(latency.count),
                "sim_req_per_mcycle": report.throughput_per_mcycle,
                "sim_degraded_frac": report.degraded_requests / requests,
            },
            counts=counts,
        )


class ServeRead(Serve):
    """``serve-read``: 16 resident shards at R=1, 5% writes."""

    name = "serve-read"
    shape = ServeShape(
        shards=16, replication=1, clients=1000, requests_per_client=100,
        write_fraction=0.05, mean_gap_cycles=400_000.0, knockout=False,
    )


class ServeWrite(Serve):
    """``serve-write``: 4 memory-starved shards at R=2, 50% writes, a knockout."""

    name = "serve-write"
    shape = ServeShape(
        shards=4, replication=2, clients=1000, requests_per_client=50,
        write_fraction=0.5, mean_gap_cycles=4_000_000.0, knockout=True,
    )


# -- hybrid-phase: the adaptive hybrid data plane ----------------------------------


class HybridPhase(Workload):
    """``hybrid-phase``: a rotating hot region replayed at 1/4 local memory."""

    name = "hybrid-phase"
    op = "access"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        # The seed rotates the hot region and adds up to 7 phases.
        self.workload = PhaseShiftWorkload(
            n_regions=32,
            region_bytes=4 * KB,
            dense_stride=64,
            n_phases=max(2, int(128 * scale)) + seed % 8,
            dense_passes=16,
            sparse_probes=12,
            seed=seed,
        )
        self.arena = self.workload.arena_bytes
        self.stream = [
            (offset, kind, (offset << 1) | (kind is AccessKind.WRITE))
            for offset, kind in self.workload.accesses()
        ]
        # The runtime must count every access, and its selector must page
        # some region, each only while it is the densely swept one.  The
        # digest only shows that the replay loop covered the whole stream
        # in order: it folds the stream, not anything the runtime returns.
        self.expected = {
            "accesses": len(self.stream),
            "pages_only_hot_regions": 1,
            "digest": self.workload.value(),
        }

    def _hot_region_at(self, epoch: int) -> int:
        """The hot region of the phase in progress when ``epoch`` ended."""
        last_access = epoch * EPOCH_ACCESSES - 1
        return self.workload.hot_region(last_access // self.workload.accesses_per_phase)

    def prepare(self) -> None:
        gc.collect()

    def run(self, _inputs: None) -> Tuple[AdaptiveHybridRuntime, int]:
        runtime = AdaptiveHybridRuntime(
            local_memory=max(self.arena // 4, 2 * BASE_PAGE),
            heap_size=self.arena,
            object_size=OBJECT_SIZE,
            epoch_accesses=EPOCH_ACCESSES,
            selector_config=SELECTOR,
        )
        runtime.initialize()
        ptr = runtime.tfm_malloc(self.arena)
        access = runtime.access
        digest = _FNV_OFFSET
        for offset, kind, token in self.stream:
            access(ptr + offset, kind, 8)
            digest = ((digest ^ token) * _FNV_PRIME) & _MASK64
        return runtime, digest

    def result(self, raw) -> RepResult:
        runtime, digest = raw
        m = runtime.metrics
        n = len(self.stream)
        paged = [e for e in runtime.migration_log if e.target is Placement.PAGES]
        return RepResult(
            ops=n,
            values={
                "accesses": m.accesses,
                "pages_only_hot_regions": int(bool(paged) and all(
                    e.region == self._hot_region_at(e.epoch) for e in paged)),
                "digest": digest,
            },
            sim={"sim_cycles_per_op": m.cycles / n},
            counts=_runtime_counts(m, n),
        )


WORKLOADS = {cls.name: cls for cls in (Nas, ServeRead, ServeWrite, HybridPhase)}
