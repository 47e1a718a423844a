"""Traceable workload drivers: what ``python -m repro.trace`` runs.

Each registered workload is a small, deterministic program shape —
``stream`` (sequential write-then-sum passes) and ``hashmap`` (an
LCG-scattered probe loop) — runnable under any of the five runtime
kinds.  Under ``trackfm`` the workload is built as IR, compiled
through the full pipeline (so the trace carries ``pass`` events), and
interpreted on a far-memory runtime (``guard``/``fetch`` events).
The other kinds replay the same access pattern through the runtime
:func:`repro.sim.replay.replay_runtime` builds.

Everything here is deterministic for a given ``(workload, runtime,
seed)``: no wall-clock or ``random`` state leaks into the simulated
event stream, which is what makes golden-trace snapshots possible.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.errors import TraceError
from repro.integrity import IntegrityConfig, installed_integrity_config
from repro.machine.costs import AccessKind
from repro.net.faults import FaultPlan, default_fault_plan, installed_fault_plan
from repro.sim.metrics import Metrics
from repro.sim.replay import LCG_ADD, LCG_MUL, replay, replay_runtime
from repro.trace.tracer import Tracer
from repro.units import KB, MB

#: Elements per workload array (power of two: the hashmap IR masks).
N_ELEMS = 1024
ELEM = 8
ARRAY_BYTES = N_ELEMS * ELEM

#: Compile-time object size for object-granular runtimes.
OBJECT_SIZE = 256
#: Local memory small enough that the array does not fit (forces
#: fetch/evict traffic, which is the point of a trace).
OBJECT_LOCAL = 2 * KB
PAGE_LOCAL = 4 * KB
HEAP = 1 * MB

#: Local memory per replay kind: both hybrids pool the two budgets.
REPLAY_LOCAL = {
    "trackfm": OBJECT_LOCAL,
    "aifm": OBJECT_LOCAL,
    "fastswap": PAGE_LOCAL,
    "hybrid": OBJECT_LOCAL + PAGE_LOCAL,
    "adaptive": OBJECT_LOCAL + PAGE_LOCAL,
}

#: Stall charged per degraded access when a fault plan is active.  The
#: drivers enable degraded mode so a harsh ``--faults`` plan (long pause
#: windows) degrades the run instead of killing it; program values are
#: computed in host memory either way, so this only affects cost/metrics.
DEGRADED_STALL_CYCLES = 1_000.0


# -- access-pattern generators ---------------------------------------------


def _stream_pattern(seed: int) -> Iterator[Tuple[int, AccessKind]]:
    """Write pass then read pass over the whole array, in order."""
    del seed  # the stream shape is seed-independent
    for i in range(N_ELEMS):
        yield i * ELEM, AccessKind.WRITE
    for i in range(N_ELEMS):
        yield i * ELEM, AccessKind.READ


def _hashmap_pattern(seed: int) -> Iterator[Tuple[int, AccessKind]]:
    """Sequential init writes, then 2N LCG-scattered probe reads."""
    for i in range(N_ELEMS):
        yield i * ELEM, AccessKind.WRITE
    state = seed & 0xFFFFFFFF
    for _ in range(2 * N_ELEMS):
        state = (state * LCG_MUL + LCG_ADD) & 0xFFFFFFFF
        yield (state & (N_ELEMS - 1)) * ELEM, AccessKind.READ


_PATTERNS: Dict[str, Callable[[int], Iterator[Tuple[int, AccessKind]]]] = {
    "stream": _stream_pattern,
    "hashmap": _hashmap_pattern,
}


# -- IR builders (the trackfm path compiles and interprets these) -----------


def _build_stream_module():
    """``p[i] = i`` for all i, then ``sum p[i]``; returns n*(n-1)/2."""
    from repro.ir import IRBuilder, Module
    from repro.ir.types import I64, PTR
    from repro.ir.values import Constant

    n = N_ELEMS
    m = Module("trace_stream")
    f = m.add_function("main", I64)
    entry = f.add_block("entry")
    wh, wb = f.add_block("wh"), f.add_block("wb")
    mid = f.add_block("mid")
    rh, rb = f.add_block("rh"), f.add_block("rb")
    exit_ = f.add_block("exit")
    b = IRBuilder(entry)
    p = b.call(PTR, "malloc", [Constant(I64, n * ELEM)], name="p")
    b.br(wh)
    b.set_block(wh)
    i = b.phi(I64, name="i")
    b.condbr(b.icmp("slt", i, n), wb, mid)
    b.set_block(wb)
    b.store(i, b.gep(p, i, ELEM))
    i2 = b.add(i, 1)
    b.br(wh)
    i.add_incoming(Constant(I64, 0), entry)
    i.add_incoming(i2, wb)
    b.set_block(mid)
    b.br(rh)
    b.set_block(rh)
    j = b.phi(I64, name="j")
    s = b.phi(I64, name="s")
    b.condbr(b.icmp("slt", j, n), rb, exit_)
    b.set_block(rb)
    v = b.load(I64, b.gep(p, j, ELEM))
    s2 = b.add(s, v)
    j2 = b.add(j, 1)
    b.br(rh)
    j.add_incoming(Constant(I64, 0), mid)
    j.add_incoming(j2, rb)
    s.add_incoming(Constant(I64, 0), mid)
    s.add_incoming(s2, rb)
    b.set_block(exit_)
    b.ret(s)
    return m


def _build_hashmap_module(seed: int):
    """Init ``p[i] = 3i+1``, then sum N LCG-probed slots.

    The probe index is ``((j*MUL + seed') & (n-1))`` — the same family
    of indices :func:`_hashmap_pattern` replays on the other runtimes.
    """
    from repro.ir import IRBuilder, Module
    from repro.ir.types import I64, PTR
    from repro.ir.values import Constant

    n = N_ELEMS
    m = Module("trace_hashmap")
    f = m.add_function("main", I64)
    entry = f.add_block("entry")
    wh, wb = f.add_block("wh"), f.add_block("wb")
    mid = f.add_block("mid")
    rh, rb = f.add_block("rh"), f.add_block("rb")
    exit_ = f.add_block("exit")
    b = IRBuilder(entry)
    p = b.call(PTR, "malloc", [Constant(I64, n * ELEM)], name="p")
    b.br(wh)
    b.set_block(wh)
    i = b.phi(I64, name="i")
    b.condbr(b.icmp("slt", i, n), wb, mid)
    b.set_block(wb)
    b.store(b.add(b.mul(i, 3), 1), b.gep(p, i, ELEM))
    i2 = b.add(i, 1)
    b.br(wh)
    i.add_incoming(Constant(I64, 0), entry)
    i.add_incoming(i2, wb)
    b.set_block(mid)
    b.br(rh)
    b.set_block(rh)
    j = b.phi(I64, name="j")
    s = b.phi(I64, name="s")
    b.condbr(b.icmp("slt", j, n), rb, exit_)
    b.set_block(rb)
    h = b.add(b.mul(j, LCG_MUL), (seed & 0xFFFFFFFF) + LCG_ADD)
    idx = b.and_(h, n - 1)
    v = b.load(I64, b.gep(p, idx, ELEM))
    s2 = b.add(s, v)
    j2 = b.add(j, 1)
    b.br(rh)
    j.add_incoming(Constant(I64, 0), mid)
    j.add_incoming(j2, rb)
    s.add_incoming(Constant(I64, 0), mid)
    s.add_incoming(s2, rb)
    b.set_block(exit_)
    b.ret(s)
    return m


_IR_BUILDERS = {
    "stream": lambda seed: _build_stream_module(),
    "hashmap": _build_hashmap_module,
}


# -- result ------------------------------------------------------------------


@dataclass
class TraceRunResult:
    """One traced run: the tracer plus what the workload computed."""

    workload: str
    runtime: str
    seed: int
    tracer: Tracer
    #: Program result (trackfm interprets real IR; replay drivers
    #: report the checksum of touched offsets).
    value: Optional[int]
    cycles: float
    #: Final runtime counters (the canonical ``Metrics.as_dict`` form
    #: lands in the Chrome trace's ``otherData``).
    metrics: Metrics

    def metadata(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "runtime": self.runtime,
            "seed": self.seed,
            "value": self.value,
            "cycles": self.cycles,
            "metrics": self.metrics.as_dict(),
        }


# -- per-runtime drivers ------------------------------------------------------


def _run_trackfm(workload: str, seed: int, tracer: Tracer) -> TraceRunResult:
    from repro.aifm.pool import PoolConfig
    from repro.compiler.pipeline import CompilerConfig, TrackFMCompiler
    from repro.sim.irrun import TrackFMProgram
    from repro.trackfm.runtime import TrackFMRuntime

    module = _IR_BUILDERS[workload](seed)
    config = CompilerConfig(object_size=OBJECT_SIZE)
    TrackFMCompiler(config).compile(module, tracer=tracer)
    runtime = TrackFMRuntime(
        PoolConfig(
            object_size=OBJECT_SIZE, local_memory=OBJECT_LOCAL, heap_size=HEAP
        )
    )
    runtime.set_tracer(tracer)
    if default_fault_plan() is not None:
        runtime.enable_degraded_mode(stall_cycles=DEGRADED_STALL_CYCLES)
    with tracer.phase(f"workload:{workload}", lambda: runtime.metrics.cycles):
        result = TrackFMProgram(module, runtime, max_steps=5_000_000).run("main")
    return TraceRunResult(
        workload, "trackfm", seed, tracer, result.value,
        runtime.metrics.cycles, runtime.metrics.snapshot(),
    )


def _run_replay(runtime_name: str, workload: str, seed: int, tracer: Tracer) -> TraceRunResult:
    """Replay the workload's access pattern with phase bracketing."""
    runtime, access = replay_runtime(
        runtime_name, REPLAY_LOCAL[runtime_name], HEAP, ARRAY_BYTES, OBJECT_SIZE
    )
    runtime.set_tracer(tracer)
    if default_fault_plan() is not None:
        # A static hybrid arms its page tier: its object tier falls
        # back to the page tier on its own.
        runtime.enable_degraded_mode(stall_cycles=DEGRADED_STALL_CYCLES)
    with tracer.phase(f"workload:{workload}", lambda: runtime.metrics.cycles):
        checksum = replay(access, _PATTERNS[workload](seed))
    return TraceRunResult(
        workload, runtime_name, seed, tracer, checksum, runtime.metrics.cycles,
        runtime.metrics.snapshot(),
    )


def _run_serve(
    runtime_name: str, seed: int, tracer: Tracer, replication: int = 1
) -> TraceRunResult:
    """The ``serve`` workload: a small sharded cluster under chaos.

    Unlike the replay workloads, this one is not an access pattern over
    one runtime — it stands up a 3-shard cluster of ``runtime_name``
    shards, drives seeded open-loop traffic through the discrete-event
    simulation, and knocks a shard out (then rebalances) mid-run, so
    the trace shows the whole serving story: ``serve`` request
    completions, ``shard_lost``/``rebalance`` markers, and the
    per-shard ``retry``/``degrade`` storms a knockout causes.  With
    ``replication > 1`` the knockout exercises the quorum path instead:
    the trace gains ``replica`` events (suspect, failover, read repair)
    and the failed shard's keys survive with their write history.
    """
    from repro.serve.cluster import ClusterConfig, ShardedCluster
    from repro.serve.simulation import ChaosAction, ServingSimulation
    from repro.serve.traffic import TrafficConfig, generate_schedule

    cluster = ShardedCluster(
        ClusterConfig(
            n_shards=3,
            n_keys=96,
            runtime=runtime_name,
            local_memory=OBJECT_LOCAL,
            seed=seed,
            fault_plan=default_fault_plan(),
            replication=replication,
        ),
        tracer=tracer,
    )
    schedule = generate_schedule(
        TrafficConfig(clients=12, requests_per_client=20, n_keys=96, seed=seed)
    )
    mid = float(schedule.times[len(schedule) // 2])
    end = float(schedule.times[-1])
    chaos = (
        ChaosAction(mid, "lose", 1),
        ChaosAction((mid + end) / 2.0, "rebalance"),
    )
    with tracer.phase("workload:serve", lambda: cluster.merged_metrics().cycles):
        report = ServingSimulation(cluster, schedule, chaos).run()
    return TraceRunResult(
        "serve", runtime_name, seed, tracer,
        report.completions_fingerprint & 0xFFFFFFFF,
        report.makespan_cycles, cluster.merged_metrics(),
    )


RUNTIMES: Dict[str, Callable[[str, int, Tracer], TraceRunResult]] = {
    "trackfm": _run_trackfm,
    **{
        name: partial(_run_replay, name)
        for name in ("aifm", "fastswap", "hybrid", "adaptive")
    },
}

WORKLOADS: Tuple[str, ...] = tuple(sorted((*_PATTERNS, "serve")))


def run_traced(
    workload: str,
    runtime: str,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    fault_plan: Optional[FaultPlan] = None,
    integrity: Optional[IntegrityConfig] = None,
    replication: int = 1,
) -> TraceRunResult:
    """Run ``workload`` under ``runtime`` with tracing on; returns the run.

    With ``fault_plan`` set, the plan is installed as the process
    default for the duration of the run: the runtime's backends come up
    fault-injected with a retry policy and breaker, and the runtimes run
    in degraded mode (losses never change program values — only cost
    and resilience counters).

    With ``integrity`` set, it is installed the same way: every backend
    the run builds comes up with an attached
    :class:`~repro.integrity.IntegrityChecker`, so fetched payloads are
    checksum-verified (and, with data-fault rates in the plan,
    corrupted / repaired / quarantined deterministically).

    ``replication`` only applies to the ``serve`` workload (it sizes
    the cluster's replica sets); the replay workloads run on a single
    runtime and reject any other value.
    """
    if workload not in WORKLOADS:
        raise TraceError(
            f"unknown workload {workload!r}; have {sorted(WORKLOADS)}"
        )
    if runtime not in RUNTIMES:
        raise TraceError(
            f"unknown runtime {runtime!r}; have {sorted(RUNTIMES)}"
        )
    if replication != 1 and workload != "serve":
        raise TraceError(
            f"--replication applies only to the 'serve' workload, not {workload!r}"
        )
    if tracer is None:
        tracer = Tracer()
    with ExitStack() as stack:
        if fault_plan is not None:
            stack.enter_context(installed_fault_plan(fault_plan))
        if integrity is not None:
            stack.enter_context(installed_integrity_config(integrity))
        if workload == "serve":
            return _run_serve(runtime, seed, tracer, replication=replication)
        return RUNTIMES[runtime](workload, seed, tracer)
