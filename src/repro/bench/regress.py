"""Benchmark baselines: the perf + semantics regression gate.

Every simulated number in this repro flows through the interpreter, so
the interpreter's speed *and* its exact semantics are product surface.
This module freezes both behind checked-in baselines:

* a **semantic fingerprint** per workload — the return value, the
  dynamic step count, and the full :meth:`Metrics.as_dict` of a
  TrackFM-compiled run on a memory-constrained far-memory runtime.
  Fingerprints must match **exactly**: the simulation is deterministic,
  so any diff is semantic drift, never noise;
* a **wall-clock measurement** — interpreted ops/sec of the raw module
  and the decoded-vs-legacy speedup.  Absolute ops/sec are recorded for
  trend-tracking but are host-specific; the *speedup ratio* is measured
  fresh on both engines each run, transfers across hosts, and may fall
  at most the fraction ``TOLERANCE`` below the recorded one.

:data:`GATE` compares only the fingerprint exactly, then applies the
speedup floor.  Baselines live in
``benchmarks/baselines/BENCH_interp_<name>.json``::

    python -m repro.bench regress --record   # (re)write baselines
    python -m repro.bench regress --check    # gate (CI runs this)

Re-record after an *intentional* semantic or performance change and
commit the diff; ``docs/performance.md`` documents the policy.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench import baseline
from repro.ir.module import Module

#: Workload seeds are fixed: the fingerprints below must be
#: reproducible bit for bit from a clean checkout.
HASHMAP_SEED = 7
CHASE_SEED = 3
CHASE_NODES = 1024
CHASE_NODE_BYTES = 64

#: Perf-measurement shape: one warm-up run per engine (which also pays
#: the decode), then ``REPEATS`` rounds of one timed run per engine.
REPEATS = 5

#: Tolerance band for the decoded-vs-legacy speedup gate: the measured
#: speedup may fall at most this fraction below the recorded one.
#: Fingerprints take no tolerance — they must match exactly.
TOLERANCE = 0.35


def _build_chase_module() -> Module:
    """A linked-list walk in stride-shuffled order (poor locality).

    ``CHASE_NODES`` nodes of ``CHASE_NODE_BYTES``; node ``i`` links to
    node ``(i + stride) mod N`` with an odd, seed-derived stride coprime
    to N, so one walk visits every node in a cache-hostile order.
    """
    from repro.ir import IRBuilder
    from repro.ir.types import I64, PTR
    from repro.ir.values import Constant

    n, node_sz = CHASE_NODES, CHASE_NODE_BYTES
    stride = (2 * CHASE_SEED + 1) * 37 % n | 1
    m = Module("regress_chase")
    f = m.add_function("main", I64)
    entry = f.add_block("entry")
    bh, bb = f.add_block("bh"), f.add_block("bb")
    mid = f.add_block("mid")
    wh, wb = f.add_block("wh"), f.add_block("wb")
    done = f.add_block("done")
    b = IRBuilder(entry)
    base = b.call(PTR, "malloc", [Constant(I64, n * node_sz)], name="base")
    b.br(bh)
    b.set_block(bh)
    i = b.phi(I64, name="i")
    b.condbr(b.icmp("slt", i, n), bb, mid)
    b.set_block(bb)
    node = b.gep(base, i, node_sz)
    b.store(b.mul(i, 3), node)
    nxt_idx = b.and_(b.add(i, stride), n - 1)
    b.store(b.gep(base, nxt_idx, node_sz), b.gep(node, 1, 8))
    i2 = b.add(i, 1)
    b.br(bh)
    i.add_incoming(Constant(I64, 0), entry)
    i.add_incoming(i2, bb)
    b.set_block(mid)
    b.br(wh)
    # Walk exactly n hops starting at node 0, summing payloads.
    b.set_block(wh)
    k = b.phi(I64, name="k")
    p = b.phi(PTR, name="p")
    s = b.phi(I64, name="s")
    b.condbr(b.icmp("slt", k, n), wb, done)
    b.set_block(wb)
    s2 = b.add(s, b.load(I64, p))
    nextp = b.load(PTR, b.gep(p, 1, 8))
    k2 = b.add(k, 1)
    b.br(wh)
    k.add_incoming(Constant(I64, 0), mid)
    k.add_incoming(k2, wb)
    p.add_incoming(base, mid)
    p.add_incoming(nextp, wb)
    s.add_incoming(Constant(I64, 0), mid)
    s.add_incoming(s2, wb)
    b.set_block(done)
    b.ret(s)
    return m


def _build_stream() -> Module:
    from repro.trace.drivers import _build_stream_module

    return _build_stream_module()


def _build_hashmap() -> Module:
    from repro.trace.drivers import _build_hashmap_module

    return _build_hashmap_module(HASHMAP_SEED)


WORKLOADS: Dict[str, Callable[[], Module]] = {
    "stream": _build_stream,
    "hashmap": _build_hashmap,
    "chase": _build_chase_module,
}


# -- measurement --------------------------------------------------------------


def fingerprint_run(build: Callable[[], Module]) -> Dict[str, object]:
    """TrackFM-compile the workload and run it on a small far runtime.

    Returns the exact-match fingerprint: value, interpreter steps, and
    the runtime's canonical :meth:`Metrics.as_dict`.  Everything here is
    deterministic — fixed seeds, ``AlwaysHitCache``, no wall clock.
    """
    from repro.aifm.pool import PoolConfig
    from repro.compiler import CompilerConfig, TrackFMCompiler
    from repro.machine.cache import AlwaysHitCache
    from repro.sim.irrun import TrackFMProgram
    from repro.trackfm.runtime import TrackFMRuntime
    from repro.units import KB, MB

    compiled = TrackFMCompiler(CompilerConfig()).compile(build())
    runtime = TrackFMRuntime(
        PoolConfig(object_size=256, local_memory=2 * KB, heap_size=1 * MB),
        cache=AlwaysHitCache(),
    )
    result = TrackFMProgram(compiled.module, runtime).run("main")
    return {
        "value": result.value,
        "steps": result.steps,
        "metrics": runtime.metrics.as_dict(),
    }


def measure_rates(
    build: Callable[[], Module], rounds: int = REPEATS
) -> Tuple[float, float, int]:
    """Best decoded and legacy rates (ops/s) on the raw module, and its steps.

    An untimed run per engine pays the pre-decode.  Each round then times
    one run of each engine, so both keep a best of ``rounds`` samples and
    a change in host speed reaches them alike.
    """
    from repro.sim.interpreter import Interpreter

    module = build()
    engines = ("decoded", "legacy")
    for engine in engines:
        Interpreter(module, engine=engine).run("main")
    best = dict.fromkeys(engines, float("inf"))
    steps = 0
    for _ in range(rounds):
        for engine in engines:
            interp = Interpreter(module, engine=engine)
            t0 = time.perf_counter()
            steps = interp.run("main").steps
            best[engine] = min(best[engine], time.perf_counter() - t0)
    return steps / best["decoded"], steps / best["legacy"], steps


def measure_bench(name: str) -> Dict[str, object]:
    """Full measurement for one workload: fingerprint + both engines."""
    build = WORKLOADS[name]
    decoded, legacy, steps = measure_rates(build)
    return {
        "bench": f"interp_{name}",
        "fingerprint": fingerprint_run(build),
        "ops_per_sec": decoded,
        "legacy_ops_per_sec": legacy,
        "speedup_vs_legacy": decoded / legacy,
        "interp_steps": steps,
    }


# -- the gate -----------------------------------------------------------------


def _speedup_holds(
    name: str, measured: baseline.Document, recorded: baseline.Document
) -> Tuple[str, str]:
    """The decoded-vs-legacy speedup may fall at most the fraction
    ``TOLERANCE`` below the recorded one; the detail always shows both."""
    got = measured["speedup_vs_legacy"]
    want = recorded.get("speedup_vs_legacy", 0.0)
    detail = f"speedup {got:.2f}x vs baseline {want:.2f}x, {measured['ops_per_sec']:,.0f} ops/s"
    floor = want * (1.0 - TOLERANCE)
    if got < floor:
        return "speedup-regression", f"{detail}, floor {floor:.2f}x"
    return "ok", detail


GATE = baseline.Gate(
    prog="python -m repro.bench regress",
    template="BENCH_interp_{name}.json",
    names=tuple(WORKLOADS),
    measure=measure_bench,
    exact="fingerprint",
    accept=_speedup_holds,
)


def main(argv: Optional[List[str]] = None) -> int:
    description = "Record or check interpreter benchmark baselines."
    return baseline.run(GATE, baseline.parser(GATE, description).parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
