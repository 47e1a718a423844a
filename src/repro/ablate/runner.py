"""Run one matrix cell under one knob vector; everything else consumes this.

The runner is where knobs become mechanism: a :class:`Knobs` vector is
translated into ``CompilerConfig`` fields (chunking policy, prefetch
flags), the interpreter engine choice, the backends' retry posture,
degraded-mode wiring, and the serving cluster's quota config.  Cell
sizing mirrors the trace drivers (small arenas against smaller local
memory, so every cell pays real fetch/evict traffic) and every input is
seeded, so a :class:`CellRun` is a pure function of ``(spec, knobs)``.

Ablation postures worth spelling out:

* **retry_degrade off** does not mean "crash on the first drop" — that
  would make faulty cells unfinishable and score nothing.  It means the
  *naive* posture: no circuit breaker, no degraded mode, and a patient
  retry policy with an effectively unbounded attempt budget, so every
  loss is paid for in full timeout + backoff cycles.  The cycles delta
  against the baseline is exactly what the resilience layer earns.
* **hybrid_fallback off** keeps the hybrid's two tiers but enables
  degraded mode on the *object* tier, so object-side failures are
  absorbed in place and never reach the page-tier fallback — the
  degrade-in-place posture every non-hybrid runtime uses.
* **decode_cache** has no simulated-cycles effect (it is a host-speed
  optimization), so IR cells also report deterministic *host dispatch
  units* — a fixed-cost dispatch model over interpreter steps — which
  the scorer weighs instead of (banned, non-deterministic) wall-clock.
* **adaptive_selector off** keeps the adaptive runtime's two tiers but
  freezes the selector (``adaptive=False``): no profiling, no epochs,
  every region stays on the object tier — bit-identical to the static
  TrackFM posture, so the delta is exactly what online selection earns.
* **evacuation_policy off** flips every residency set from CLOCK
  second-chance to strict LRU (``use_clock=False``), removing the
  hot-bit protection recently re-touched entries get under pressure.
* **replication off** drops the serving cells from the replicated
  baseline (R=2 quorum writes with version tags and a failure
  detector) to the unreplicated R=1 data plane — the cycles delta is
  the replication tax, and under chaos the durability it buys.

A cell that raises :class:`~repro.errors.FarMemoryUnavailableError` or
:class:`~repro.errors.DataIntegrityError` under an ablation is reported
``ok=False`` rather than crashing the engine; the scorer treats that as
the strongest possible evidence for the component.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.ablate.matrix import CellSpec
from repro.ablate.registry import BASELINE, Knobs
from repro.errors import DataIntegrityError, FarMemoryUnavailableError, ReproError
from repro.integrity import installed_integrity_config
from repro.machine.costs import AccessKind
from repro.net.faults import RetryPolicy, installed_fault_plan
from repro.sim.replay import replay, replay_runtime
from repro.trace.drivers import (
    ARRAY_BYTES,
    DEGRADED_STALL_CYCLES,
    HEAP,
    OBJECT_LOCAL,
    OBJECT_SIZE,
    REPLAY_LOCAL,
    _IR_BUILDERS,
    _PATTERNS,
)
from repro.workloads.extsort import ExternalSortWorkload
from repro.workloads.graph import GraphTraversalWorkload
from repro.workloads.webcache import WebCacheWorkload

#: Per-workload seeds — fixed so every fingerprint in the report is a
#: function of nothing but this file and the code under test.
HASHMAP_SEED = 7
GRAPH_SEED = 1
EXTSORT_SEED = 2

#: The naive retry posture for the retry_degrade ablation: effectively
#: unbounded attempts, so faulty cells always finish (paying in full).
PATIENT_ATTEMPTS = 10_000

#: Deterministic host-dispatch cost model for the decode-cache score
#: (wall-clock is banned from the report).  Legacy re-decodes every
#: dispatched instruction; decoded pays the decode once per instruction
#: and one unit per dispatch.  The units are a fixed model, not a
#: measurement: the measured speedup lives in the BENCH_interp
#: baselines and moves with the engine, while these constants (and the
#: scores recorded in ABLATION_quick.json) do not.
LEGACY_UNITS_PER_STEP = 4.0
DECODED_UNITS_PER_STEP = 1.0
DECODE_UNITS_PER_INSTRUCTION = 4.0

MAX_STEPS = 5_000_000


@dataclass
class CellRun:
    """What one ``(spec, knobs)`` execution produced."""

    ok: bool
    value: Optional[int] = None
    cycles: float = 0.0
    #: Deterministic interpreter-host cost (IR cells; 0 elsewhere).
    host_units: float = 0.0
    #: Canonical sparse ``Metrics.as_dict`` form.
    metrics: Dict[str, object] = field(default_factory=dict)
    #: End-to-end latency percentiles (serving cells; empty elsewhere).
    latency: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None

    def metric(self, key: str, default: float = 0.0) -> float:
        value = self.metrics.get(key, default)
        return float(value)  # type: ignore[arg-type]

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "ok": self.ok,
            "value": self.value,
            "cycles": self.cycles,
            "metrics": dict(self.metrics),
        }
        if self.host_units:
            out["host_units"] = self.host_units
        if self.latency:
            out["latency"] = dict(self.latency)
        if self.error is not None:
            out["error"] = self.error
        return out


def run_cell(spec: CellSpec, knobs: Knobs = BASELINE) -> CellRun:
    """Execute one cell under one knob vector (never raises on cell failure)."""
    try:
        with ExitStack() as stack:
            plan = spec.fault_plan()
            if plan is not None:
                stack.enter_context(installed_fault_plan(plan))
            integ = spec.integrity_config()
            if integ is not None and knobs.integrity_checking:
                stack.enter_context(installed_integrity_config(integ))
            if spec.kind == "ir":
                return _run_ir(spec, knobs)
            if spec.kind == "pattern":
                return _run_pattern(spec, knobs)
            return _run_serving(spec, knobs)
    except (FarMemoryUnavailableError, DataIntegrityError, ReproError) as err:
        return CellRun(ok=False, error=f"{type(err).__name__}: {err}")


# -- resilience posture -------------------------------------------------------


def _arm_resilience(runtime, spec: CellSpec, knobs: Knobs) -> None:
    """Apply the retry/degrade and hybrid-fallback postures to ``runtime``."""
    if spec.scenario == "clean":
        return
    plan = spec.fault_plan()
    if knobs.retry_degrade:
        # The drivers' posture: degraded mode absorbs outages locally
        # (on a static hybrid, its page tier's).
        runtime.enable_degraded_mode(stall_cycles=DEGRADED_STALL_CYCLES)
        if spec.runtime == "hybrid" and not knobs.hybrid_fallback:
            # Degrade-in-place on the object tier: its errors are
            # absorbed before the page-tier fallback can fire.
            runtime.trackfm.enable_degraded_mode(stall_cycles=DEGRADED_STALL_CYCLES)
    else:
        for backend in runtime.remote_backends():
            backend.breaker = None
            backend.retry_policy = RetryPolicy(
                seed=plan.seed if plan is not None else 0,
                max_attempts=PATIENT_ATTEMPTS,
            )


# -- IR cells (trackfm: compile + interpret) ---------------------------------


def _build_ir_module(workload: str):
    if workload == "chase":
        from repro.bench.regress import _build_chase_module

        return _build_chase_module()
    return _IR_BUILDERS[workload](HASHMAP_SEED)


def _run_ir(spec: CellSpec, knobs: Knobs) -> CellRun:
    from repro.aifm.pool import PoolConfig
    from repro.compiler.pipeline import ChunkingPolicy, CompilerConfig, TrackFMCompiler
    from repro.sim.irrun import TrackFMProgram
    from repro.trackfm.runtime import TrackFMRuntime

    module = _build_ir_module(spec.workload)
    config = CompilerConfig(
        object_size=OBJECT_SIZE,
        # ALL, not COST_MODEL: on these CI-sized modules the cost model
        # rejects every candidate (short loops), which would make the
        # knob indistinguishable from NONE — and programmed prefetch
        # only lowers schedules for loops that were actually chunked.
        chunking=(
            ChunkingPolicy.ALL if knobs.chunked_transforms else ChunkingPolicy.NONE
        ),
        enable_prefetch=knobs.stride_prefetcher,
        enable_chase_prefetch=knobs.stride_prefetcher,
        enable_programmed_prefetch=knobs.programmed_prefetch,
    )
    compiled = TrackFMCompiler(config).compile(module)
    runtime = TrackFMRuntime(
        PoolConfig(
            object_size=OBJECT_SIZE,
            local_memory=OBJECT_LOCAL,
            heap_size=HEAP,
            use_clock=knobs.evacuation_policy,
        )
    )
    _arm_resilience(runtime, spec, knobs)
    engine = "decoded" if knobs.decode_cache else "legacy"
    result = TrackFMProgram(
        compiled.module, runtime, max_steps=MAX_STEPS, engine=engine
    ).run("main")
    if knobs.decode_cache:
        host_units = (
            compiled.module.instruction_count() * DECODE_UNITS_PER_INSTRUCTION
            + result.steps * DECODED_UNITS_PER_STEP
        )
    else:
        host_units = result.steps * LEGACY_UNITS_PER_STEP
    return CellRun(
        ok=True,
        value=int(result.value) & 0xFFFFFFFFFFFFFFFF,
        cycles=runtime.metrics.cycles,
        host_units=host_units,
        metrics=runtime.metrics.as_dict(),
    )


# -- pattern cells (access replay on any runtime) ----------------------------


def _pattern_source(
    workload: str,
) -> Tuple[int, Iterator[Tuple[int, AccessKind]], Optional[int]]:
    """``(arena_bytes, access stream, precomputed value-or-None)``."""
    if workload == "graph":
        wl = GraphTraversalWorkload(seed=GRAPH_SEED)
        return wl.arena_bytes, wl.accesses(), wl.value()
    if workload == "extsort":
        wl = ExternalSortWorkload(seed=EXTSORT_SEED)
        return wl.arena_bytes, wl.accesses(), wl.value()
    # stream/hashmap: the trace drivers' patterns; the value is the
    # replay checksum over touched offsets (the drivers' convention).
    return ARRAY_BYTES, _PATTERNS[workload](HASHMAP_SEED), None


def _run_pattern(spec: CellSpec, knobs: Knobs) -> CellRun:
    arena, accesses, value = _pattern_source(spec.workload)
    # The drivers' sizing.  The trackfm kind replays guarded accesses
    # through an encoded pointer (no compiler involved, so the IR-side
    # knobs do not apply); the adaptive knob freezes the selector
    # (every region stays on the object tier), so the delta against
    # baseline is what online selection earns.
    runtime, access = replay_runtime(
        spec.runtime,
        REPLAY_LOCAL[spec.runtime],
        HEAP,
        arena,
        OBJECT_SIZE,
        use_clock=knobs.evacuation_policy,
        prefetch=knobs.stride_prefetcher,
        adaptive=knobs.adaptive_selector,
    )
    _arm_resilience(runtime, spec, knobs)
    checksum = replay(access, accesses)
    return CellRun(
        ok=True,
        value=value if value is not None else checksum,
        cycles=runtime.metrics.cycles,
        metrics=runtime.metrics.as_dict(),
    )


# -- serving cells (webcache through the cluster) ----------------------------


def _run_serving(spec: CellSpec, knobs: Knobs) -> CellRun:
    # Baseline serving posture is replicated (R=2); the ablation drops
    # the cluster back to the unreplicated R=1 data plane.
    report = WebCacheWorkload().run(
        runtime=spec.runtime,
        fault_plan=spec.fault_plan(),
        quotas=knobs.tenant_quotas,
        replication=2 if knobs.replication else 1,
    )
    return CellRun(
        ok=True,
        value=report.completions_fingerprint,
        cycles=report.makespan_cycles,
        metrics=dict(report.metrics),
        latency={k: float(v) for k, v in report.latency_percentiles.items()},
    )
