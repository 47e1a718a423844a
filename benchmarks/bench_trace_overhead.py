"""Micro-check: a disabled tracer costs one attribute check, nothing more.

The hot-path contract (see ``repro.trace.tracer``) is that every
instrumentation site compiles down to::

    tracer = self.tracer
    if tracer.enabled:
        ...

so with the shared :data:`~repro.trace.NULL_TRACER` attached the whole
trace layer must be unmeasurable against simulator noise.  This file
both *measures* the ratio (pytest-benchmark reports it) and
*asserts* a generous bound on it, so a regression that puts real work
on the disabled path fails the suite instead of silently taxing every
simulation.
"""

from __future__ import annotations

import time

from repro.aifm.pool import PoolConfig
from repro.machine.costs import AccessKind
from repro.trace import NULL_TRACER, Tracer
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import KB, MB

N_ACCESSES = 20_000
#: Disabled tracing may cost at most this factor over no tracer attached.
#: The true cost is one attribute check (~2% on this path); 1.5x leaves
#: room for timer noise on loaded CI machines while still catching any
#: change that does real work (allocation, formatting) when disabled.
MAX_DISABLED_RATIO = 1.5


def _runtime() -> TrackFMRuntime:
    return TrackFMRuntime(
        PoolConfig(object_size=256, local_memory=2 * KB, heap_size=1 * MB)
    )


def _drive(runtime: TrackFMRuntime, n: int = N_ACCESSES) -> float:
    ptr = runtime.tfm_malloc(16 * KB)
    started = time.perf_counter()
    for i in range(n):
        runtime.access(ptr + (i * 8) % (16 * KB), AccessKind.READ)
    return time.perf_counter() - started


def _best_of(fn, rounds: int = 5) -> float:
    return min(fn() for _ in range(rounds))


def test_disabled_tracer_is_one_attribute_check():
    baseline = _best_of(lambda: _drive(_runtime()))

    disabled = _runtime()
    disabled.set_tracer(NULL_TRACER)
    with_null = _best_of(lambda: _drive(disabled))

    ratio = with_null / baseline if baseline > 0 else 1.0
    assert ratio < MAX_DISABLED_RATIO, (
        f"disabled tracer slowed the guard path {ratio:.2f}x "
        f"(limit {MAX_DISABLED_RATIO}x): something does work while disabled"
    )


def test_enabled_tracer_actually_records():
    runtime = _runtime()
    tracer = Tracer()
    runtime.set_tracer(tracer)
    _drive(runtime, n=2_000)
    assert len(tracer.events) >= 2_000  # every access guards at least once


def test_null_tracer_call_overhead_bounded():
    """Even *un-gated* NullTracer calls stay cheap (cold paths use them)."""
    started = time.perf_counter()
    for _ in range(N_ACCESSES):
        if NULL_TRACER.enabled:
            raise AssertionError("NULL_TRACER must be disabled")
    gate_cost = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(N_ACCESSES):
        NULL_TRACER.counter("c", 0.0, x=1)
    call_cost = time.perf_counter() - started
    # A no-op method call is ~5x an attribute check; 100x is pathological.
    assert call_cost < max(gate_cost, 1e-4) * 100
