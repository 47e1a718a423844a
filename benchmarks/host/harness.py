"""Measurement core of the host benchmark: reps, checks, metrics.

Imports nothing from ``repro`` itself (workload objects are passed in),
so ``compare.py`` can use the metric table without the system on the
path.

Metric kinds:

* ``host`` — host time or memory, compared against a bound.  Times are
  reported in *reference-host seconds*: every timed interval is divided
  by the host's mean slowdown over it, sampled by a short, fixed
  pure-Python probe that a timer runs every 50 ms during the interval
  (see :func:`timed`).  On a shared host, other tenants slowed this
  machine by up to 2.4x, in bursts shorter than a second; raw medians
  then moved by up to 2x from run to run.  Probes run only before and
  after a rep left up to 27% of that in the normalized medians, because
  the load during the rep was not the load around it.  Raw medians are
  recorded beside the normalized values;
* ``exact`` — simulated metrics and counts: deterministic for a given
  seed, so two runs of the same code must agree exactly (bound 0).
  They vary from seed to seed with the inputs, so none is an end-to-end
  metric of ``BENCHMARK.json``, whose bounds also cap the spread across
  seeds; ``compare.py`` checks them per seed instead.
"""

from __future__ import annotations

import resource
import signal
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

import layers

#: Pipeline passes of ``TrackFMCompiler(CompilerConfig())``, in order.
PASSES = (
    "O1", "runtime-init", "guard-analysis", "chunk-analysis",
    "chunk-transform", "chase-prefetch", "guard-transform", "libc-transform",
)

#: End-to-end metrics (untraced runs): name -> (unit, kind).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "ops_per_s": ("op/s", "host"),
    "setup_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
}

#: Per-layer metrics (traced runs) listed in BENCHMARK.json.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{f"{layer}.self_share": ("frac", "host") for layer in layers.LAYERS},
    **{f"{layer}.calls_per_op": ("calls/op", "exact") for layer in layers.LAYERS},
    "harness.self_share": ("frac", "host"),
    "trace_overhead": ("ratio", "host"),
    "trackfm.self_us_per_op": ("us/op", "host"),
    "compiler.inst_growth": ("ratio", "exact"),
    "compiler.guards_inserted": ("count", "exact"),
    "compiler.accesses_chunked": ("count", "exact"),
    "irrun.intrinsics_per_step": ("calls/step", "exact"),
    **{f"trackfm.guards_per_access.{k}": ("guards/access", "exact")
       for k in ("fast", "slow", "boundary", "locality")},
    "trackfm.pointer_calls_per_access": ("calls/access", "exact"),
    "trackfm.log2_calls_per_access": ("calls/access", "exact"),
    "aifm.miss_ratio": ("frac", "exact"),
    "aifm.evictions_per_op": ("evictions/op", "exact"),
    "aifm.prefetch_useful_ratio": ("frac", "exact"),
    "net.bytes_per_op": ("B/op", "exact"),
    "net.retries_per_fetch": ("retries/fetch", "exact"),
    "net.drops_per_op": ("drops/op", "exact"),
    "fastswap.major_faults_per_op": ("faults/op", "exact"),
    "hybrid.tier_switches": ("count", "exact"),
    "hybrid.migrated_per_op": ("objects/op", "exact"),
    "serve.quorum_reads_per_req": ("reads/req", "exact"),
    "serve.replica_writes_per_req": ("writes/req", "exact"),
    "serve.read_repairs": ("count", "exact"),
    "serve.promoted_keys": ("count", "exact"),
    "serve.sim_wait_share": ("frac", "exact"),
    "sim_cycles_per_op": ("cycles", "exact"),
    "sim_p50_cycles": ("cycles", "exact"),
    "sim_p999_cycles": ("cycles", "exact"),
    "sim_req_per_mcycle": ("req/Mcycle", "exact"),
    "sim_degraded_frac": ("frac", "exact"),
}

#: Per-layer times reported beside PER_LAYER but left out of
#: BENCHMARK.json: each reads exactly 0 on every workload that never
#: enters its layer, so only ``nas`` (or the ``serve-*`` pair) moves it.
LAYER_TIMES: Dict[str, Tuple[str, str]] = {
    "compile_ms": ("ms", "host"),
    **{f"compiler.pass_ms.{p}": ("ms", "host") for p in PASSES},
    "sim.decode_ms": ("ms", "host"),
    "sim.self_us_per_op": ("us/op", "host"),
    "serve.self_us_per_op": ("us/op", "host"),
}

METRICS = {**END_TO_END, **PER_LAYER, **LAYER_TIMES}

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: Fewest timed reps per run, whatever ``--seconds`` says.
MIN_REPS = 3
#: Spans kept for the Chrome trace per workload (layers.json sums all).
TRACE_EVENT_LIMIT = 25_000


# -- host clock ------------------------------------------------------------------

#: Iterations of :func:`_calibration_work` in one probe (about 2 ms).
PROBE_ITERATIONS = 6000
#: Median time of one probe on the host the bounds were calibrated on
#: (2 vCPUs, CPython 3.11), over 24,000 probes in a quiet 25 minutes:
#: the unit of reported seconds.
CALIBRATION_S = 0.00217
#: Seconds between the probes a timed call is interrupted by.
PROBE_INTERVAL_S = 0.05
#: The workloads slow down less than the probe does: by its slowdown to
#: this power, fitted by least squares over 80 runs (two ten-seed sweeps
#: of the four workloads) at probe slowdowns of 0.9x to 1.7x.
SLOWDOWN_EXPONENT = 0.9


def _mix(x: int) -> int:
    return (x * 0x9E3779B1 >> 7) & 0xFFFF


def _calibration_work(n: int) -> int:
    """Fixed pure-Python work shaped like the simulator's own: dict and
    list traffic, calls and integer arithmetic."""
    table: Dict[int, int] = {}
    ring = [0] * 64
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & 1023
        acc = (acc + table.get(key, i)) & 0xFFFFFF
        table[key] = acc
        ring[i & 63] = acc >> 3
        acc ^= _mix(ring[(i + 7) & 63])
    return acc


def _probe() -> float:
    """Seconds one probe takes now."""
    started = perf_counter()
    _calibration_work(PROBE_ITERATIONS)
    return perf_counter() - started


def _mean_slowdown(probe_s: Sequence[float]) -> float:
    """The slowdown at which work progressed over the probed time: from
    the mean of the probes' speeds."""
    probe_slowdown = len(probe_s) / sum(CALIBRATION_S / s for s in probe_s)
    return probe_slowdown ** SLOWDOWN_EXPONENT


def slowdown(probes: int = 5) -> float:
    """How many times slower than the reference host this one runs now."""
    return _mean_slowdown([_probe() for _ in range(probes)])


def timed(fn: Callable[[], object]) -> Tuple[object, float, float]:
    """``(fn(), seconds fn ran, mean slowdown meanwhile)``; the call took
    ``seconds / slowdown`` reference-host seconds.

    A timer interrupts ``fn`` every :data:`PROBE_INTERVAL_S` to run one
    probe, so the slowdown is sampled evenly over the call, bursts of load
    from other tenants included.  The probes' own time is not counted as
    ``fn``'s.  A call too short for a single probe gets :func:`slowdown`
    right after it.
    """
    probe_s: List[float] = []

    def on_timer(_signum, _frame) -> None:
        probe_s.append(_probe())

    previous = signal.signal(signal.SIGALRM, on_timer)
    try:
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        started = perf_counter()
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - started - sum(probe_s)
    finally:
        signal.signal(signal.SIGALRM, previous)
    slow = _mean_slowdown(probe_s) if probe_s else slowdown()
    return out, elapsed, slow


# -- metric entries -----------------------------------------------------------------


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def metric(name: str, values: Sequence[float], raw: Sequence[float] = ()) -> Dict[str, object]:
    """A metric entry: median, quartiles and n of ``values``, plus the
    median of the unnormalized ``raw`` values when given."""
    unit, kind = METRICS[name]
    entry = {**summary(values), "unit": unit, "kind": kind}
    if raw:
        entry["raw_median"] = statistics.median(raw)
    return entry


# -- reps and checks -----------------------------------------------------------------


@dataclass
class Checks:
    """Outputs checked against the reference, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def add(self, attempted: int, failures: List[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.failures.extend(failures[: max(0, 5 - len(self.failures))])

    def expect_equal(self, what: str, got, want) -> None:
        self.add(1, [] if got == want else [f"{what} differs from the warm-up rep"])


def timed_setups(make: Callable[[], object], import_s: float) -> Tuple[object, List[float]]:
    """Build the workload ``SETUP_REPEATS`` times; returns the last one
    and each set-up's reference-host seconds, import time included."""
    imported = import_s / slowdown()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        wl, elapsed, slow = timed(make)
        setup_s.append(imported + elapsed / slow)
    return wl, setup_s


@dataclass
class Measurement:
    """The untraced reps of one workload."""

    warm: object
    #: Per rep: raw seconds and the host's mean slowdown over it.
    raw_s: List[float]
    slow: List[float]
    ops: List[int]
    compile_s: List[float]
    peak_rss_mb: float
    checks: Checks

    @property
    def rep_s(self) -> List[float]:
        """Reference-host seconds per rep."""
        return [t / s for t, s in zip(self.raw_s, self.slow)]


def run_checked(wl, checks: Checks):
    """One rep, untimed end to end; returns its :class:`RepResult`."""
    res = wl.result(wl.run(wl.prepare()))
    checks.add(*wl.check(res))
    return res


def measure(wl, seconds: float, min_reps: int = MIN_REPS) -> Measurement:
    """A warm-up rep, then timed reps until ``seconds`` have passed.

    Every rep's outputs are checked, and its simulated metrics and
    counts must equal the warm-up rep's (the simulation is
    deterministic, so any difference is a bug, not noise).
    """
    checks = Checks()
    warm = run_checked(wl, checks)
    m = Measurement(warm, [], [], [], [], 0.0, checks)
    deadline = perf_counter() + seconds
    while len(m.raw_s) < min_reps or perf_counter() < deadline:
        inputs = wl.prepare()
        raw, elapsed, slow = timed(lambda: wl.run(inputs))
        res = wl.result(raw)
        m.raw_s.append(elapsed)
        m.slow.append(slow)
        m.ops.append(res.ops)
        m.compile_s.append(res.compile_s / slow)
        checks.add(*wl.check(res))
        checks.expect_equal("simulated metrics", res.sim, warm.sim)
        checks.expect_equal("per-layer counts", res.counts, warm.counts)
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def end_to_end_metrics(m: Measurement, setup_s: List[float]) -> Dict[str, Dict]:
    """The :data:`END_TO_END` metrics, plus ``sim_cycles_per_op`` so that
    every untraced run records one simulated metric for ``compare.py``."""
    return {
        "ops_per_s": metric(
            "ops_per_s",
            [n / t for n, t in zip(m.ops, m.rep_s)],
            raw=[n / t for n, t in zip(m.ops, m.raw_s)],
        ),
        "setup_s": metric("setup_s", setup_s),
        "peak_rss_mb": metric("peak_rss_mb", [m.peak_rss_mb]),
        "sim_cycles_per_op": metric("sim_cycles_per_op", [m.warm.sim["sim_cycles_per_op"]]),
    }


# -- the traced rep ---------------------------------------------------------------------


@dataclass
class Trace:
    """One traced rep plus the count pass."""

    tracer: layers.SpanTracer
    #: Raw seconds of the traced rep and the host's slowdown after it.
    raw_s: float
    slow: float
    result: object
    ncalls: Dict[str, int]


def trace(wl, checks: Checks, warm) -> Trace:
    """One rep with spans installed, then one cProfile count pass.

    Both must leave outputs and simulated metrics exactly as the
    untraced warm-up rep had them.
    """
    inputs = wl.prepare()
    # Not timed(): a probe's time would land in whichever span was open.
    with layers.SpanTracer(TRACE_EVENT_LIMIT) as tracer:
        started = perf_counter()
        raw = wl.run(inputs)
        elapsed = perf_counter() - started
    slow = slowdown()
    res = wl.result(raw)
    checks.add(*wl.check(res))
    checks.expect_equal("traced simulated metrics", res.sim, warm.sim)
    checks.expect_equal("traced outputs", res.values, warm.values)
    inputs = wl.prepare()
    ncalls = layers.count_calls(lambda: wl.run(inputs))
    return Trace(tracer, elapsed, slow, res, ncalls)


def _layer_table(t: Trace) -> Dict[str, Dict[str, float]]:
    """Raw self seconds, share of the traced rep and calls per layer."""
    self_s = t.tracer.layer_self_s()
    calls = t.tracer.layer_calls()
    self_s["harness"] = t.raw_s - sum(self_s.values())
    calls["harness"] = 0
    return {
        layer: {"self_s": s, "self_share": s / t.raw_s, "calls": calls[layer]}
        for layer, s in self_s.items()
    }


def per_layer_metrics(m: Measurement, t: Trace) -> Dict[str, Dict]:
    """Per-layer metrics and layer times from the traced rep."""
    warm = m.warm
    ops = warm.ops
    table = _layer_table(t)
    spans = t.tracer.span_table()
    values: Dict[str, float] = dict.fromkeys({**PER_LAYER, **LAYER_TIMES}, 0.0)
    for layer, row in table.items():
        values[f"{layer}.self_share"] = row["self_share"]
        if layer != "harness":
            values[f"{layer}.calls_per_op"] = row["calls"] / ops
    for layer in ("sim", "trackfm", "serve"):
        values[f"{layer}.self_us_per_op"] = table[layer]["self_s"] * 1e6 / t.slow / ops
    values["trace_overhead"] = t.raw_s / t.slow / statistics.median(m.rep_s)

    def span_ms(name: str) -> float:
        return spans.get(name, {}).get("incl_s", 0.0) * 1e3 / t.slow

    for p in PASSES:
        values[f"compiler.pass_ms.{p}"] = span_ms(f"pass:{p}")
    values["sim.decode_ms"] = span_ms("decode_module")
    if table["sim"]["calls"]:
        values["irrun.intrinsics_per_step"] = table["irrun"]["calls"] / ops
    accesses = warm.counts["accesses"]
    if accesses:
        values["trackfm.pointer_calls_per_access"] = (
            sum(t.ncalls[h] for h in layers.POINTER_HELPERS) / accesses
        )
        values["trackfm.log2_calls_per_access"] = (
            sum(t.ncalls[h] for h in layers.LOG2_HELPERS) / accesses
        )
    for name, value in {**warm.counts, **warm.sim}.items():
        if name in values:
            values[name] = value
    out = {name: metric(name, [value]) for name, value in values.items()}
    out["compile_ms"] = metric("compile_ms", [s * 1e3 for s in m.compile_s])
    # Latency percentiles are over the simulated requests, not over reps.
    for name in ("sim_p50_cycles", "sim_p999_cycles"):
        out[name]["n"] = int(warm.sim.get("sim_latency_n", 0))
    return out


def layers_report(m: Measurement, t: Trace) -> Dict[str, object]:
    """The ``layers.json`` entry of one workload, in raw host seconds."""
    return {
        "ops": m.warm.ops,
        "traced_s": t.raw_s,
        "slowdown": t.slow,
        "untraced_median_s": statistics.median(m.raw_s),
        "layers": _layer_table(t),
        "spans": t.tracer.span_table(),
        "ncalls": t.ncalls,
    }
