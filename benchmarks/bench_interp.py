"""Interpreter microbenchmarks: stream + hashmap + pointer-chase.

Each workload is measured at fixed seeds in two ways, mirroring
``repro.bench.regress``:

* wall-clock ops/sec of the decoded engine on the raw module (with the
  decoded-vs-legacy speedup attached — the decode cache's reason to
  exist, asserted >= 3x on the stream workload);
* the exact simulated-metric fingerprint of a TrackFM-compiled run,
  compared by the regress gate's exact part against the checked-in
  ``benchmarks/baselines/BENCH_interp_*.json`` (the CI gate runs the
  same comparison via ``python -m repro.bench regress --check``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.baseline import mismatch
from repro.bench.regress import GATE, WORKLOADS, fingerprint_run, measure_ops

BASELINE_DIR = Path(__file__).parent / "baselines"

#: Acceptance floor for the pre-decode overhaul (stream microbench).
MIN_STREAM_SPEEDUP = 3.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_interp_ops_per_sec(benchmark, name):
    """Steady-state decoded-engine interpretation rate."""
    build = WORKLOADS[name]

    def run():
        return measure_ops(build, "decoded", repeats=3)

    decoded = benchmark.pedantic(run, rounds=1, iterations=1)
    legacy = measure_ops(build, "legacy", repeats=3)
    speedup = decoded["ops_per_sec"] / legacy["ops_per_sec"]
    benchmark.extra_info["ops_per_sec"] = decoded["ops_per_sec"]
    benchmark.extra_info["legacy_ops_per_sec"] = legacy["ops_per_sec"]
    benchmark.extra_info["speedup_vs_legacy"] = speedup
    benchmark.extra_info["interp_steps"] = decoded["steps"]
    print(
        f"\n{name}: {decoded['ops_per_sec']:,.0f} ops/s decoded, "
        f"{legacy['ops_per_sec']:,.0f} ops/s legacy ({speedup:.2f}x)"
    )
    if name == "stream":
        assert speedup >= MIN_STREAM_SPEEDUP, (
            f"decoded engine only {speedup:.2f}x over legacy on stream "
            f"(floor {MIN_STREAM_SPEEDUP}x)"
        )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_interp_fingerprint_matches_baseline(benchmark, name):
    """Simulated metrics must match the recorded baseline exactly."""
    path = GATE.path(name, BASELINE_DIR)
    if not path.exists():
        pytest.skip(f"no baseline at {path}; run: {GATE.record_command(name)}")
    recorded = json.loads(path.read_text())

    fingerprint = benchmark.pedantic(
        fingerprint_run, args=(WORKLOADS[name],), rounds=1, iterations=1
    )
    benchmark.extra_info["fingerprint"] = fingerprint
    drift = mismatch(GATE, {"fingerprint": fingerprint}, recorded)
    assert not drift, (
        f"{name}: simulated-metric fingerprint drifted from {path}: {drift}; "
        f"if the change is intentional, re-record with "
        f"`{GATE.record_command(name)}` and commit the diff"
    )
