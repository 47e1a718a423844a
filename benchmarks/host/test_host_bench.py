"""Smoke test of the host benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest benchmarks/host -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import compare
import harness
import layers
import run
import workloads

#: Per-workload size scale: each rep takes well under a second.
SCALE = {"nas": 0.03, "serve-read": 0.02, "serve-write": 0.04, "hybrid-phase": 0.02}

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request):
    wl = workloads.WORKLOADS[request.param](seed=3, scale=SCALE[request.param])
    m = harness.measure(wl, seconds=0.0, min_reps=1)
    t = harness.trace(wl, m.checks, m.warm)
    return wl, m, t


def test_benchmark_json_matches_the_harness():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(harness.PER_LAYER)


def test_every_benchmark_metric_is_emitted_with_its_unit(traced):
    _wl, m, t = traced
    emitted = {
        **harness.end_to_end_metrics(m, setup_s=[0.1]),
        **harness.per_layer_metrics(m, t),
    }
    for spec in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert emitted[spec["name"]]["unit"] == spec["unit"], spec["name"]
    for spec in BENCHMARK["end_to_end"]:
        assert emitted[spec["name"]]["value"] > 0, spec["name"]


def test_checks_pass_and_a_wrong_reference_fails(traced):
    wl, m, _t = traced
    assert m.checks.failed == 0, m.checks.failures
    assert m.checks.attempted > 0
    checks = harness.Checks()
    name = next(iter(wl.expected))
    wl.expected[name] += 1
    try:
        harness.run_checked(wl, checks)
    finally:
        wl.expected[name] -= 1
    assert checks.failed == 1
    assert name in checks.failures[0]


def test_two_runs_give_identical_simulated_metrics_and_counts(traced):
    wl, m, _t = traced
    again = harness.run_checked(wl, harness.Checks())
    assert again.sim == m.warm.sim
    assert again.counts == m.warm.counts


def test_a_traced_rep_changes_no_value_or_simulated_metric(traced):
    _wl, m, t = traced
    assert t.result.values == m.warm.values
    assert t.result.sim == m.warm.sim
    assert t.raw_s > 0
    assert sum(t.tracer.layer_calls().values()) > 0


def test_tracer_removes_its_wrappers():
    from repro.sim import decode
    from repro.trackfm.runtime import TrackFMRuntime

    access, decode_module = TrackFMRuntime.access, decode.decode_module
    with layers.SpanTracer(event_limit=0):
        assert TrackFMRuntime.access is not access
    assert TrackFMRuntime.access is access
    assert decode.decode_module is decode_module


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 1.05 for v in steady], 0.1, "higher", False) == "agrees"
    assert compare.verdict(steady, [v * 0.8 for v in steady], 0.1, "higher", False) == "DISAGREES"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(steady, noisy, 0.1, "higher", False) == "unresolved"
    assert compare.verdict(steady, [v * 1.2 for v in steady], 0.1, "higher", True) == "gain"
    assert compare.verdict(steady, [v * 1.2 for v in steady], 0.1, "lower", True) == "REGRESSION"
    assert compare.exact_verdict([(1, 5.0)], [(1, 5.0), (2, 6.0)], False) == "identical"
    assert compare.exact_verdict([(1, 5.0)], [(1, 5.5)], False) == "DIFFERS"


def test_compare_reads_runs_of_one_workload_each():
    def one_run(workload, value):
        return {"seed": 1, "workloads": {workload: {"metrics": {"ops_per_s": {"value": value}}}}}

    runs = [one_run("nas", 100.0), one_run("serve-read", 50.0)]
    spec = {"ops_per_s": {"bound": 0.1, "better": "higher"}}
    rows, ok = compare.compare(runs, runs, spec, claim=False)
    assert ok
    assert [row[0] for row in rows] == ["nas", "serve-read"]


def test_self_time_excludes_child_spans():
    tracer = layers.SpanTracer(event_limit=2)
    outer = tracer.intern("outer", "serve")
    inner = tracer.intern("inner", "trackfm")
    tracer.enter(outer)
    tracer.enter(inner)
    tracer.exit()
    tracer.exit()
    spans = tracer.span_table()
    assert spans["outer"]["incl_s"] >= spans["inner"]["incl_s"]
    assert spans["outer"]["self_s"] == pytest.approx(
        spans["outer"]["incl_s"] - spans["inner"]["incl_s"])
    assert list(tracer.span_parent) == [-1, 0]
    assert tracer.span_start[0] <= tracer.span_start[1] <= tracer.span_end[1] <= tracer.span_end[0]


def test_spans_past_the_event_limit_count_but_keep_no_row():
    tracer = layers.SpanTracer(event_limit=1)
    outer = tracer.intern("outer", "serve")
    inner = tracer.intern("inner", "trackfm")
    tracer.enter(outer)
    for _ in range(3):
        tracer.enter(inner)
        tracer.exit()
    tracer.exit()
    assert tracer.layer_calls()["trackfm"] == 3
    assert tracer.span_table()["inner"]["incl_s"] > 0
    assert len(tracer.span_start) == 1
    assert [e["name"] for e in tracer.chrome_events(0, "t")[1:]] == ["outer"]


def test_seconds_default_to_the_benchmark_run_seconds():
    assert run.parse_args([]).seconds == BENCHMARK["run_seconds"]
    assert run.parse_args(["--seconds", "2"]).seconds == 2
