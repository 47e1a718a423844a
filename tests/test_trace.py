"""Unit tests for the trace layer: tracer, exporters, CLI, wiring."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.aifm.pool import PoolConfig
from repro.errors import TraceError
from repro.machine.costs import AccessKind, GuardKind
from repro.trace import (
    ALL_CATEGORIES,
    CAT_FETCH,
    CAT_GUARD,
    CAT_PASS,
    NULL_TRACER,
    NullTracer,
    StreamingHistogram,
    Tracer,
    export_chrome_trace,
    export_jsonl,
    normalize_events,
    run_traced,
    to_chrome_events,
)
from repro.trace.export import PID_COMPILER, PID_RUNTIME
from repro.units import KB, MB


class TestNullTracer:
    def test_disabled_and_shared(self):
        from repro.fastswap.runtime import FastswapConfig, FastswapRuntime
        from repro.trackfm.runtime import TrackFMRuntime

        assert NULL_TRACER.enabled is False
        rt = TrackFMRuntime(
            PoolConfig(object_size=256, local_memory=1 * KB, heap_size=1 * MB)
        )
        fs = FastswapRuntime(FastswapConfig(local_memory=16 * KB, heap_size=1 * MB))
        assert rt.tracer is NULL_TRACER
        assert rt.guards.tracer is NULL_TRACER
        assert fs.tracer is NULL_TRACER

    def test_all_methods_are_noops(self):
        t = NullTracer()
        t.emit("cat", "name", 0.0)
        t.guard(GuardKind.FAST, 1, AccessKind.READ, 0.0, 21.0)
        t.fetch(256, 1000.0, 0.0)
        t.evict(256, 0.0)
        t.prefetch(256, 0.0, useful=True)
        t.pass_event("p", 0.0, 1.0, 10, 12)
        t.counter("c", 0.0, x=1)
        with t.phase("p"):
            pass
        # Histogram sink is a throwaway, not shared state.
        t.histogram("h").record(5)
        assert t.histogram("h").count == 0


class TestTracer:
    def test_categories_and_counts(self):
        t = Tracer()
        t.guard(GuardKind.FAST, 3, AccessKind.READ, 100.0, 21.0)
        t.guard(GuardKind.SLOW, 3, AccessKind.WRITE, 200.0, 700.0)
        t.fetch(256, 31000.0, 300.0, obj_id=3)
        t.evict(256, 400.0, dirty=1)
        t.prefetch(512, 500.0, useful=False, n=2)
        counts = t.category_counts()
        assert counts == {"guard": 2, "fetch": 1, "evict": 1, "prefetch": 1}
        assert t.events[0].name == GuardKind.FAST.value

    def test_fetch_feeds_histograms(self):
        t = Tracer()
        t.fetch(512, 30000.0, 0.0, n=2)
        t.fetch(256, 50000.0, 1.0)
        lat = t.histograms["fetch_latency_cycles"]
        assert lat.count == 3
        assert t.histograms["fetch_bytes"].count == 3

    def test_max_events_drops_not_grows(self):
        t = Tracer(max_events=3)
        for i in range(10):
            t.counter("c", float(i), x=i)
        assert len(t.events) == 3
        assert t.dropped == 7
        assert t.summary()["dropped"] == 7

    def test_phase_stamps_event_count_without_clock(self):
        t = Tracer()
        with t.phase("span"):
            t.counter("inside", 1.0)
        names = [(e.name, e.ph) for e in t.events]
        assert names == [("span", "B"), ("inside", "C"), ("span", "E")]


class TestHistogram:
    def test_small_values_exact(self):
        h = StreamingHistogram()
        for v in (1, 2, 3, 3, 3, 10):
            h.record(v)
        assert h.percentile(50) == 3
        assert h.min == 1 and h.max == 10

    def test_bad_merge_rejected(self):
        with pytest.raises(TraceError):
            StreamingHistogram(sub_bits=4).merge(StreamingHistogram(sub_bits=5))


class TestChromeExport:
    def _trace(self):
        t = Tracer()
        t.pass_event("mem2reg", 1000.0, 250.0, 100, 80)
        t.guard(GuardKind.FAST, 0, AccessKind.READ, 10.0, 21.0)
        t.fetch(256, 31000.0, 20.0, obj_id=1)
        t.counter("residency", 30.0, resident=4)
        return t

    def test_two_clock_domains_as_processes(self):
        rows = to_chrome_events(self._trace().events)
        meta = [r for r in rows if r["ph"] == "M"]
        assert {r["pid"] for r in meta} == {PID_RUNTIME, PID_COMPILER}
        pass_rows = [r for r in rows if r.get("cat") == CAT_PASS]
        assert pass_rows[0]["pid"] == PID_COMPILER
        assert pass_rows[0]["ph"] == "X"
        assert pass_rows[0]["dur"] == 250.0
        guard_rows = [r for r in rows if r.get("cat") == CAT_GUARD]
        assert guard_rows[0]["pid"] == PID_RUNTIME

    def test_file_is_valid_json_with_summary(self, tmp_path):
        out = tmp_path / "trace.json"
        export_chrome_trace(self._trace(), str(out), metadata={"seed": 1})
        data = json.loads(out.read_text())
        assert isinstance(data["traceEvents"], list)
        assert data["otherData"]["seed"] == 1
        assert data["otherData"]["summary"]["events"] == 4

    def test_jsonl_round_trips(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        n = export_jsonl(self._trace(), str(out))
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == n == 4
        assert lines[1]["cat"] == CAT_GUARD

    def test_none_args_dropped(self):
        t = Tracer()
        t.fetch(256, 100.0, 0.0, obj_id=None)
        rows = to_chrome_events(t.events)
        fetch = [r for r in rows if r.get("cat") == CAT_FETCH][0]
        assert "obj" not in fetch["args"]


class TestNormalization:
    def test_rle_and_totals(self):
        t = Tracer()
        for _ in range(3):
            t.guard(GuardKind.FAST, 0, AccessKind.READ, 0.0, 21.0)
        t.fetch(256, 100.0, 0.0)
        t.guard(GuardKind.FAST, 1, AccessKind.READ, 0.0, 21.0)
        shape = normalize_events(t.events)
        assert shape["sequence"] == [
            ["guard", "fast", 3], ["fetch", "fetch", 1], ["guard", "fast", 1],
        ]
        assert shape["totals"] == {"fetch:fetch": 1, "guard:fast": 4}


class TestDrivers:
    def test_unknown_names_rejected(self):
        with pytest.raises(TraceError, match="workload"):
            run_traced("nope", "trackfm")
        with pytest.raises(TraceError, match="runtime"):
            run_traced("stream", "nope")

    def test_trackfm_stream_has_acceptance_categories(self):
        result = run_traced("stream", "trackfm", seed=0)
        cats = result.tracer.category_counts()
        assert cats.get("pass", 0) > 0
        assert cats.get("guard", 0) > 0
        assert cats.get("fetch", 0) > 0
        assert result.value == 1024 * 1023 // 2

    @pytest.mark.parametrize("runtime", ["aifm", "fastswap", "hybrid", "adaptive"])
    def test_replay_runtimes_emit_fetches(self, runtime):
        result = run_traced("hashmap", runtime, seed=0)
        cats = result.tracer.category_counts()
        assert cats.get("fetch", 0) > 0
        assert cats.get("phase", 0) == 2
        assert result.metrics.remote_fetches > 0

    def test_metadata_uses_canonical_metrics_dict(self):
        result = run_traced("stream", "fastswap", seed=0)
        meta = result.metadata()
        assert meta["metrics"] == result.metrics.as_dict()
        json.dumps(meta)  # JSON-safe end to end


class TestCLI:
    def test_main_writes_both_formats(self, tmp_path, capsys):
        from repro.trace.__main__ import main

        out = tmp_path / "t.json"
        rc = main([
            "--workload", "stream", "--runtime", "trackfm",
            "--out", str(out), "--seed", "0",
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        cats = {e.get("cat") for e in data["traceEvents"]}
        assert {"pass", "guard", "fetch"} <= cats
        jsonl = tmp_path / "t.jsonl"
        assert jsonl.exists()
        assert len(jsonl.read_text().splitlines()) == len(
            [e for e in data["traceEvents"] if e["ph"] != "M"]
        )
        assert "chrome trace" in capsys.readouterr().out


class TestInstrumentation:
    def test_compiler_pass_events_carry_stat_deltas(self):
        from repro.compiler import CompilerConfig, TrackFMCompiler
        from tests.irprograms import build_sum_loop

        t = Tracer()
        TrackFMCompiler(CompilerConfig()).compile(build_sum_loop(32), tracer=t)
        passes = [e for e in t.events if e.cat == CAT_PASS]
        assert len(passes) >= 5
        guard_transform = [e for e in passes if e.name == "guard-transform"]
        assert guard_transform, [e.name for e in passes]
        stats = guard_transform[0].args["stats"]
        assert stats.get("guard-transform.guards_inserted", 0) > 0

    def test_guard_events_name_object_and_kind(self):
        from repro.trackfm.runtime import TrackFMRuntime

        rt = TrackFMRuntime(
            PoolConfig(object_size=256, local_memory=1 * KB, heap_size=1 * MB)
        )
        t = Tracer()
        rt.set_tracer(t)
        ptr = rt.tfm_malloc(1024)
        rt.access(ptr, AccessKind.READ)
        rt.access(ptr, AccessKind.READ)
        guards = [e for e in t.events if e.cat == CAT_GUARD]
        assert guards[0].name in (GuardKind.SLOW.value, GuardKind.CUSTODY_MISS.value)
        assert any(e.name == GuardKind.FAST.value for e in guards)
        assert all("obj" in e.args for e in guards)


class TestDocs:
    def test_every_category_is_documented(self):
        """``docs/observability.md`` names every category the tracer can
        emit, as `` `cat` ``, so a new category cannot land undocumented."""
        doc = (Path(__file__).resolve().parents[1] / "docs" / "observability.md").read_text()
        missing = [cat for cat in ALL_CATEGORIES if f"`{cat}`" not in doc]
        assert missing == []
