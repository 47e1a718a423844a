"""The ablation engine: registry, matrix, runner, scorer, report, gate.

The expensive end-to-end properties (bit-determinism of the full quick
report, agreement with the checked-in baseline) read the test run's
one measurement of the quick matrix (the ``quick_ablation_report``
fixture, a few seconds) and live in :class:`TestReportGate`;
everything else is unit-level and fast.
"""

import json
from pathlib import Path

import pytest

from repro.ablate.legacy import LEGACY_ABLATIONS, legacy_ablation, run_legacy
from repro.ablate.matrix import (
    CellSpec,
    IR_WORKLOADS,
    QUICK_RUNTIMES,
    WORKLOADS,
    applicable_components,
    cell_kind,
    generate_matrix,
    supported,
)
from repro.ablate.registry import (
    BASELINE,
    COMPONENTS,
    KNOB_NAMES,
    AblationError,
    component,
)
from repro.ablate.report import GATE, render_markdown
from repro.ablate.runner import CellRun, run_cell
from repro.ablate.score import (
    CRITICAL_SCORE,
    rank_components,
    score_pair,
    verdict_of,
)
from repro.bench.baseline import dumps


class TestRegistry:
    def test_eleven_components_with_matching_knobs(self):
        assert len(COMPONENTS) == 11
        assert {c.name for c in COMPONENTS} == set(KNOB_NAMES)

    def test_baseline_all_on(self):
        assert all(BASELINE.enabled(name) for name in KNOB_NAMES)

    def test_off_flips_exactly_one(self):
        for name in KNOB_NAMES:
            knobs = BASELINE.off(name)
            assert not knobs.enabled(name)
            others = [n for n in KNOB_NAMES if n != name]
            assert all(knobs.enabled(n) for n in others)

    def test_off_unknown_raises(self):
        with pytest.raises(AblationError):
            BASELINE.off("warp_drive")

    def test_component_lookup(self):
        assert component("decode_cache").name == "decode_cache"
        with pytest.raises(AblationError):
            component("warp_drive")

    def test_knobs_frozen(self):
        with pytest.raises(Exception):
            BASELINE.decode_cache = False

    def test_predicates(self):
        ir = CellSpec("stream", "trackfm", "clean", "ir")
        assert component("decode_cache").applies(
            ir.kind, ir.workload, ir.runtime, ir.scenario
        )
        assert not component("decode_cache").applies(
            "pattern", "graph", "trackfm", "clean"
        )
        assert component("tenant_quotas").applies(
            "serving", "webcache", "trackfm", "clean"
        )
        assert not component("tenant_quotas").applies(
            "pattern", "graph", "trackfm", "clean"
        )
        assert component("retry_degrade").applies("pattern", "graph", "trackfm", "faulty")
        assert not component("retry_degrade").applies("pattern", "graph", "trackfm", "clean")
        assert component("adaptive_selector").applies(
            "pattern", "hashmap", "adaptive", "clean"
        )
        assert not component("adaptive_selector").applies(
            "pattern", "hashmap", "trackfm", "clean"
        )
        assert not component("adaptive_selector").applies(
            "serving", "webcache", "adaptive", "clean"
        )
        assert component("evacuation_policy").applies(
            "pattern", "graph", "fastswap", "clean"
        )
        assert component("evacuation_policy").applies("ir", "stream", "trackfm", "clean")
        assert not component("evacuation_policy").applies(
            "pattern", "graph", "adaptive", "clean"
        )


class TestMatrix:
    def test_quick_is_subset_of_full(self):
        quick = {spec.cell_id for spec in generate_matrix(quick=True)}
        full = {spec.cell_id for spec in generate_matrix(quick=False)}
        assert quick <= full
        assert len(quick) < len(full)

    def test_cell_ids_unique(self):
        for quick in (True, False):
            ids = [spec.cell_id for spec in generate_matrix(quick)]
            assert len(ids) == len(set(ids))

    def test_quick_covers_all_components_and_workloads(self):
        cells = generate_matrix(quick=True)
        covered = set()
        for spec in cells:
            covered |= {c.name for c in applicable_components(spec)}
        assert covered == {c.name for c in COMPONENTS}
        assert {spec.workload for spec in cells} == set(WORKLOADS)
        assert {spec.runtime for spec in cells} == set(QUICK_RUNTIMES)

    def test_chase_is_trackfm_only(self):
        assert supported("chase", "trackfm", "clean")
        for runtime in ("adaptive", "aifm", "fastswap", "hybrid"):
            assert not supported("chase", runtime, "clean")

    def test_webcache_has_no_corrupt_scenario(self):
        assert supported("webcache", "trackfm", "faulty")
        assert not supported("webcache", "trackfm", "corrupt")

    def test_cell_kinds(self):
        assert cell_kind("webcache", "trackfm") == "serving"
        for workload in IR_WORKLOADS:
            assert cell_kind(workload, "trackfm") == "ir"
        assert cell_kind("stream", "aifm") == "pattern"
        assert cell_kind("graph", "trackfm") == "pattern"

    def test_fault_plans_by_scenario(self):
        clean = CellSpec("graph", "trackfm", "clean", "pattern")
        faulty = CellSpec("graph", "trackfm", "faulty", "pattern")
        corrupt = CellSpec("graph", "trackfm", "corrupt", "pattern")
        assert clean.fault_plan() is None and clean.integrity_config() is None
        assert faulty.fault_plan().drop_rate > 0
        assert corrupt.fault_plan().bitflip_rate > 0
        assert corrupt.integrity_config() is not None


class TestRunner:
    def test_ir_cell_baseline(self):
        run = run_cell(CellSpec("stream", "trackfm", "clean", "ir"), BASELINE)
        assert run.ok
        assert run.cycles > 0
        assert run.host_units and run.host_units > 0
        assert run.metric("remote_fetches") > 0

    def test_decode_cache_off_costs_host_units(self):
        spec = CellSpec("stream", "trackfm", "clean", "ir")
        base = run_cell(spec, BASELINE)
        ablated = run_cell(spec, BASELINE.off("decode_cache"))
        assert ablated.host_units > base.host_units
        assert ablated.value == base.value
        # Engine choice never touches the simulated machine.
        assert ablated.cycles == base.cycles

    def test_chunking_off_costs_cycles(self):
        spec = CellSpec("stream", "trackfm", "clean", "ir")
        base = run_cell(spec, BASELINE)
        ablated = run_cell(spec, BASELINE.off("chunked_transforms"))
        assert ablated.cycles > base.cycles
        assert ablated.value == base.value

    def test_retry_degrade_off_costs_cycles_under_faults(self):
        spec = CellSpec("graph", "trackfm", "faulty", "pattern")
        base = run_cell(spec, BASELINE)
        ablated = run_cell(spec, BASELINE.off("retry_degrade"))
        assert base.ok and ablated.ok
        assert ablated.cycles > base.cycles

    def test_integrity_off_loses_detections(self):
        spec = CellSpec("hashmap", "trackfm", "corrupt", "ir")
        base = run_cell(spec, BASELINE)
        ablated = run_cell(spec, BASELINE.off("integrity_checking"))
        assert base.metric("corruptions_detected") > 0
        assert ablated.metric("corruptions_detected") == 0

    def test_adaptive_selector_off_costs_cycles(self):
        spec = CellSpec("hashmap", "adaptive", "clean", "pattern")
        base = run_cell(spec, BASELINE)
        ablated = run_cell(spec, BASELINE.off("adaptive_selector"))
        assert base.ok and ablated.ok
        assert ablated.value == base.value
        # Frozen selector = static object tier: no switches, more cycles.
        assert base.metric("tier_switches") > 0
        assert ablated.metric("tier_switches") == 0
        assert ablated.cycles > base.cycles

    def test_evacuation_policy_off_changes_reclaim_order(self):
        spec = CellSpec("graph", "trackfm", "clean", "pattern")
        base = run_cell(spec, BASELINE)
        ablated = run_cell(spec, BASELINE.off("evacuation_policy"))
        assert base.ok and ablated.ok
        assert ablated.value == base.value
        # LRU victims differ from CLOCK's second-chance picks here.
        assert ablated.cycles != base.cycles

    def test_run_is_deterministic(self):
        spec = CellSpec("graph", "hybrid", "faulty", "pattern")
        assert run_cell(spec, BASELINE).as_dict() == run_cell(spec, BASELINE).as_dict()

    def test_as_dict_sparse(self):
        run = CellRun(ok=True, value=1, cycles=2.0, host_units=None, metrics={})
        d = run.as_dict()
        assert "host_units" not in d and "latency" not in d and "error" not in d


class TestScorer:
    @staticmethod
    def _run(cycles, fetches=10.0, bytes_fetched=100.0, **kw):
        metrics = {"remote_fetches": fetches, "bytes_fetched": bytes_fetched}
        metrics.update(kw.pop("metrics", {}))
        return CellRun(
            ok=True, value=kw.pop("value", 1), cycles=cycles,
            host_units=kw.pop("host_units", None), metrics=metrics, **kw
        )

    def test_failed_run_is_critical(self):
        base = self._run(100.0)
        dead = CellRun(ok=False, value=None, cycles=0.0, host_units=None,
                       metrics={}, error="FarMemoryUnavailableError: gone")
        pair = score_pair(base, dead)
        assert pair["critical"] and pair["score"] == CRITICAL_SCORE

    def test_slower_ablated_scores_positive(self):
        pair = score_pair(self._run(100.0), self._run(200.0))
        assert pair["score"] > 0
        assert pair["deltas"]["cycles"] == pytest.approx(1.0)

    def test_faster_ablated_scores_negative(self):
        assert score_pair(self._run(100.0), self._run(50.0))["score"] < 0

    def test_value_divergence_penalized(self):
        same = score_pair(self._run(100.0), self._run(100.0))
        diverged = score_pair(self._run(100.0), self._run(100.0, value=2))
        assert diverged["score"] > same["score"]
        assert diverged.get("value_diverged")

    def test_lost_detections_penalized(self):
        base = self._run(100.0, metrics={"corruptions_detected": 5.0})
        ablated = self._run(100.0)
        assert score_pair(base, ablated)["protection"] > 0

    def test_verdicts(self):
        assert verdict_of(0.5, False) == "helps"
        assert verdict_of(-0.5, False) == "harmful"
        assert verdict_of(0.001, False) == "neutral"
        assert verdict_of(0.0, True) == "critical"

    def test_rank_orders_by_mean_score(self):
        per = {
            "a": [("cell", {"score": 1.0, "critical": False, "deltas": {}})],
            "b": [("cell", {"score": 3.0, "critical": False, "deltas": {}})],
        }
        rows = rank_components(per)
        assert [r["component"] for r in rows] == ["b", "a"]
        assert rows[0]["importance"] == pytest.approx(3.0)


class TestReportGate:
    def test_quick_report_matches_checked_in_baseline_bit_for_bit(self, quick_ablation_report):
        # The test run's one measurement serves three assertions: the
        # report is bit-identical to the recorded baseline (determinism +
        # gate), ranks all ten components, and spans all six workloads.
        report = quick_ablation_report
        recorded = GATE.path("quick")
        assert dumps(report) == recorded.read_text()
        ranked = [row["component"] for row in report["ranking"]]
        assert sorted(ranked) == sorted(c.name for c in COMPONENTS)
        cell_workloads = {cell.split("/")[0] for cell in report["cells"]}
        assert cell_workloads == set(WORKLOADS)

    def test_markdown_renders_every_component(self):
        report = json.loads(
            (Path("benchmarks/baselines") / "ABLATION_quick.json").read_text()
        )
        text = render_markdown(report)
        for comp in COMPONENTS:
            assert f"`{comp.name}`" in text


class TestLegacy:
    def test_nine_folded_ablations(self):
        assert len(LEGACY_ABLATIONS) == 9
        names = {spec.name for spec in LEGACY_ABLATIONS}
        assert "state_table" in names and "hybrid_memcached" in names

    def test_run_legacy_passes_its_check(self):
        result = run_legacy("heap_pruning")
        assert result is not None

    def test_unknown_legacy_raises(self):
        with pytest.raises(KeyError):
            legacy_ablation("warp_drive")


class TestCLI:
    def test_list_smoke(self, capsys):
        from repro.ablate.__main__ import main

        assert main(["--list", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "decode_cache" in out and "webcache/trackfm/clean" in out

    def test_bench_forwarding(self, capsys):
        from repro.bench.__main__ import main

        assert main(["ablate", "--list"]) == 0
        assert "tenant_quotas" in capsys.readouterr().out

    def test_check_missing_baseline_exits_nonzero(self, tmp_path, capsys):
        from repro.ablate.__main__ import main

        assert main(["--quick", "--check", "--baseline-dir", str(tmp_path)]) == 1
        assert "missing-baseline" in capsys.readouterr().err
