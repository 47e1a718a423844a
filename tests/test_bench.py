"""The benchmark harness and every experiment, through the report gate.

All experiments are measured once per test run (``measured``); that
one measurement must equal the recorded ``REPORT_*.json`` files in
their exact part and keep the paper's claims (the artifact's C1..C11
and the ablation findings, :data:`repro.bench.report.CHECKS`), and
REPORT.md must be the rendering of the recorded files.
"""

import json
from pathlib import Path

import pytest

from repro.bench import ExperimentResult, baseline, geomean, report
from repro.bench.__main__ import EXPERIMENTS
from repro.bench.harness import local_memory_sweep
from repro.errors import BenchError


class TestHarness:
    def test_series_length_checked(self):
        r = ExperimentResult("x", "t", "x", [1, 2, 3], "y")
        with pytest.raises(BenchError):
            r.add_series("bad", [1.0])

    def test_get_series(self):
        r = ExperimentResult("x", "t", "x", [1], "y")
        r.add_series("a", [2.0])
        assert r.get("a").values == [2.0]
        with pytest.raises(BenchError):
            r.get("missing")

    def test_to_text_renders_all_series(self):
        r = ExperimentResult("x", "title", "x", ["p1", "p2"], "y")
        r.add_series("s1", [1.0, 2.0])
        r.note("hello")
        text = r.to_text()
        assert "title" in text and "s1" in text and "hello" in text
        assert "p1" in text and "p2" in text

    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([2, 2, 2]) == pytest.approx(2.0)
        with pytest.raises(BenchError):
            geomean([])

    def test_local_memory_sweep(self):
        budgets = local_memory_sweep([0.1, 0.5, 1.0], 1 << 20)
        assert budgets == sorted(budgets)
        assert all(b % 4096 == 0 for b in budgets)
        with pytest.raises(BenchError):
            local_memory_sweep([0.0], 1 << 20)


@pytest.fixture(scope="session")
def measured():
    """Every experiment's document, measured once and passed through the
    baseline encoding, as ``--check`` sees it.  Callers must not mutate it."""
    return {name: json.loads(baseline.dumps(report.measure(name))) for name in EXPERIMENTS}


def test_exact_part_matches_the_recorded_files(measured):
    recorded = report.recorded()
    drift = {name: baseline.mismatch(report.GATE, measured[name], recorded[name]) for name in measured}
    assert {name: paths for name, paths in drift.items() if paths} == {}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_claims_hold(measured, name):
    assert report.failed_claims(name, measured[name]) == []


def test_report_md_is_the_rendering_of_the_recorded_files():
    assert Path("REPORT.md").read_text() == report.render_markdown(report.recorded())
