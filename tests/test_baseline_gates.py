"""Baseline-gate mechanics, once over every gate (``repro.bench.baseline``).

Each gate runs its cheapest bench: recorded into a temporary directory,
checked through the gate's own command line, checked again with one
leaf tampered, and checked with the file gone.  The ablate gate's
deterministic quick report is measured once per test run (the
``quick_ablation_report`` fixture) and stands in for its re-measures.
The acceptance predicates get crafted documents, so every failure
status is produced without a measurement.
"""

from __future__ import annotations

import copy
import json
import re
import shlex
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from types import ModuleType
from typing import Callable, List

import pytest

import repro.ablate.__main__ as ablate_cli
from repro.bench import baseline, hybrid, prefetch_regress, regress, report, serving
from repro.bench.__main__ import EXPERIMENTS, main as bench_main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "examples"))
import lint_all  # noqa: E402


def _bench_cli(sub: str) -> Callable[[str, Path, Path], int]:
    def check(name: str, directory: Path, out: Path) -> int:
        return bench_main(
            [sub, "--check", "--baseline-dir", str(directory), "--bench", name, "--out", str(out)]
        )

    return check


def _ablate_cli(name: str, directory: Path, out: Path) -> int:
    return ablate_cli.main(
        ["--quick", "--check", "--baseline-dir", str(directory), "--out-json", str(out)]
    )


def _lint_cli(name: str, directory: Path, out: Path) -> int:
    # lint_all.py has no --baseline-dir: the test points its GATE there.
    return lint_all.main([])


@dataclass(frozen=True)
class Case:
    module: ModuleType  # the module whose command line reads ``GATE``
    name: str  # the gate's cheapest bench
    leaf: str  # one leaf of the exact part, as the diff names it
    check_cli: Callable[[str, Path, Path], int]


CASES = {
    "regress": Case(regress, "stream", "fingerprint.steps", _bench_cli("regress")),
    "pprefetch": Case(prefetch_regress, "stream", "stride.demand_misses", _bench_cli("pprefetch")),
    "serving": Case(
        serving, "chaos", "cells.knockout.latency_percentiles.p99", _bench_cli("serving")
    ),
    "hybrid": Case(hybrid, "phase", "cells.mem_50.adaptive_cycles", _bench_cli("hybrid")),
    "report": Case(report, "table1", "result.series.Cached[2]", _bench_cli("report")),
    "ablate": Case(ablate_cli, "quick", "weights.cycles", _ablate_cli),
    "lint": Case(lint_all, "audit", "nas_cg.loops.main:header", _lint_cli),
}

ALL_GATES = tuple(case.module.GATE for case in CASES.values())


def _pinned(case: Case, directory: Path) -> baseline.Gate:
    """The case's gate over ``directory``.  regress keeps its exact part
    but drops its wall-clock floor here: two speedups measured back to
    back on a loaded host can differ by more than the band.  The floor
    has crafted-document tests below."""
    gate = replace(case.module.GATE, directory=directory)
    if case.module is regress:
        gate = replace(gate, accept=lambda name, measured, recorded: ("ok", ""))
    return gate


def _tamper(path: Path, leaf: str) -> None:
    doc = json.loads(path.read_text())
    *parents, key = [int(p) if p.isdigit() else p for p in re.findall(r"[^.\[\]]+", leaf)]
    node = doc
    for part in parents:
        node = node[part]
    node[key] = "tampered"
    path.write_text(baseline.dumps(doc))


def _diff_paths(stderr: str) -> List[str]:
    return [
        line.strip().split(": expected ")[0]
        for line in stderr.splitlines()
        if line.startswith("  ") and ": expected " in line
    ]


@pytest.fixture(scope="module", params=sorted(CASES))
def recorded(request, tmp_path_factory):
    """``(case, gate, path)``: the case's pinned gate and its recorded file."""
    case = CASES[request.param]
    gate = _pinned(case, tmp_path_factory.mktemp(request.param))
    if case.module is not ablate_cli:
        (path,) = baseline.record(gate, names=[case.name])
        return case, gate, path
    # Every measurement of the quick report is the test run's one; the
    # record goes through the command line, like the check.
    report = request.getfixturevalue("quick_ablation_report")
    gate = replace(gate, measure=lambda name: copy.deepcopy(report))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ablate_cli, "GATE", gate)
        argv = ["--quick", "--record", "--baseline-dir", str(gate.directory)]
        assert ablate_cli.main(argv) == 0
    return case, gate, gate.path(case.name)


class TestRecordAndCheck:
    def test_recorded_file_checks_ok_with_exit_0(self, recorded, tmp_path, monkeypatch, capsys):
        case, gate, path = recorded
        monkeypatch.setattr(case.module, "GATE", gate)
        out = tmp_path / "out.json"
        assert case.check_cli(case.name, path.parent, out) == 0
        assert f"{path.name}: ok" in capsys.readouterr().out
        if case.module is ablate_cli:
            assert json.loads(out.read_text()) == json.loads(path.read_text())
        elif case.module is not lint_all:
            report = json.loads(out.read_text())
            assert report["ok"] and report["benches"][case.name]["status"] == "ok"

    def test_one_tampered_leaf_fails_with_exit_1_naming_that_path(
        self, recorded, tmp_path, monkeypatch, capsys
    ):
        case, gate, path = recorded
        tampered = tmp_path / path.name
        tampered.write_text(path.read_text())
        _tamper(tampered, case.leaf)
        monkeypatch.setattr(case.module, "GATE", replace(gate, directory=tmp_path))
        out = tmp_path / "out.json"
        assert case.check_cli(case.name, tmp_path, out) == 1
        err = capsys.readouterr().err
        assert f"{path.name}: mismatch" in err
        assert _diff_paths(err) == [case.leaf]
        if case.module is ablate_cli:
            assert out.exists()  # CI uploads the report of a failed check too
        elif case.module is not lint_all:
            entry = json.loads(out.read_text())["benches"][case.name]
            assert entry["status"] == "mismatch"
            assert [d["path"] for d in entry["diff"]] == [case.leaf]

    @pytest.mark.parametrize("key", sorted(CASES))
    def test_missing_file_is_missing_baseline_with_a_hint(self, key, tmp_path):
        case = CASES[key]
        gate = _pinned(case, tmp_path)
        report = baseline.check(gate, names=[case.name])
        entry = report["benches"][case.name]
        assert not report["ok"]
        assert entry["status"] == "missing-baseline"
        assert entry["hint"] == f"run: {gate.record_command(case.name)}"
        assert "record" in entry["hint"]


EXPECTED_HINTS = [
    *(
        (gate, name, f"python -m repro.bench {sub} --record --bench {name}")
        for gate, sub, names in (
            (regress.GATE, "regress", ("stream", "hashmap", "chase")),
            (prefetch_regress.GATE, "pprefetch", ("stream", "nas_cg")),
            (serving.GATE, "serving", ("c100", "c1000", "c10000", "chaos", "replicated")),
            (hybrid.GATE, "hybrid", ("dense", "phase", "sparse")),
            (report.GATE, "report", tuple(EXPERIMENTS)),
        )
        for name in names
    ),
    (ablate_cli.GATE, "quick", "python -m repro.ablate --quick --record"),
    (ablate_cli.GATE, "full", "python -m repro.ablate --record"),
    (lint_all.GATE, "audit", "python examples/lint_all.py --record-baseline"),
]


class TestHint:
    def test_table_covers_every_gate_name(self):
        assert sorted((gate.prog, name) for gate, name, _ in EXPECTED_HINTS) == sorted(
            (gate.prog, name) for gate in ALL_GATES for name in gate.names
        )

    @pytest.mark.parametrize(
        "gate, name, command",
        EXPECTED_HINTS,
        ids=[f"{gate.prog.split()[-1]}-{name}" for gate, name, _ in EXPECTED_HINTS],
    )
    def test_hint_names_the_command_that_records_the_file(self, gate, name, command, tmp_path):
        report = baseline.check(replace(gate, directory=tmp_path), names=[name])
        assert report["benches"][name]["hint"] == f"run: {command}"

    def test_hinted_command_records_the_missing_file(self, tmp_path):
        gate = prefetch_regress.GATE
        hint = baseline.check(gate, tmp_path, ["stream"])["benches"]["stream"]["hint"]
        argv = shlex.split(hint.removeprefix("run: "))
        assert argv[:4] == ["python", "-m", "repro.bench", "pprefetch"]
        assert bench_main(argv[3:]) == 0
        assert gate.path("stream", tmp_path).exists()
        assert baseline.check(gate, tmp_path, ["stream"])["ok"]


def _pprefetch(values, misses):
    (stride_value, programmed_value), (stride_misses, programmed_misses) = values, misses
    return {
        "stride": {"value": stride_value, "demand_misses": stride_misses},
        "programmed": {"value": programmed_value, "demand_misses": programmed_misses},
    }


def _hybrid(**cell):
    data = {"within_band": True, "values_equal": True, "wins_outright": False, **cell}
    return {"cells": {"mem_25": data}}


def _regress(speedup):
    return {"speedup_vs_legacy": speedup, "ops_per_sec": 1e6}


def _recorded_report(name):
    return json.loads(report.GATE.path(name).read_text())


PREDICATE_CASES = [
    (regress.GATE, "stream", _regress(6.4), _regress(10.0), "speedup-regression"),
    (regress.GATE, "stream", _regress(6.6), _regress(10.0), "ok"),
    (prefetch_regress.GATE, "stream", _pprefetch((1, 2), (3, 3)), {}, "semantics-diverge"),
    (prefetch_regress.GATE, "stream", _pprefetch((1, 1), (3, 4)), {}, "prefetch-regression"),
    (prefetch_regress.GATE, "stream", _pprefetch((1, 1), (3, 3)), {}, "ok"),
    (hybrid.GATE, "dense", _hybrid(within_band=False), {}, "out-of-band"),
    (hybrid.GATE, "dense", _hybrid(values_equal=False), {}, "out-of-band"),
    (hybrid.GATE, "phase", _hybrid(), {}, "no-mixed-win"),
    (hybrid.GATE, "dense", _hybrid(), {}, "ok"),
    (hybrid.GATE, "phase", _hybrid(wins_outright=True), {}, "ok"),
]


class TestAcceptance:
    @pytest.mark.parametrize("gate, name, measured, recorded, status", PREDICATE_CASES)
    def test_predicate_status(self, gate, name, measured, recorded, status):
        assert gate.accept(name, measured, recorded)[0] == status

    def test_regress_detail_shows_measured_and_recorded_speedup(self):
        _, detail = regress.GATE.accept("stream", _regress(6.4), _regress(10.0))
        assert "speedup 6.40x vs baseline 10.00x" in detail

    def test_report_fails_below_the_fig11_floor_naming_the_claim(self):
        # C5: prefetching matters most when remote costs dominate.
        document = _recorded_report("fig11")
        document["result"]["series"]["Sum"][0] = 1.9
        status = report.GATE.accept("fig11", document, document)
        assert status == ("claim-failed", "fig11: Sum[0] > 2.0")

    def test_report_fails_when_the_hybrid_loses_to_fastswap_naming_the_claim(self):
        document = _recorded_report("ablation_hybrid_memcached")
        series = document["result"]["series"]
        series["Hybrid"][0] = series["Fastswap"][0] - 1.0
        status, detail = report.GATE.accept("ablation_hybrid_memcached", document, document)
        assert status == "claim-failed"
        assert detail.startswith("ablation_hybrid_memcached: Hybrid[0] > Fastswap[0]")

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_report_claims_hold_on_the_recorded_file(self, name):
        document = _recorded_report(name)
        assert report.GATE.accept(name, document, document) == ("ok", "")

    def test_report_compares_only_its_result(self):
        document = _recorded_report("compile_costs")
        timed = copy.deepcopy(document)
        timed["wall_clock"]["compile time (x)"][0] += 1.0
        assert baseline.mismatch(report.GATE, timed, document) == []
        timed["result"]["series"]["code size (x)"][0] += 1.0
        paths = [d["path"] for d in baseline.mismatch(report.GATE, timed, document)]
        assert paths == ["result.series.code size (x)[0]"]

    def test_regress_compares_only_its_fingerprint(self):
        recorded = {"fingerprint": {"steps": 5}, "ops_per_sec": 1.0}
        same = {"fingerprint": {"steps": 5}, "ops_per_sec": 9.0}
        drifted = {"fingerprint": {"steps": 6}, "ops_per_sec": 1.0}
        assert baseline.mismatch(regress.GATE, same, recorded) == []
        paths = [d["path"] for d in baseline.mismatch(regress.GATE, drifted, recorded)]
        assert paths == ["fingerprint.steps"]


def test_diff_names_leaf_paths_and_stops_at_the_cap():
    expected = {"a": {"b": 1, "c": [1, 2]}, "d": 1, "e": [1]}
    got = {"a": {"b": 2, "c": [1, 3]}, "e": [1, 2], "f": 1}
    assert baseline.diff(expected, got) == [
        {"path": "a.b", "expected": 1, "got": 2},
        {"path": "a.c[1]", "expected": 2, "got": 3},
        {"path": "d", "expected": 1, "got": None},
        {"path": "e", "expected": [1], "got": [1, 2]},
        {"path": "f", "expected": None, "got": 1},
    ]
    assert baseline.diff(expected, expected) == []
    many = baseline.diff({f"k{i}": i for i in range(100)}, {})
    assert len(many) == baseline.MAX_DIFF_PATHS


def test_every_baseline_file_has_exactly_one_owner():
    owners = {}
    for gate in ALL_GATES:
        for name in gate.names:
            owners.setdefault(gate.path(name), []).append(f"{gate.prog} {name}")
    for path in sorted(baseline.BASELINE_DIR.iterdir()):
        assert len(owners.get(path, [])) == 1, f"{path} is owned by {owners.get(path, [])}"
    never_recorded = ablate_cli.GATE.path("full")
    assert [p for p in owners if p != never_recorded and not p.exists()] == []
