"""Matrix orchestration + the ranked report (JSON and markdown).

:func:`run_matrix` expands the matrix, runs every baseline and
leave-one-out cell, and scores the pairs; :func:`build_report` shapes
that into the canonical JSON document; :func:`render_markdown` is the
human-readable artifact CI uploads.

The JSON report is the baseline-gate unit: floats are rounded to a
fixed precision *once, here* (the arithmetic underneath is exact and
deterministic; rounding just keeps the file diffable), keys are
emitted in sorted order by the writer, and nothing derived from
wall-clock, environment, or filesystem state is included.  Two runs of
the same tree produce byte-identical documents — enforced in CI by
:data:`GATE` (``python -m repro.ablate --quick --check``) against
``benchmarks/baselines/ABLATION_quick.json``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.ablate.matrix import (
    CellSpec,
    FAULTY_SPEC,
    CORRUPT_FAULT_SPEC,
    CORRUPT_INTEGRITY_SPEC,
    QUICK_RUNTIMES,
    RUNTIMES,
    SCENARIOS,
    WORKLOADS,
    applicable_components,
    generate_matrix,
)
from repro.ablate.registry import BASELINE, COMPONENTS
from repro.ablate.runner import CellRun, run_cell
from repro.ablate.score import WEIGHTS, rank_components, score_pair
from repro.bench.baseline import Gate, dumps, rounded

SCHEMA_VERSION = 1


def run_matrix(
    quick: bool = False,
) -> List[Tuple[CellSpec, CellRun, Dict[str, Tuple[CellRun, Dict[str, object]]]]]:
    """Run every cell: baseline + one leave-one-out per applicable component.

    Returns ``[(spec, baseline_run, {component: (ablated_run, pair_score)})]``.
    """
    results = []
    for spec in generate_matrix(quick):
        base = run_cell(spec, BASELINE)
        ablations: Dict[str, Tuple[CellRun, Dict[str, object]]] = {}
        for comp in applicable_components(spec):
            ablated = run_cell(spec, BASELINE.off(comp.name))
            ablations[comp.name] = (ablated, score_pair(base, ablated))
        results.append((spec, base, ablations))
    return results


def build_report(quick: bool = False) -> Dict[str, object]:
    """The full canonical report document for one matrix mode."""
    results = run_matrix(quick)
    per_component: Dict[str, List[Tuple[str, Dict[str, object]]]] = {}
    cells: Dict[str, object] = {}
    run_count = 0
    for spec, base, ablations in results:
        run_count += 1 + len(ablations)
        cell_entry: Dict[str, object] = {
            "kind": spec.kind,
            "baseline": base.as_dict(),
            "ablations": {},
        }
        for name, (ablated, pair) in sorted(ablations.items()):
            per_component.setdefault(name, []).append((spec.cell_id, pair))
            cell_entry["ablations"][name] = {  # type: ignore[index]
                **ablated.as_dict(),
                "score": pair["score"],
                "deltas": pair["deltas"],
                **(
                    {"critical": True}
                    if pair.get("critical")
                    else {}
                ),
                **(
                    {"protection": pair["protection"]}
                    if "protection" in pair
                    else {}
                ),
            }
        cells[spec.cell_id] = cell_entry
    ranking = rank_components(per_component)
    report: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "mode": "quick" if quick else "full",
        "matrix": {
            "workloads": list(WORKLOADS),
            "runtimes": list(QUICK_RUNTIMES if quick else RUNTIMES),
            "scenarios": list(SCENARIOS),
            "specs": {
                "faulty": FAULTY_SPEC,
                "corrupt_faults": CORRUPT_FAULT_SPEC,
                "corrupt_integrity": CORRUPT_INTEGRITY_SPEC,
            },
            "cells": len(cells),
            "runs": run_count,
        },
        "weights": dict(WEIGHTS),
        "components": {
            comp.name: {"title": comp.title, "summary": comp.summary}
            for comp in COMPONENTS
        },
        "ranking": ranking,
        "cells": cells,
    }
    return rounded(report)


#: The exact gate over the report; only ``quick`` is recorded (CI's
#: matrix), ``full`` is the all-runtime matrix run on demand.
GATE = Gate(
    prog="python -m repro.ablate",
    template="ABLATION_{name}.json",
    names=("quick", "full"),
    measure=lambda name: build_report(quick=name == "quick"),
    record_args={"quick": "--quick --record", "full": "--record"}.__getitem__,
)


# -- markdown rendering -------------------------------------------------------


def render_markdown(report: Dict[str, object]) -> str:
    """The ranked importance report as a markdown document."""
    matrix = report["matrix"]
    lines = [
        "# Component importance ranking",
        "",
        f"Mode: **{report['mode']}** — {matrix['cells']} cells "  # type: ignore[index]
        f"({matrix['runs']} runs) over workloads "  # type: ignore[index]
        f"{', '.join(matrix['workloads'])}; "  # type: ignore[index]
        f"runtimes {', '.join(matrix['runtimes'])}; "  # type: ignore[index]
        f"scenarios {', '.join(matrix['scenarios'])}.",  # type: ignore[index]
        "",
        "Importance = mean leave-one-out score across applicable cells; "
        "positive means removing the component makes things worse. "
        "See docs/ablations.md for how scores are computed.",
        "",
        "| rank | component | importance | verdict | cells | Δcycles | Δfetches |",
        "|-----:|-----------|-----------:|---------|------:|--------:|---------:|",
    ]
    components = report["components"]
    for i, row in enumerate(report["ranking"], start=1):  # type: ignore[arg-type]
        deltas = row["mean_deltas"]
        lines.append(
            f"| {i} | {row['component']} | {row['importance']:+.4f} "
            f"| {row['verdict']} | {row['cells']} "
            f"| {deltas.get('cycles', 0.0):+.3f} "
            f"| {deltas.get('remote_fetches', 0.0):+.3f} |"
        )
    lines.append("")
    for row in report["ranking"]:  # type: ignore[arg-type]
        name = row["component"]
        meta = components[name]  # type: ignore[index]
        lines.append(f"## {meta['title']} (`{name}`)")
        lines.append("")
        lines.append(meta["summary"])
        lines.append("")
        lines.append(
            f"Importance **{row['importance']:+.4f}** ({row['verdict']}) "
            f"over {row['cells']} cell(s). Highest-impact cells:"
        )
        lines.append("")
        for cell in row["top_cells"]:
            lines.append(f"- `{cell['cell']}`: score {cell['score']:+.4f}")
        lines.append("")
    return "\n".join(lines)


def write_artifacts(
    report: Dict[str, object],
    out_json: Optional[Path] = None,
    out_md: Optional[Path] = None,
) -> None:
    if out_json is not None:
        out_json.parent.mkdir(parents=True, exist_ok=True)
        out_json.write_text(dumps(report))
    if out_md is not None:
        out_md.parent.mkdir(parents=True, exist_ok=True)
        out_md.write_text(render_markdown(report) + "\n")
