"""``python -m repro.ablate`` — run the matrix, rank components, gate CI.

Modes::

    python -m repro.ablate                  # full matrix, markdown to stdout
    python -m repro.ablate --quick          # CI-sized matrix (all components)
    python -m repro.ablate --quick --record # (re)write the exact baseline
    python -m repro.ablate --quick --check  # gate against the baseline (CI)
    python -m repro.ablate --list           # show components + cells, no runs

The report is bit-deterministic (seeded simulation, no wall-clock), so
``--check`` compares the re-measured JSON document to
``benchmarks/baselines/ABLATION_quick.json`` with ``==`` and fails on
any drift, printing the first differing paths.  ``--out-json`` and
``--out-md`` are written whenever the matrix ran, a failed check too.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from repro.ablate.matrix import applicable_components, generate_matrix
from repro.ablate.registry import COMPONENTS
from repro.ablate.report import GATE, build_report, render_markdown, write_artifacts
from repro.bench import baseline


def _list_text(quick: bool) -> str:
    lines = ["components:"]
    for comp in COMPONENTS:
        lines.append(f"  {comp.name:22s} {comp.title}")
    cells = generate_matrix(quick)
    runs = sum(1 + len(applicable_components(spec)) for spec in cells)
    lines.append("")
    lines.append(f"cells ({'quick' if quick else 'full'} mode, {runs} runs):")
    for spec in cells:
        comps = ", ".join(c.name for c in applicable_components(spec))
        lines.append(f"  {spec.cell_id:28s} [{spec.kind}]  ablates: {comps or '-'}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ablate",
        description="Automated ablation matrix with a ranked importance report.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized matrix (trackfm+hybrid runtimes; all components)",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--record", action="store_true", help="measure and (re)write the baseline"
    )
    mode.add_argument(
        "--check", action="store_true", help="gate against the recorded baseline"
    )
    mode.add_argument(
        "--list", action="store_true", help="list components and cells, run nothing"
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=GATE.directory,
        help=f"baseline directory (default: {GATE.directory})",
    )
    parser.add_argument(
        "--out-json", type=Path, default=None, help="also write the JSON report here"
    )
    parser.add_argument(
        "--out-md", type=Path, default=None, help="also write the markdown report here"
    )
    args = parser.parse_args(argv)

    if args.list:
        print(_list_text(args.quick))
        return 0
    name = "quick" if args.quick else "full"
    if args.record:
        ((path, report),) = baseline.record(GATE, args.baseline_dir, [name]).items()
        print(f"recorded {path}")
        write_artifacts(report, args.out_json, args.out_md)
        return 0
    if args.check:
        report = baseline.check(GATE, args.baseline_dir, [name])
        measured = report["benches"][name].get("measured")
        if measured is not None:
            write_artifacts(measured, args.out_json, args.out_md)
        baseline.print_report(report)
        return 0 if report["ok"] else 1

    report = build_report(args.quick)
    write_artifacts(report, args.out_json, args.out_md)
    print(render_markdown(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
