"""Automated ablation + scenario-matrix engine (ROADMAP item 4).

The repo has grown many interacting mechanisms — decode cache,
programmed prefetch, stride prefetcher, chunked remotable transforms,
the integrity ladder, retry/degrade resilience, the hybrid page-tier
fallback, serving tenant quotas — and this package answers "which ones
earn their cost?" systematically instead of anecdotally:

* :mod:`repro.ablate.registry` — each mechanism as a named knob with an
  apply-function over compiler/runtime construction;
* :mod:`repro.ablate.matrix`   — the scenario matrix (workloads ×
  runtimes × fault/integrity configs), expanded into baseline +
  leave-one-out cells with seeded determinism;
* :mod:`repro.ablate.runner`   — runs one cell under one knob vector;
* :mod:`repro.ablate.score`    — per-component importance from metric
  deltas against the baseline cell;
* :mod:`repro.ablate.report`   — the ranked report (JSON + markdown)
  and the exact ``--record/--check`` baseline gate.

The nine hand-written ablation experiments (``repro.bench.ablations``)
are sweeps and comparisons, not leave-one-out cells: the report gate
(``python -m repro.bench report``) records them with the paper's
figures and checks their findings.

Everything is a pure function of seeds (no wall-clock), so the full
JSON report is bit-identical across runs — which is what lets CI gate
it against ``benchmarks/baselines/ABLATION_quick.json`` with ``==``.
See ``docs/ablations.md``.
"""

from repro.ablate.registry import COMPONENTS, Component, Knobs
from repro.ablate.matrix import CellSpec, applicable_components, generate_matrix
from repro.ablate.runner import CellRun, run_cell
from repro.ablate.score import score_pair, rank_components
from repro.ablate.report import build_report, render_markdown, run_matrix

__all__ = [
    "COMPONENTS",
    "Component",
    "Knobs",
    "CellSpec",
    "applicable_components",
    "generate_matrix",
    "CellRun",
    "run_cell",
    "score_pair",
    "rank_components",
    "build_report",
    "render_markdown",
    "run_matrix",
]
