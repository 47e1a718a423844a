"""Benchmark harness: every table and figure of the paper's §4.

Each ``fig*``/``table*`` function returns an :class:`ExperimentResult`
holding the same rows/series the paper plots.  The report gate
(``python -m repro.bench report``, :mod:`repro.bench.report`, not
imported here) records each one exactly and checks the paper's claims
on it, and EXPERIMENTS.md records the paper-vs-measured comparison.
"""

from repro.bench.harness import (
    CPU_HZ,
    ExperimentResult,
    Series,
    geomean,
    DEFAULT_BENCH_SCALE,
)
from repro.bench.tables import table1, table2, table4
from repro.bench.micro import fig06
from repro.bench.stream_figs import fig07, fig10, fig11, fig12
from repro.bench.hashmap_figs import fig09, fig13
from repro.bench.app_figs import fig08, fig14, fig15, fig16, fig17a, fig17b
from repro.bench.compile_costs import compile_costs

__all__ = [
    "CPU_HZ",
    "ExperimentResult",
    "Series",
    "geomean",
    "DEFAULT_BENCH_SCALE",
    "table1",
    "table2",
    "table4",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17a",
    "fig17b",
    "compile_costs",
]
