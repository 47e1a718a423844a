"""Command-line figure regeneration, mirroring the artifact's make targets.

Usage::

    python -m repro.bench fig14          # one experiment
    python -m repro.bench table1 fig07   # several
    python -m repro.bench --list         # show what exists
    python -m repro.bench --all          # everything (a few seconds)
    python -m repro.bench regress --check   # baseline gate (see baseline.py)
    python -m repro.bench ablate --quick    # ablation matrix (see repro.ablate)

The original artifact exposes ``make trackfm_fig14a`` etc.; this is the
equivalent entry point for the reproduction.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import Callable, Dict

from repro.bench import (
    compile_costs,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17a,
    fig17b,
    table1,
    table2,
    table4,
)
from repro.bench.ablations import (
    ablation_chase_prefetch,
    ablation_chunk_setup,
    ablation_evacuator_policy,
    ablation_heap_pruning,
    ablation_hybrid_memcached,
    ablation_multisize,
    ablation_offload,
    ablation_prefetch_depth,
    ablation_state_table,
)

EXPERIMENTS: Dict[str, Callable] = {
    "table1": table1,
    "table2": table2,
    "table4": table4,
    "fig06": fig06,
    "fig07": fig07,
    "fig08": fig08,
    "fig09": fig09,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17a": fig17a,
    "fig17b": fig17b,
    "compile_costs": compile_costs,
    "ablation_state_table": ablation_state_table,
    "ablation_prefetch_depth": ablation_prefetch_depth,
    "ablation_evacuator_policy": ablation_evacuator_policy,
    "ablation_chunk_setup": ablation_chunk_setup,
    "ablation_heap_pruning": ablation_heap_pruning,
    "ablation_hybrid_memcached": ablation_hybrid_memcached,
    "ablation_chase_prefetch": ablation_chase_prefetch,
    "ablation_offload": ablation_offload,
    "ablation_multisize": ablation_multisize,
}

#: Subcommands with flags of their own: ``python -m repro.bench <name>
#: ...`` hands the rest of the command line to that module's ``main``.
SUBCOMMANDS: Dict[str, str] = {
    "regress": "repro.bench.regress",
    "pprefetch": "repro.bench.prefetch_regress",
    "serving": "repro.bench.serving",
    "hybrid": "repro.bench.hybrid",
    "ablate": "repro.ablate.__main__",
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        return import_module(SUBCOMMANDS[argv[0]]).main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*", help="experiment names (fig07, table1, ...)")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true", help="list experiment names")
    parser.add_argument(
        "--faults", type=str, default=None, metavar="SPEC",
        help=(
            "run the experiments on a fault-injected fabric, e.g. "
            "'seed=1,drop=0.01,jitter=400' (see docs/resilience.md); "
            "not available for the regress baseline gate, which must "
            "stay fault-free"
        ),
    )
    parser.add_argument(
        "--integrity", type=str, default=None, metavar="SPEC",
        help=(
            "checksum-verify fetched payloads while the experiments "
            "run: 'on' or 'seed=1,refetch=2,verify=25' (see "
            "docs/resilience.md); not honored by the regress gate, "
            "whose baselines are recorded verification-free"
        ),
    )
    args = parser.parse_args(argv)

    if args.list:
        try:
            for name in EXPERIMENTS:
                print(name)
        except BrokenPipeError:
            sys.stderr.close()
        return 0
    names = list(EXPERIMENTS) if args.all else args.experiments
    if not names:
        parser.print_help()
        return 2
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    from contextlib import ExitStack

    try:
        with ExitStack() as stack:
            if args.faults is not None:
                from repro.net.faults import installed_fault_plan, parse_fault_spec

                stack.enter_context(installed_fault_plan(parse_fault_spec(args.faults)))
            if args.integrity is not None:
                from repro.integrity import (
                    installed_integrity_config,
                    parse_integrity_spec,
                )

                stack.enter_context(
                    installed_integrity_config(parse_integrity_spec(args.integrity))
                )
            for name in names:
                print(EXPERIMENTS[name]().to_text())
                print()
    except BrokenPipeError:  # e.g. piped into head
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
