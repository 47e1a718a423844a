#!/usr/bin/env python3
"""Compare two sets of host-benchmark runs.

    python3 benchmarks/host/compare.py RUNS_A.json RUNS_B.json [--claim]

Each file holds the runs ``run.py --out FILE`` appended to it, one per
invocation.  A run contributes one value per workload and metric (its
median over reps), and every row shows, for each side, the median of
those values, their quartiles and n.

Same code twice (default): a host metric *agrees* when the two medians
differ by at most the metric's ``BENCHMARK.json`` bound, and is
*unresolved* when either side's spread (quartile distance over median)
exceeds the bound.  Exact metrics (simulated numbers and counts) must be
identical for every seed both sides ran.

``--claim`` (A = parent, B = change): a metric shows a *gain* when B
wins at least 9 of every 10 pairs (runs paired in file order, ties
count for neither) and the medians differ by more than A's quartile
distance.  It is a *regression* when B's median is worse than A's by
more than the bound, and *unresolved* when a spread exceeds the bound,
unless every B run beats every A run.  Exact metrics that moved are
reported as *changed*.

Exit code 1 on a disagreement, a differing exact metric or a regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import METRICS, summary

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: Path) -> List[Dict[str, object]]:
    return json.loads(Path(path).read_text())["runs"]


def values_by_seed(runs, workload: str, name: str) -> List[Tuple[int, float]]:
    out = []
    for run in runs:
        metric = run["workloads"].get(workload, {}).get("metrics", {}).get(name)
        if metric is not None:
            out.append((run["seed"], metric["value"]))
    return out


def _spread(s: Dict[str, float]) -> float:
    return (s["q3"] - s["q1"]) / abs(s["value"]) if s["value"] else 0.0


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if not a:
        return 0.0
    return (a - b) / abs(a) if better == "higher" else (b - a) / abs(a)


def _beats(b: float, a: float, better: str) -> bool:
    return b > a if better == "higher" else b < a


def verdict(a: List[float], b: List[float], bound: Optional[float],
            better: Optional[str], claim: bool) -> str:
    if bound is None or better is None:
        return "-"
    sa, sb = summary(a), summary(b)
    worse = _worse_by(sa["value"], sb["value"], better)
    all_better = all(_beats(x, y, better) for x in b for y in a)
    if max(_spread(sa), _spread(sb)) > bound and not (claim and all_better):
        return "unresolved"
    if not claim:
        return "agrees" if abs(worse) <= bound else "DISAGREES"
    wins = sum(_beats(y, x, better) for x, y in zip(a, b))
    pairs = min(len(a), len(b))
    if wins >= 0.9 * pairs and -worse * abs(sa["value"]) > sa["q3"] - sa["q1"]:
        return "gain"
    return "REGRESSION" if worse > bound else "within bound"


def exact_verdict(a: List[Tuple[int, float]], b: List[Tuple[int, float]], claim: bool) -> str:
    da, db = dict(a), dict(b)
    common = sorted(set(da) & set(db))
    if not common:
        return "no common seed"
    if all(da[s] == db[s] for s in common):
        return "identical"
    return "changed" if claim else "DIFFERS"


def _cell(s: Dict[str, float]) -> str:
    return f"{s['value']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}"


def workloads_run(runs) -> List[str]:
    """Every workload any of ``runs`` ran, in first-seen order."""
    return list(dict.fromkeys(w for run in runs for w in run["workloads"]))


def compare(runs_a, runs_b, spec: Dict[str, Dict], claim: bool) -> Tuple[List[List[str]], bool]:
    rows: List[List[str]] = []
    ok = True
    in_b = set(workloads_run(runs_b))
    for workload in (w for w in workloads_run(runs_a) if w in in_b):
        for name, (unit, kind) in METRICS.items():
            a = values_by_seed(runs_a, workload, name)
            b = values_by_seed(runs_b, workload, name)
            if not a or not b:
                continue
            va, vb = [v for _s, v in a], [v for _s, v in b]
            bound = spec.get(name, {}).get("bound")
            if kind == "exact":
                v = exact_verdict(a, b, claim)
            else:
                v = verdict(va, vb, bound, spec.get(name, {}).get("better"), claim)
            ok = ok and v not in ("DISAGREES", "DIFFERS", "REGRESSION")
            sa, sb = summary(va), summary(vb)
            gap = (sb["value"] - sa["value"]) / abs(sa["value"]) if sa["value"] else 0.0
            rows.append([
                workload, name, unit, _cell(sa), _cell(sb), f"{gap:+.2%}",
                "-" if bound is None else f"{bound:g}", v,
            ])
    return rows, ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs_a", type=Path)
    parser.add_argument("runs_b", type=Path)
    parser.add_argument("--claim", action="store_true",
                        help="A is the parent, B the change: apply the claim rule")
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text())
    spec = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    rows, ok = compare(load_runs(args.runs_a), load_runs(args.runs_b), spec, args.claim)
    if not rows:
        print("error: the two files share no workload", file=sys.stderr)
        return 1
    header = ["workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n",
              "B vs A", "bound", "verdict"]
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
