#!/usr/bin/env python3
"""Host-time benchmark of the TrackFM reproduction: one command.

    python3 benchmarks/host/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR] [--out FILE]

Runs each workload (default: all four) in its own single-threaded child
process, one after another.  A child builds its inputs from the seed,
runs one untimed warm-up rep, then timed reps for ``--seconds``, and
checks every rep's outputs against an independent reference.  It prints
every metric by name with its unit and sample count; the last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

holding the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of one traced rep (``--trace-dir`` also writes the spans as a
Chrome/Perfetto trace plus ``layers.json``).  ``--out FILE`` appends
this run, with every metric's quartiles, to a JSON file that
``compare.py`` reads.  The exit code is non-zero when any check fails.

``src/`` of the checkout this file sits in is put on the child's path;
the benchmark changes nothing there.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOAD_NAMES = ("nas", "serve-read", "serve-write", "hybrid-phase")

#: A child is killed, and counted as failed, this long after its
#: ``--seconds`` of timed reps should have ended.  Its set-ups, warm-up,
#: last rep, traced rep and count pass take about 11 s on a 2-vCPU host;
#: with the default 15 s, a hung child still ends within 165 s.
CHILD_GRACE_S = 150


def default_seconds() -> float:
    """``run_seconds`` of ``BENCHMARK.json``: the benchmark command runs
    with ``--seconds`` set to it, so the bounds were calibrated there."""
    return float(json.loads(BENCHMARK.read_text())["run_seconds"])


#: One thread per child (numerical libraries must not start pools), and
#: a fixed hash seed so dict layouts repeat from run to run.
_CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: run_seconds of "
                             "BENCHMARK.json; a smaller value gives a quick, noisier look)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced rep")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="write trace.json and layers.json here (implies --trace 1)")
    parser.add_argument("--out", type=Path, default=None,
                        help="append this run to a JSON runs file for compare.py")
    parser.add_argument("--child", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = default_seconds()
    if args.trace_dir is not None:
        args.trace = 1
    return args


# -- child: one workload, in-process ------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    import repro
    import workloads

    import_s = time.perf_counter() - started
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.child]
    wl, setup_s = harness.timed_setups(lambda: cls(args.seed), import_s)
    m = harness.measure(wl, args.seconds)
    metrics = harness.end_to_end_metrics(m, setup_s)
    out: Dict[str, object] = {"workload": wl.name, "op": wl.op, "seed": args.seed}
    if args.trace:
        t = harness.trace(wl, m.checks, m.warm)
        metrics.update(harness.per_layer_metrics(m, t))
        if args.trace_dir is not None:
            out["layers"] = harness.layers_report(m, t)
            out["events"] = t.tracer.chrome_events(WORKLOAD_NAMES.index(wl.name), wl.name)
    out.update({
        "metrics": metrics,
        "sim": m.warm.sim,
        "counts": m.warm.counts,
        "attempted": m.checks.attempted,
        "failed": m.checks.failed,
        "failures": m.checks.failures,
    })
    print(json.dumps(out))
    return 0


# -- parent: children one after another ---------------------------------------


def run_child(name: str, args: argparse.Namespace) -> Dict[str, object]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace_dir is not None:
        cmd += ["--trace-dir", str(args.trace_dir)]
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, **_CHILD_ENV, "PYTHONPATH": path}
    timeout = args.seconds + CHILD_GRACE_S
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{name}: killed after {timeout:g} s"}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{name}: child exited with code {proc.returncode}"}
    return json.loads(lines[-1])


def _fmt(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1e4 else f"{value:.6g}"


def print_workload(res: Dict[str, object], traced: bool) -> None:
    metrics = res["metrics"]
    reps = metrics["ops_per_s"]["n"]
    print(f"{res['workload']}: seed {res['seed']}, one op = one {res['op']}, "
          f"{reps} timed reps")
    for name, m in metrics.items():
        spread = ""
        if m["n"] > 1 and m["kind"] == "host":
            spread = f"  [q1 {_fmt(m['q1'])}, q3 {_fmt(m['q3'])}]"
            if "raw_median" in m:
                spread += f"  raw median {_fmt(m['raw_median'])}"
        print(f"  {name:34s} {_fmt(m['value']):>14s} {m['unit']:<14s} n={m['n']}{spread}")
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':34s} {_fmt(frac):>14s} {'frac':<14s} "
          f"n={res['attempted']} checks")
    for failure in res["failures"]:
        print(f"    FAILED: {failure}")
    if traced:
        harness_share = metrics["harness.self_share"]["value"]
        print(f"  traced rep: {1 - harness_share:.1%} in named layers, "
              f"{harness_share:.1%} in the harness; "
              f"trace_overhead {metrics['trace_overhead']['value']:.2f}x")


def _append_run(path: Path, record: Dict[str, object]) -> None:
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


def _write_trace(trace_dir: Path, results: Dict[str, Dict[str, object]]) -> None:
    trace_dir.mkdir(parents=True, exist_ok=True)
    events: List[object] = [
        {"name": "process_name", "ph": "M", "pid": 3, "args": {"name": "host time"}}
    ]
    report = {}
    for name, res in results.items():
        events.extend(res.pop("events"))
        report[name] = res.pop("layers")
    trace = json.dumps({"traceEvents": events}, separators=(",", ":"))
    (trace_dir / "trace.json").write_text(trace)
    (trace_dir / "layers.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {trace_dir / 'trace.json'} and {trace_dir / 'layers.json'}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    if args.child:
        sys.path.insert(0, str(SRC))
        return child_main(args)

    names = args.workload or list(WORKLOAD_NAMES)
    results: Dict[str, Dict[str, object]] = {}
    errors: List[str] = []
    for name in names:
        res = run_child(name, args)
        if "error" in res:
            errors.append(res["error"])
            print(f"{name}: FAILED ({res['error']})")
            continue
        results[name] = res
        print_workload(res, bool(args.trace))
    if args.trace_dir is not None and results:
        _write_trace(args.trace_dir, results)

    wanted = harness.PER_LAYER if args.trace else harness.END_TO_END
    attempted = len(errors) + sum(r["attempted"] for r in results.values())
    failed = len(errors) + sum(r["failed"] for r in results.values())
    metrics = {}
    for name, res in results.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric_name in wanted:
            m = res["metrics"][metric_name]
            metrics[prefix + metric_name] = {"value": m["value"], "unit": m["unit"]}
    if args.out is not None:
        _append_run(args.out, {
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "workloads": results, "errors": errors,
        })
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
