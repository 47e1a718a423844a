"""Baseline gates: the one place a baseline file is written, read,
compared and diffed.

Every simulated number in this repro is a pure function of its seeds,
so a checked-in JSON document pins it exactly.  A bench declares one
:class:`Gate` (its file names, ``measure(name)``, the part of the
document compared exactly and an optional acceptance predicate), and
this module does the rest:

* :func:`record` writes ``gate.measure(name)`` as sorted, indented JSON
  when the file is missing or its exact part moved, and otherwise leaves
  the file's bytes alone;
* :func:`check` re-measures, passes the document through that same
  JSON encoding, and compares it with the recorded one using ``==``.
  A difference is ``mismatch``, named by its leaf paths (:func:`diff`).
  Only a match runs the acceptance predicate, whose status becomes the
  bench's.  A missing file is ``missing-baseline``, with a hint naming
  the command that records it;
* :func:`parser` and :func:`run` are the shared
  ``--record/--check/--baseline-dir/--bench/--out`` command line.

See docs/performance.md, "Baseline gates".
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Document = Dict[str, Any]

#: Where the bench gates keep their files, relative to the repo root.
BASELINE_DIR = Path("benchmarks") / "baselines"

#: A mismatch names at most this many differing leaf paths.
MAX_DIFF_PATHS = 40

#: Decimal places a float keeps in a baseline document (the arithmetic
#: underneath is exact; rounding only keeps the files diffable).
ROUND_DIGITS = 9


def _always_ok(name: str, measured: Document, recorded: Document) -> Tuple[str, str]:
    return "ok", ""


@dataclass(frozen=True)
class Gate:
    """One bench's baseline files and the rule its documents must pass."""

    #: The command that runs this gate, e.g. ``python -m repro.bench regress``.
    prog: str
    #: File name of one bench; ``{name}`` is replaced by the bench name.
    template: str
    names: Tuple[str, ...]
    measure: Callable[[str], Document]
    #: The one top-level key compared exactly; ``None`` compares it all.
    exact: Optional[str] = None
    #: ``accept(name, measured, recorded) -> (status, detail)``, run only
    #: after the exact part matches; any status but ``"ok"`` fails.
    accept: Callable[[str, Document, Document], Tuple[str, str]] = _always_ok
    #: Where the files live unless a caller passes another directory.
    directory: Path = BASELINE_DIR
    #: The arguments after ``prog`` that record one bench.
    record_args: Callable[[str], str] = "--record --bench {}".format

    def path(self, name: str, baseline_dir: Optional[Path] = None) -> Path:
        return Path(baseline_dir or self.directory) / self.template.format(name=name)

    def record_command(self, name: str, baseline_dir: Optional[Path] = None) -> str:
        """The command line that writes ``self.path(name, baseline_dir)``."""
        command = f"{self.prog} {self.record_args(name)}"
        if baseline_dir is not None and Path(baseline_dir) != Path(self.directory):
            command += f" --baseline-dir {shlex.quote(str(baseline_dir))}"
        return command


def rounded(obj: Any) -> Any:
    """``obj`` with every float rounded to ``ROUND_DIGITS`` places,
    recursively; tuples become lists, as JSON has them."""
    if isinstance(obj, float):
        return round(obj, ROUND_DIGITS)
    if isinstance(obj, dict):
        return {key: rounded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [rounded(value) for value in obj]
    return obj


def dumps(document: object) -> str:
    """The on-disk encoding of a baseline (and of a check report)."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def record(
    gate: Gate,
    baseline_dir: Optional[Path] = None,
    names: Optional[Sequence[str]] = None,
) -> Dict[Path, Document]:
    """Measure each bench and write its file when the file is missing or
    the gate's exact part moved, so re-recording unchanged code keeps a
    wall-clock part as it was; returns, by path, the document on disk."""
    on_disk = {}
    for name in names or gate.names:
        path = gate.path(name, baseline_dir)
        text = dumps(gate.measure(name))
        measured = json.loads(text)
        if path.exists():
            recorded = json.loads(path.read_text())
            if not mismatch(gate, measured, recorded):
                on_disk[path] = recorded
                continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        on_disk[path] = measured
    return on_disk


def mismatch(gate: Gate, measured: Document, recorded: Document) -> List[Document]:
    """The leaf paths where the gate's exact part of two documents differs."""
    if gate.exact is not None:
        measured = {gate.exact: measured.get(gate.exact)}
        recorded = {gate.exact: recorded.get(gate.exact)}
    return diff(recorded, measured)


def check(
    gate: Gate,
    baseline_dir: Optional[Path] = None,
    names: Optional[Sequence[str]] = None,
) -> Document:
    """Re-measure each bench and gate it against its recorded file.

    Returns a JSON-safe report.  ``report["ok"]`` is the gate, and
    ``report["benches"][name]`` holds the file and the ``status``: ``ok``,
    ``missing-baseline`` (with a ``hint``), ``mismatch`` (with its
    ``diff``) or the acceptance predicate's own status (with its
    ``detail``).  Every measured bench also carries its ``measured``
    document.
    """
    report: Document = {"ok": True, "benches": {}}
    for name in names or gate.names:
        path = gate.path(name, baseline_dir)
        entry: Document = {"baseline": str(path)}
        report["benches"][name] = entry
        if not path.exists():
            entry["status"] = "missing-baseline"
            entry["hint"] = f"run: {gate.record_command(name, baseline_dir)}"
        else:
            recorded = json.loads(path.read_text())
            measured = entry["measured"] = json.loads(dumps(gate.measure(name)))
            diffs = mismatch(gate, measured, recorded)
            if diffs:
                entry["status"], entry["diff"] = "mismatch", diffs
            else:
                entry["status"], entry["detail"] = gate.accept(name, measured, recorded)
        report["ok"] = report["ok"] and entry["status"] == "ok"
    return report


def diff(expected: object, got: object) -> List[Document]:
    """The first ``MAX_DIFF_PATHS`` leaf paths where two documents differ.

    Dict keys join with ``.`` and list indices read ``[i]``.  A key on
    one side only, or two lists of different lengths, is one leaf.
    """
    diffs: List[Document] = []

    def walk(e: object, g: object, path: str) -> None:
        if len(diffs) >= MAX_DIFF_PATHS:
            return
        if isinstance(e, dict) and isinstance(g, dict):
            for key in sorted(set(e) | set(g)):
                sub = f"{path}.{key}" if path else str(key)
                if key not in e or key not in g:
                    diffs.append({"path": sub, "expected": e.get(key), "got": g.get(key)})
                elif e[key] != g[key]:
                    walk(e[key], g[key], sub)
        elif isinstance(e, list) and isinstance(g, list) and len(e) == len(g):
            for i, (a, b) in enumerate(zip(e, g)):
                if a != b:
                    walk(a, b, f"{path}[{i}]")
        else:
            diffs.append({"path": path, "expected": e, "got": g})

    if expected != got:
        walk(expected, got, "")
    return diffs[:MAX_DIFF_PATHS]


def print_report(report: Document) -> None:
    """One line per bench, ok to stdout and failures to stderr, each
    failure followed by its differing leaf paths or its hint."""
    for entry in report["benches"].values():
        status = entry["status"]
        stream = sys.stdout if status == "ok" else sys.stderr
        line = f"{Path(entry['baseline']).name}: {status}"
        if entry.get("detail"):
            line += f"  ({entry['detail']})"
        print(line, file=stream)
        for d in entry.get("diff", ()):
            print(f"  {d['path']}: expected {d['expected']!r}, got {d['got']!r}", file=stream)
        if "hint" in entry:
            print(f"  hint: {entry['hint']}", file=stream)


def parser(gate: Gate, description: str, required: bool = True) -> argparse.ArgumentParser:
    """The shared gate command line.  With ``required=False`` neither
    ``--record`` nor ``--check`` is needed, and the caller runs its own
    view when both are absent."""
    p = argparse.ArgumentParser(prog=gate.prog, description=description)
    mode = p.add_mutually_exclusive_group(required=required)
    mode.add_argument("--record", action="store_true", help="measure and (re)write baselines")
    mode.add_argument("--check", action="store_true", help="gate against recorded baselines")
    p.add_argument(
        "--baseline-dir",
        type=Path,
        default=gate.directory,
        help=f"baseline directory (default: {gate.directory})",
    )
    p.add_argument(
        "--bench",
        action="append",
        choices=gate.names,
        help="restrict to one bench (repeatable; default: all)",
    )
    p.add_argument("--out", type=Path, default=None, help="also write the check report JSON here")
    return p


def run(gate: Gate, args: argparse.Namespace) -> int:
    """Carry out ``--record`` or ``--check`` as parsed by :func:`parser`."""
    if args.record:
        for path in record(gate, args.baseline_dir, args.bench):
            print(f"recorded {path}")
        return 0
    report = check(gate, args.baseline_dir, args.bench)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(dumps(report))
    print_report(report)
    return 0 if report["ok"] else 1
