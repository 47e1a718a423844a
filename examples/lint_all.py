"""Lint every example-built IR module: guard safety + access audit.

Two gates in one script, both exercised over the same module set (the
shipped examples, the NAS suite, and the shared IR test programs from
``tests/irprograms.py``):

1. **Guard safety** — build each module, push it through the default
   TrackFM pipeline, print it to ``.ir`` text, and run the sanitizer
   CLI over the result — the same path a user takes when saving
   pipeline output to disk.
2. **Access audit** — run the far-memory access auditor and the
   TFM-P3xx perf sanitizer over each *untransformed* module and compare
   loop classifications and diagnostic codes against the checked-in
   baseline ``examples/lint_baseline.json`` (:data:`GATE`, a baseline
   gate of ``repro.bench.baseline``).  Any drift — a loop that stops
   classifying oblivious, a new perf diagnostic, one that silently
   disappears, a module added or gone — fails the gate and prints its
   leaf path.

Exits non-zero if any module fails either gate.  After an intentional
analysis change, refresh the baseline with ``--record-baseline``.

Run from the repository root (after ``pip install -e .``)::

    python examples/lint_all.py
    python examples/lint_all.py --record-baseline   # refresh baseline
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

# Sibling example modules are imported by file location, so the script
# works under a plain ``pip install -e .`` with no PYTHONPATH set.
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "tests"))

from linked_list import build_list_program
from object_size_autotune import build_probe
from quickstart import build_unmodified_program

from irprograms import build_sum_loop, build_write_then_sum
from repro import CompilerConfig, TrackFMCompiler
from repro.analysis.oblivious import audit_module
from repro.bench import baseline
from repro.ir import print_module
from repro.sanitizer import Sanitizer
from repro.sanitizer.__main__ import main as sanitizer_main
from repro.workloads.nas import NAS_SUITE, build_nas_ir

#: Object size the audit assumes; matches the trace/bench drivers.
AUDIT_OBJECT_SIZE = 256

BUILDERS = {
    "quickstart": build_unmodified_program,
    "linked_list": build_list_program,
    "probe_sequential": lambda: build_probe(sequential=True),
    "probe_random": lambda: build_probe(sequential=False),
    "sum_loop": lambda: build_sum_loop(n=512),
    "write_then_sum": lambda: build_write_then_sum(n=512),
}
BUILDERS.update(
    {f"nas_{b.name.lower()}": (lambda name=b.name: build_nas_ir(name, n=32))
     for b in NAS_SUITE}
)


def audit_summary(module) -> dict:
    """Stable, diffable facts the baseline freezes for one module."""
    audit = audit_module(module, object_size=AUDIT_OBJECT_SIZE)
    classes = {}
    for la in audit.loops:
        key = f"{la.function}:{la.loop.header.name}"
        classes[key] = la.classification.value
    report = Sanitizer(strict=False, perf=True, object_size=AUDIT_OBJECT_SIZE).run(
        module
    )
    codes = sorted(d.code for d in report.diagnostics)
    return {"loops": classes, "diagnostics": codes}


GATE = baseline.Gate(
    prog="python examples/lint_all.py",
    template="lint_baseline.json",
    names=("audit",),
    measure=lambda name: {
        module: audit_summary(builder()) for module, builder in sorted(BUILDERS.items())
    },
    directory=HERE,
    record_args=lambda name: "--record-baseline",
)


def run_guard_gate() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="tfm-lint-") as tmp:
        for name, builder in sorted(BUILDERS.items()):
            module = builder()
            # verify_guards already sanitizes between passes and
            # post-pipeline; the CLI run below additionally covers the
            # print -> parse path.
            TrackFMCompiler(CompilerConfig(verify_guards=True)).compile(module)
            path = Path(tmp) / f"{name}.ir"
            path.write_text(print_module(module))
            rc = sanitizer_main([str(path)])
            status = "ok" if rc == 0 else f"FAILED (exit {rc})"
            print(f"[lint] {name}: {status}")
            if rc != 0:
                failures += 1
    if failures:
        print(f"[lint] {failures} module(s) failed guard-safety linting")
        return 1
    print(f"[lint] all {len(BUILDERS)} modules guard-safe")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--record-baseline" in argv:
        for path in baseline.record(GATE):
            print(f"recorded {path}")
        return 0
    report = baseline.check(GATE)
    baseline.print_report(report)
    audit_rc = 0 if report["ok"] else 1
    return max(audit_rc, run_guard_gate())


if __name__ == "__main__":
    sys.exit(main())
