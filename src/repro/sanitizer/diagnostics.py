"""Structured diagnostics for the guard-safety sanitizer.

Every finding carries a machine-readable code, a severity, and a
precise location (function, block, instruction), so CI can gate on
errors while humans and tools triage the rest.

Code space::

    TFM-S1xx   errors — the compiled module is unsafe under far memory
    TFM-S2xx   lints  — safe but wasteful; fodder for optimizations
    TFM-P3xx   perf   — static access-auditor findings (opt-in --perf):
               far-memory traffic the compiler could have avoided
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.ir.instructions import Instruction


class Severity(enum.Enum):
    """How bad a finding is."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"


#: A heap-may load/store dereferences a pointer that never passed
#: through a guard (or chunk/chase locality deref) on some path.
UNGUARDED_DEREF = "TFM-S101"
#: A localized (guard-returned) address escapes: stored to memory,
#: returned, passed to a call, or phi-merged with unlocalized values.
LOCALIZED_ESCAPE = "TFM-S102"
#: A localized address is used after a potential evacuation point, so
#: the object it names may have moved remote since the guard ran.
STALE_LOCALIZED = "TFM-S103"
#: A chunked access violates the chunk protocol: not routed through a
#: locality-guarded deref, or no dominating ``tfm_chunk_begin``.
CHUNK_INVARIANT = "TFM-S104"
#: A guard is dominated by an earlier guard of the same pointer with no
#: intervening evacuation point; a guard-elision pass could drop it.
REDUNDANT_GUARD = "TFM-S201"
#: A guard protects a pointer that provenance proves can never be a
#: TrackFM pointer (stack/global only) — a wasted custody check.
GUARD_ON_LOCAL = "TFM-S202"

#: An oblivious loop (exact affine streams, known trip count) runs with
#: no programmed prefetch schedule: every first touch demand-misses.
OBLIVIOUS_NOT_PREFETCHED = "TFM-P301"
#: A loop fetches far more bytes than it uses (sparse stride over
#: dense objects): the object size or layout fights the access pattern.
HIGH_FETCH_AMPLIFICATION = "TFM-P302"
#: A guarded access whose address is loop-invariant (stride 0): the
#: guard re-runs every iteration but could be hoisted to the preheader.
INVARIANT_GUARD_IN_LOOP = "TFM-P303"
#: A ``tfm_prefetch_sched`` call with no matching exact stream: the
#: schedule would fetch objects the loop never touches.
SCHEDULE_FOR_OPAQUE_STREAM = "TFM-P304"

#: Human one-liners keyed by code, for ``--explain`` style output.
CODE_SUMMARIES = {
    UNGUARDED_DEREF: "heap-may dereference not covered by a guard",
    LOCALIZED_ESCAPE: "localized address escapes its guard window",
    STALE_LOCALIZED: "localized address used across an evacuation point",
    CHUNK_INVARIANT: "chunked access breaks the chunk protocol",
    REDUNDANT_GUARD: "guard dominated by an equivalent earlier guard",
    GUARD_ON_LOCAL: "guard on a provably stack/global-only pointer",
    OBLIVIOUS_NOT_PREFETCHED: "oblivious loop not prefetched",
    HIGH_FETCH_AMPLIFICATION: "loop fetches far more bytes than it uses",
    INVARIANT_GUARD_IN_LOOP: "loop-invariant guard not hoisted",
    SCHEDULE_FOR_OPAQUE_STREAM: "prefetch schedule emitted for opaque stream",
}


@dataclass
class Diagnostic:
    """One sanitizer finding, locatable and machine-readable."""

    code: str
    severity: Severity
    message: str
    function: str
    block: str = ""
    instruction: str = ""

    @classmethod
    def at(
        cls,
        code: str,
        severity: Severity,
        message: str,
        inst: Instruction,
    ) -> "Diagnostic":
        """Build a diagnostic anchored at ``inst``."""
        block = inst.parent
        func = block.parent if block is not None else None
        return cls(
            code=code,
            severity=severity,
            message=message,
            function=func.name if func is not None else "?",
            block=block.name if block is not None else "?",
            instruction=inst.render(),
        )

    def matches(self, codes) -> bool:
        """True when the code matches any entry (exact or prefix).

        ``TFM-P`` matches every perf diagnostic, ``TFM-S1`` every
        safety error, ``TFM-S101`` exactly one code — ruff-style.
        """
        return any(self.code.startswith(c) for c in codes)

    def as_dict(self) -> dict:
        """JSON-ready representation (``--format json``)."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "function": self.function,
            "block": self.block,
            "instruction": self.instruction,
        }

    def render(self) -> str:
        """``error[TFM-S101] @main %body: 'load i64, %p': message``."""
        loc = f"@{self.function}"
        if self.block:
            loc += f" %{self.block}"
        at = f" '{self.instruction}'" if self.instruction else ""
        return f"{self.severity.value}[{self.code}] {loc}:{at} {self.message}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


@dataclass
class SanitizerReport:
    """All findings from one sanitizer run over a module."""

    module_name: str
    strict: bool
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no *errors* were found (lints do not fail a run)."""
        return not self.errors

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def filtered(self, select=None, ignore=None) -> "SanitizerReport":
        """A new report keeping only selected, non-ignored diagnostics.

        ``select``/``ignore`` are iterables of code prefixes (see
        :meth:`Diagnostic.matches`).  ``select=None`` keeps everything;
        ``ignore`` is subtracted afterwards.  Exit-code policy is then
        computed from the *filtered* report, so ``--ignore TFM-S101``
        really does silence that failure class.
        """
        kept = self.diagnostics
        if select is not None:
            kept = [d for d in kept if d.matches(select)]
        if ignore:
            kept = [d for d in kept if not d.matches(ignore)]
        return SanitizerReport(
            module_name=self.module_name, strict=self.strict, diagnostics=kept
        )

    def as_dict(self) -> dict:
        """JSON-ready representation (``--format json``)."""
        return {
            "module": self.module_name,
            "strict": self.strict,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }

    def render(self, max_lines: Optional[int] = None) -> str:
        lines = [d.render() for d in self.diagnostics]
        if max_lines is not None and len(lines) > max_lines:
            lines = lines[:max_lines] + [f"... {len(lines) - max_lines} more"]
        mode = "strict" if self.strict else "incremental"
        lines.append(
            f"{self.module_name}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s) [{mode}]"
        )
        return "\n".join(lines)
