"""§4.6: compilation costs — code-size growth and compile-time ratio.

The paper reports an average 2.4x generated-code-size increase
(proportional to the number of memory instructions, each expanded into
a guard) and compile times under 6x standard LLVM.  We reproduce both
over a small corpus of IR programs: code size via the pipeline's
native-expansion estimate, compile time as (full TrackFM pipeline) /
(O1-only baseline).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from repro.bench.harness import ExperimentResult, geomean
from repro.compiler.optimize import O1Pipeline
from repro.compiler.pass_manager import PassContext, PassManager
from repro.compiler.pipeline import CompilerConfig, TrackFMCompiler
from repro.ir import IRBuilder, Module
from repro.ir.types import I64, PTR
from repro.ir.values import Constant
from repro.workloads.nas import build_nas_ir


def _build_sum_loop(n: int = 1000) -> Module:
    m = Module("sumloop")
    f = m.add_function("main", I64)
    entry, header, body, exit_ = (f.add_block(x) for x in ("entry", "header", "body", "exit"))
    b = IRBuilder(entry)
    p = b.call(PTR, "malloc", [Constant(I64, n * 8)], name="p")
    b.br(header)
    b.set_block(header)
    i = b.phi(I64, name="i")
    s = b.phi(I64, name="s")
    b.condbr(b.icmp("slt", i, n), body, exit_)
    b.set_block(body)
    v = b.load(I64, b.gep(p, i, 8))
    s2 = b.add(s, v)
    i2 = b.add(i, 1)
    b.br(header)
    i.add_incoming(Constant(I64, 0), entry)
    i.add_incoming(i2, body)
    s.add_incoming(Constant(I64, 0), entry)
    s.add_incoming(s2, body)
    b.set_block(exit_)
    b.ret(s)
    return m


def _build_pointer_chase(n: int = 64) -> Module:
    """Irregular accesses: every load needs a full guard (no chunking)."""
    m = Module("chase")
    f = m.add_function("main", I64)
    entry, header, body, exit_ = (f.add_block(x) for x in ("entry", "header", "body", "exit"))
    b = IRBuilder(entry)
    p = b.call(PTR, "malloc", [Constant(I64, n * 8)], name="p")
    b.br(header)
    b.set_block(header)
    i = b.phi(I64, name="i")
    acc = b.phi(I64, name="acc")
    b.condbr(b.icmp("slt", i, n), body, exit_)
    b.set_block(body)
    # Index depends on the accumulator: not an induction pattern.
    idx = b.srem(acc, n)
    v = b.load(I64, b.gep(p, idx, 8))
    acc2 = b.add(b.add(acc, v), 7)
    i2 = b.add(i, 1)
    b.br(header)
    i.add_incoming(Constant(I64, 0), entry)
    i.add_incoming(i2, body)
    acc.add_incoming(Constant(I64, 1), entry)
    acc.add_incoming(acc2, body)
    b.set_block(exit_)
    b.ret(acc)
    return m


#: The corpus: program name -> builder.
CORPUS: Dict[str, Callable[[], Module]] = {
    "sum-loop": _build_sum_loop,
    "pointer-chase": _build_pointer_chase,
    "nas-ft": lambda: build_nas_ir("FT"),
    "nas-sp": lambda: build_nas_ir("SP"),
    "nas-cg": lambda: build_nas_ir("CG"),
}


def compile_costs() -> ExperimentResult:
    """Code-size factor and compile-time ratio per corpus program."""
    names = list(CORPUS)
    result = ExperimentResult(
        "compile_costs",
        "Compilation costs (§4.6): code size growth and compile time",
        "program",
        names + ["mean"],
        "x vs untransformed / x vs O1-only compile",
    )
    size_factors: List[float] = []
    time_ratios: List[float] = []
    for name in names:
        module = CORPUS[name]()
        res = TrackFMCompiler(CompilerConfig()).compile(module)
        size_factors.append(res.code_size_factor)

        baseline = CORPUS[name]()
        started = time.perf_counter()
        ctx = PassContext(config=CompilerConfig())
        PassManager([O1Pipeline()]).run(baseline, ctx)
        baseline_time = max(time.perf_counter() - started, 1e-6)
        time_ratios.append(max(res.compile_seconds / baseline_time, 0.01))
    result.add_series("code size (x)", size_factors + [geomean(size_factors)])
    result.add_series("compile time (x)", time_ratios + [geomean(time_ratios)])
    result.note("paper: code size ~2.4x average; compile time under 6x LLVM")
    return result
