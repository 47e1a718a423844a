"""Loop-coverage profiling (the NOELLE profiling-engine stand-in).

§3.4: "we leverage NOELLE's profiling engine to collect loop code
coverage statistics.  With the profiling pass in TrackFM we filter out
loops with low object density transparently."  We profile by executing
the *untransformed* module in the IR interpreter with a basic-block hook
and aggregating block execution counts into per-loop trip counts and
instruction coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.loops import find_loops
from repro.ir.function import Function
from repro.ir.module import Module


@dataclass
class LoopProfile:
    """Profile numbers for one loop."""

    function: str
    header: str
    #: Times the header block executed (loop iterations + final test).
    header_executions: int
    #: Times the loop was entered from outside.
    entries: int
    #: Dynamic instructions executed inside the loop's blocks.
    dynamic_instructions: int
    #: Fraction of the whole run's dynamic instructions spent in the loop.
    coverage: float

    @property
    def average_trip_count(self) -> float:
        if self.entries == 0:
            return 0.0
        return self.header_executions / self.entries


@dataclass
class ProfileData:
    """Block execution counts plus derived loop profiles for a module."""

    block_counts: Dict[Tuple[str, str], int] = field(default_factory=dict)
    total_dynamic_instructions: int = 0
    loop_profiles: List[LoopProfile] = field(default_factory=list)

    def count(self, func_name: str, block_name: str) -> int:
        return self.block_counts.get((func_name, block_name), 0)

    def profile_for(self, func_name: str, header_name: str) -> Optional[LoopProfile]:
        for lp in self.loop_profiles:
            if lp.function == func_name and lp.header == header_name:
                return lp
        return None

    def hot_loops(self, min_coverage: float = 0.01) -> List[LoopProfile]:
        """Loops above a coverage threshold, hottest first."""
        hot = [lp for lp in self.loop_profiles if lp.coverage >= min_coverage]
        return sorted(hot, key=lambda lp: lp.coverage, reverse=True)


def profile_module(
    module: Module,
    entry: str = "main",
    args: Sequence[int] = (),
    max_steps: int = 50_000_000,
) -> ProfileData:
    """Execute ``entry`` and collect block counts + loop profiles.

    The interpreter import is local to avoid an analysis<->sim cycle.
    """
    from repro.sim.interpreter import Interpreter

    data = ProfileData()

    def on_block(func: Function, block_name: str) -> None:
        key = (func.name, block_name)
        data.block_counts[key] = data.block_counts.get(key, 0) + 1

    interp = Interpreter(module, block_hook=on_block, max_steps=max_steps)
    interp.run(entry, list(args))
    data.total_dynamic_instructions = interp.steps

    for func in module.defined_functions():
        loops = find_loops(func)
        from repro.analysis.cfg import CFG

        cfg = CFG(func)
        for loop in loops:
            header_exec = data.count(func.name, loop.header.name)
            if header_exec == 0:
                continue
            # Entries = header executions arriving from outside the loop.
            latch_exec = sum(
                data.count(func.name, latch.name) for latch in loop.latches
            )
            entries = max(header_exec - latch_exec, 0)
            dyn = sum(
                data.count(func.name, b.name) * len(b.instructions)
                for b in loop.blocks
            )
            total = max(data.total_dynamic_instructions, 1)
            data.loop_profiles.append(
                LoopProfile(
                    function=func.name,
                    header=loop.header.name,
                    header_executions=header_exec,
                    entries=max(entries, 1) if header_exec else 0,
                    dynamic_instructions=dyn,
                    coverage=dyn / total,
                )
            )
    return data
