"""Execution engines.

Two tiers, sharing one cost table:

* :mod:`repro.sim.interpreter` executes transformed IR directly, byte-
  accurate, with runtime intrinsics bridged in (:mod:`repro.sim.irrun`)
  — used by tests, examples and the Fig. 6 microbenchmark.
* the runtimes' per-access ``access`` paths replay irregular access
  streams, and their closed-form ``sequential_scan`` bulk paths drive
  the GB-shaped sweeps behind Figs. 7–17.
"""

from repro.sim.memory import AddressSpace, MemoryRegion
from repro.sim.decode import DecodedFunction, DecodedModule, decode_module
from repro.sim.interpreter import Interpreter, InterpResult
from repro.sim.metrics import Metrics
from repro.sim.residency import ResidencySet, AccessOutcome
from repro.sim.local import LocalRuntime

# NOTE: repro.sim.irrun (TrackFMProgram, TWIN_BASE) is intentionally not
# imported here: it depends on repro.trackfm, which depends back on this
# package's metrics/residency modules.  Import it directly:
#     from repro.sim.irrun import TrackFMProgram

__all__ = [
    "AddressSpace",
    "MemoryRegion",
    "DecodedFunction",
    "DecodedModule",
    "decode_module",
    "Interpreter",
    "InterpResult",
    "Metrics",
    "ResidencySet",
    "AccessOutcome",
    "LocalRuntime",
]
