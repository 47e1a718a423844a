"""Lint the per-access hot paths for two costs no profiler line names,
and hold the object miss path to a Python frame budget.

* **Enum class lookups.** ``EnumType`` defines ``__getattr__``, so on
  CPython 3.11 ``AccessKind.WRITE`` in a function body takes the slow
  generic attribute path, several times the cost of a module-global
  load, and the time lands in the caller's self time.  Hot functions
  test members bound once to module constants instead.
* **Frozen-dataclass results.** Building a frozen dataclass costs about
  three times as much as building a tuple, so the per-access results
  are ``NamedTuple`` subclasses.

``HOT_PATHS`` lists what a guarded access, object miss, page fault,
eviction, transfer, epoch fold, region decision or served request runs.
Each function is walked with :mod:`dis`: a global that resolves to an
:class:`enum.Enum` subclass and is followed by an attribute load fails.
The check reads instruction ``argval`` only, so it means the same on
3.10 to 3.12.

``test_miss_path_frame_budget`` counts the Python frames one slow guard
and one prefetching chunk crossing enter, exactly.
"""

import dis
import enum
import inspect
import sys

import pytest

from repro.aifm.evacuator import Evacuator
from repro.aifm.pool import ObjectPool, PoolConfig
from repro.aifm.runtime import AIFMRuntime
from repro.fastswap.runtime import FastswapRuntime
from repro.hybrid.profiler import DensityProfiler, RegionStats
from repro.hybrid.runtime import AdaptiveHybridRuntime, _TierRouter
from repro.hybrid.selector import PathSelector
from repro.machine.costs import AccessKind, CostTable
from repro.net.backends import RemoteBackend
from repro.net.faults import CircuitBreaker
from repro.net.link import NetworkLink
from repro.serve.cluster import Shard, ShardedCluster
from repro.serve.simulation import ServingSimulation
from repro.sim.memory import AddressSpace
from repro.sim.residency import AccessOutcome, ResidencySet
from repro.trace.histogram import StreamingHistogram
from repro.trackfm.guards import GuardEngine, GuardResult
from repro.trackfm.runtime import TrackFMRuntime

_WRITE = AccessKind.WRITE

HOT_PATHS = [
    # guarded access (naive and chunked)
    GuardEngine.guard,
    GuardEngine._slow_path,
    GuardEngine.locality_guard,
    TrackFMRuntime.tfm_guard_read,
    TrackFMRuntime.tfm_guard_write,
    TrackFMRuntime.tfm_chunk_deref,
    TrackFMRuntime.tfm_chunk_deref_write,
    TrackFMRuntime.access,
    TrackFMRuntime.chunk_access,
    # residency: hit, miss, eviction
    ResidencySet.access,
    ResidencySet.touch,
    # the interpreter's typed loads and stores, and a hot-region miss
    AddressSpace.load,
    AddressSpace.store,
    AddressSpace._make_hot,
    # object miss, prefetch and evacuation
    ObjectPool.ensure_local,
    ObjectPool.prefetch,
    ObjectPool.expel,
    Evacuator.process,
    # transfer, retry and breaker
    NetworkLink.transfer,
    RemoteBackend.fetch,
    RemoteBackend.evict,
    RemoteBackend.admit,
    CircuitBreaker.allow,
    CircuitBreaker.record_success,
    CircuitBreaker.record_failure,
    CostTable.slow_guard_local,
    CostTable.fastswap_fault,
    # page fault
    FastswapRuntime.access,
    FastswapRuntime._touch_page,
    # adaptive hybrid: routing, epoch fold, region decision
    _TierRouter.guard,
    DensityProfiler.interleave_rate,
    DensityProfiler.fold,
    DensityProfiler._freeze,
    PathSelector.decide,
    PathSelector.tier_costs,
    AdaptiveHybridRuntime.rebalance,
    AIFMRuntime.access,
    # served request
    ShardedCluster.serve,
    Shard.service,
    ServingSimulation.run,
    StreamingHistogram.record,
]

#: Opcodes that load an attribute of the object on top of the stack
#: (``LOAD_METHOD`` folded into ``LOAD_ATTR`` in 3.12).
_ATTRIBUTE_LOADS = ("LOAD_ATTR", "LOAD_METHOD")


def _code_objects(code):
    """``code`` and every code object nested in it (lambdas, closures)."""
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _code_objects(const)


def enum_class_lookups(fn):
    """Every ``Enum.MEMBER`` load in ``fn``, as ``"Class.MEMBER"`` strings:
    a global that resolves to an enum class, then an attribute load."""
    namespace = fn.__globals__
    found = []
    for code in _code_objects(fn.__code__):
        instructions = list(dis.get_instructions(code))
        for load, nxt in zip(instructions, instructions[1:]):
            if load.opname != "LOAD_GLOBAL" or nxt.opname not in _ATTRIBUTE_LOADS:
                continue
            value = namespace.get(load.argval)
            if isinstance(value, type) and issubclass(value, enum.Enum):
                found.append(f"{load.argval}.{nxt.argval}")
    return found


@pytest.mark.parametrize("fn", HOT_PATHS, ids=lambda fn: fn.__qualname__)
def test_no_enum_class_lookup_on_a_hot_path(fn):
    assert enum_class_lookups(fn) == [], (
        f"{fn.__qualname__} loads enum members through the class; bind "
        "them to module constants"
    )


def _tests_write_kind(kind):
    return kind is AccessKind.WRITE


def _tests_write_constant(kind):
    return kind is _WRITE


@pytest.mark.parametrize(
    "fn, expected",
    [
        (_tests_write_kind, ["AccessKind.WRITE"]),
        (_tests_write_constant, []),
    ],
    ids=["class", "constant"],
)
def test_the_lint_reads_enum_member_loads(fn, expected):
    assert enum_class_lookups(fn) == expected


@pytest.mark.parametrize("cls", [GuardResult, AccessOutcome, RegionStats])
def test_per_access_results_are_tuples(cls):
    assert issubclass(cls, tuple)


# -- frame budget -------------------------------------------------------------


def _frames(fn, *args):
    """Python frames entered by ``fn(*args)``, ``fn``'s own included."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def _runtime():
    """Room for four objects; a 16-object allocation at heap offset 0."""
    rt = TrackFMRuntime(PoolConfig(object_size=256, local_memory=1024, heap_size=65536))
    return rt, rt.tfm_malloc(16 * 256)


#: Frames per call, the entry's own included.  They read 22, 27 and 123
#: while every word write, link price, guard count and id check on the
#: miss path was a call of its own.
@pytest.mark.parametrize("case, frames", [
    ("slow guard, clean victim", 9),
    ("slow guard, dirty victim", 12),
    ("crossing, 8 prefetches", 46),
])
def test_miss_path_frame_budget(case, frames):
    rt, ptr = _runtime()
    if case.startswith("slow"):
        fill = rt.tfm_guard_write if "dirty" in case else rt.tfm_guard_read
        for obj in range(4):
            fill(ptr + obj * 256)
        got = _frames(rt.tfm_guard_read, ptr + 4 * 256)
        assert rt.metrics.evictions == 1
        assert rt.metrics.bytes_evacuated == (256 if "dirty" in case else 0)
    else:
        rt.chunk_begin(1, prefetch=True)
        rt.tfm_chunk_deref(ptr, 1)
        rt.tfm_chunk_deref(ptr + 256, 1)  # the stride is seen; confident next
        issued = rt.metrics.prefetches_issued
        got = _frames(rt.tfm_chunk_deref, ptr + 2 * 256, 1)
        assert rt.metrics.prefetches_issued - issued == 8
    assert got == frames
