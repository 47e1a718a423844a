"""Lint the per-access hot paths for costs no profiler line names, and
hold the object miss path and a served request to a Python frame budget.

* **Enum class lookups.** ``EnumType`` defines ``__getattr__``, so on
  CPython 3.11 ``AccessKind.WRITE`` in a function body takes the slow
  generic attribute path, several times the cost of a module-global
  load, and the time lands in the caller's self time.  Hot functions
  test members bound once to module constants instead.
* **Frozen-dataclass results.** Building a frozen dataclass costs about
  three times as much as building a tuple, so the per-access results
  are ``NamedTuple`` subclasses.
* **Namedtuple ``_make``.** ``_make`` is a Python function, a frame per
  result; hot paths build results with ``partial(tuple.__new__, cls)``.

``HOT_PATHS`` lists what a guarded access, object miss, page fault,
eviction, transfer, epoch fold, region decision or served request runs.
Each function is walked with :mod:`dis`: a global that resolves to an
:class:`enum.Enum` subclass and is followed by an attribute load fails,
and so does a global that is a namedtuple's bound ``_make`` or a
namedtuple class followed by a ``_make`` load.  The checks read
instruction ``argval`` only, so they mean the same on 3.10 to 3.12.

The frame budgets count, exactly, the Python frames one slow guard (on
a bare link and on a serving shard's armed one), one prefetching chunk
crossing, one served read and one replicated write (also after a
failover) enter, what each request adds to a read-only serving run, and
what the adaptive hybrid's page hit, page fault and epochs enter.  A
budget also holds the interpreter's region lookups in one seed-1 ``nas``
rep.
"""

import dis
import enum
import gc
import inspect
import sys
from functools import partial
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.aifm.evacuator import Evacuator
from repro.aifm.pool import ObjectPool, PoolConfig
from repro.aifm.runtime import AIFMRuntime
from repro.bench.hybrid import SELECTOR
from repro.compiler import CompilerConfig, TrackFMCompiler
from repro.fastswap.runtime import FastswapRuntime
from repro.hashing import splitmix64
from repro.hybrid.placement import Placement
from repro.hybrid.profiler import DensityProfiler, RegionStats
from repro.hybrid.runtime import AdaptiveHybridRuntime, _TierRouter
from repro.hybrid.selector import PathSelector
from repro.machine.costs import AccessKind, CostTable
from repro.net.backends import RemoteBackend, make_shard_backend
from repro.net.faults import CircuitBreaker
from repro.net.link import NetworkLink
from repro.serve.cluster import ClusterConfig, RequestResult, Shard, ShardedCluster
from repro.serve.replication import ReplicaTag
from repro.serve.simulation import ServingSimulation
from repro.serve.traffic import Schedule, TrafficConfig, generate_schedule
from repro.sim.irrun import TrackFMProgram
from repro.sim.memory import AddressSpace
from repro.sim.residency import AccessOutcome, ResidencySet
from repro.trace.histogram import StreamingHistogram
from repro.trackfm.guards import GuardEngine, GuardResult
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import KB

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
    # the interpreter's typed loads and stores, and their region lookup
    AddressSpace.load,
    AddressSpace.store,
    AddressSpace.span,
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
    RemoteBackend._resilient_cost,
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
    PathSelector.decide,
    PathSelector.tier_costs,
    AdaptiveHybridRuntime.rebalance,
    AIFMRuntime.access,
    # served request, a write's tag, the final-value pass
    ShardedCluster.serve,
    ShardedCluster.read_value,
    ShardedCluster.durable_values,
    Shard.service,
    ReplicaTag.at,
    splitmix64,
    ServingSimulation.run,
    Schedule.rows,
    StreamingHistogram.record,
    StreamingHistogram.record_many,
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


def _global_loads(fn):
    """``(name, value, next instruction)`` for every global ``fn`` loads."""
    namespace = fn.__globals__
    for code in _code_objects(fn.__code__):
        instructions = list(dis.get_instructions(code))
        for load, nxt in zip(instructions, instructions[1:]):
            if load.opname == "LOAD_GLOBAL":
                yield load.argval, namespace.get(load.argval), nxt


def enum_class_lookups(fn):
    """Every ``Enum.MEMBER`` load in ``fn``, as ``"Class.MEMBER"`` strings:
    a global that resolves to an enum class, then an attribute load."""
    return [
        f"{name}.{nxt.argval}"
        for name, value, nxt in _global_loads(fn)
        if nxt.opname in _ATTRIBUTE_LOADS
        and isinstance(value, type) and issubclass(value, enum.Enum)
    ]


def _is_namedtuple(value):
    return isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields")


def namedtuple_make_loads(fn):
    """Every namedtuple ``_make`` ``fn`` loads: a global bound to one (by
    name), or a namedtuple class global then ``_make`` (``"Class._make"``)."""
    found = []
    for name, value, nxt in _global_loads(fn):
        if inspect.ismethod(value) and value.__name__ == "_make" and _is_namedtuple(value.__self__):
            found.append(name)
        elif _is_namedtuple(value) and nxt.opname in _ATTRIBUTE_LOADS and nxt.argval == "_make":
            found.append(f"{name}._make")
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


@pytest.mark.parametrize("fn", HOT_PATHS, ids=lambda fn: fn.__qualname__)
def test_no_namedtuple_make_on_a_hot_path(fn):
    assert namedtuple_make_loads(fn) == [], (
        f"{fn.__qualname__} builds a result with _make; bind "
        "partial(tuple.__new__, cls) instead"
    )


class _Pair(NamedTuple):
    a: int
    b: int


_pair_make = _Pair._make
_pair = partial(tuple.__new__, _Pair)


def _builds_with_bound_make():
    return _pair_make((1, 2))


def _builds_with_class_make():
    return _Pair._make((1, 2))


def _builds_with_tuple_new():
    return _pair((1, 2))


@pytest.mark.parametrize(
    "fn, expected",
    [
        (_builds_with_bound_make, ["_pair_make"]),
        (_builds_with_class_make, ["_Pair._make"]),
        (_builds_with_tuple_new, []),
    ],
    ids=["bound", "class", "tuple-new"],
)
def test_the_lint_reads_namedtuple_make_loads(fn, expected):
    assert namedtuple_make_loads(fn) == expected
    assert fn() == _Pair(1, 2)


@pytest.mark.parametrize("cls", [GuardResult, AccessOutcome, RegionStats, RequestResult])
def test_per_access_results_are_tuples(cls):
    assert issubclass(cls, tuple)


# -- frame budget -------------------------------------------------------------


def _frames(fn, *args):
    """Python frames entered by ``fn(*args)``, ``fn``'s own included.

    The collector is off while they are counted: once a hypothesis test
    has run, every collection calls hypothesis's Python ``gc.callbacks``
    hook twice, and whether one lands inside the call depends on what
    the tests before it allocated.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def _runtime(backend=None):
    """Room for four objects; a 16-object allocation at heap offset 0."""
    rt = TrackFMRuntime(
        PoolConfig(object_size=256, local_memory=1024, heap_size=65536), backend=backend
    )
    return rt, rt.tfm_malloc(16 * 256)


#: Frames per call, the entry's own included.  They read 22, 27 and 123
#: while every word write, link price, guard count and id check on the
#: miss path was a call of its own, and the slow guards 9 and 12 while
#: the guard's state-table cache hit entered ``CacheModel.access``.
#: A serving shard's link arms a retry policy and a breaker
#: (``make_shard_backend``); while the breaker is quiet, a message goes
#: straight to the link, so the armed slow guards enter what the bare
#: ones do.  They read 12 and 19 while every message entered
#: ``_resilient_cost``, a closure, ``allow`` and ``record_success``.
#: The crossing read 46 while each prefetching crossing derived its clip
#: from the allocator (``allocation_at``, ``object_range``, ``ceil_div``
#: and ``Allocation.end`` twice); the stream now keeps the clip and asks
#: ``RegionAllocator.is_live``.
@pytest.mark.parametrize("case, frames", [
    ("slow guard, clean victim", 8),
    ("slow guard, dirty victim", 11),
    ("armed slow guard, clean victim", 8),
    ("armed slow guard, dirty victim", 11),
    ("crossing, 8 prefetches", 42),
])
def test_miss_path_frame_budget(case, frames):
    rt, ptr = _runtime(make_shard_backend("tcp", 0) if case.startswith("armed") else None)
    if "slow" in case:
        fill = rt.tfm_guard_write if "dirty" in case else rt.tfm_guard_read
        for obj in range(4):
            fill(ptr + obj * 256)
        got = _frames(rt.tfm_guard_read, ptr + 4 * 256)
        assert rt.metrics.evictions == 1
        assert rt.metrics.bytes_evacuated == (256 if "dirty" in case else 0)
        breaker = rt.pool.backend.breaker
        assert breaker is None or breaker.quiet
    else:
        rt.chunk_begin(1, prefetch=True)
        rt.tfm_chunk_deref(ptr, 1)
        rt.tfm_chunk_deref(ptr + 256, 1)  # the stride is seen; confident next
        issued = rt.metrics.prefetches_issued
        got = _frames(rt.tfm_chunk_deref, ptr + 2 * 256, 1)
        assert rt.metrics.prefetches_issued - issued == 8
    assert got == frames


def _cluster(replication=1):
    """Four TrackFM shards over 64 keys, 4 KB local memory each: every
    key's object stays resident once served."""
    return ShardedCluster(ClusterConfig(
        n_shards=4, n_keys=64, runtime="trackfm", local_memory=4 * KB,
        replication=replication,
    ))


#: A resident R=1 read enters the four spans the host benchmark wraps:
#: ``serve``, ``service``, ``access`` and ``guard``.  It entered 7 (a
#: written key) and 9 (a never-written one) while the guard called
#: ``CacheModel.access`` and ``ResidencySet.touch``, the result was
#: built with ``_make`` and the seed value was derived on every read.
@pytest.mark.parametrize("case", ["written key", "never-written key"])
def test_served_read_frame_budget(case):
    cluster = _cluster()
    if case == "written key":
        cluster.serve(5, write=True)
    first = cluster.serve(5)  # localizes the slot and memoizes the seed
    assert _frames(cluster.serve, 5) == 4
    assert cluster.serve(5).value == first.value


#: A resident R=2 write enters ``serve``, ``_freshest``, ``next_value``,
#: the tag's ``ReplicaTag.at``, ``object_checksum`` and two
#: ``splitmix64``, and on each replica ``service``, ``access``, ``guard``
#: and ``apply_write``: 15.  It entered 16 while the tag was built by
#: the namedtuple's ``__new__``.
def test_replicated_write_frame_budget():
    cluster = _cluster(replication=2)
    cluster.serve(5, write=True)  # localizes both replicas' slots
    version = cluster.serve(5).version
    assert _frames(cluster.serve, 5, 0, True) == 15
    assert cluster.serve(5).version == version + 1


#: A failed-over shard stays suspected for good, but no replica set
#: holds it any more, so a request routes on its cached replica set: a
#: read takes the read-one line (4 frames) and a write enters the 15 of
#: ``test_replicated_write_frame_budget``.  They entered 6 and 17 while
#: any suspect sent every request through ``_routable``, and a read
#: through the quorum branch and ``_freshest``.
@pytest.mark.parametrize("lost", ["a replica of the key", "another shard"])
def test_request_frame_budget_after_failover(lost):
    cluster = _cluster(replication=2)
    for key in range(64):
        cluster.serve(key, write=True)
    reps = cluster.replicas(5)
    victim = reps[0] if lost == "a replica of the key" else min(set(range(4)) - set(reps))
    cluster.lose_shard(victim)
    cluster.failover([victim])
    assert cluster.detector.is_suspected(victim)
    assert victim not in cluster.replicas(5)
    cluster.serve(5, write=True)  # localizes a promoted replica's slot
    assert _frames(cluster.serve, 5) == 4
    assert cluster.serve(5).value == cluster.read_value(5)
    assert _frames(cluster.serve, 5, 0, True) == 15


def _read_only_run_frames(requests_per_client):
    schedule = generate_schedule(TrafficConfig(
        clients=8, requests_per_client=requests_per_client, n_keys=64, write_fraction=0.0,
    ))
    cluster = _cluster()
    for key in range(64):
        cluster.serve(key)
    return _frames(ServingSimulation(cluster, schedule).run), len(schedule)


def test_served_request_frame_budget_in_the_event_loop():
    """Each request of a read-only run adds exactly its four spans: the
    rows are chained C iterators and the latencies fold once per shard.

    The difference of two runs is what a request adds; the run's fixed
    part (the final-value pass, one histogram fold per shard) includes
    numpy's Python-level functions, whose count is numpy's own.  Each
    request added 11 while rows came from a generator, each latency was
    recorded with ``record``, and each read entered ``CacheModel.access``,
    ``ResidencySet.touch``, ``_make``, ``default_value`` and
    ``splitmix64`` (no key of this run is ever written)."""
    short, short_n = _read_only_run_frames(25)
    long, long_n = _read_only_run_frames(100)
    assert long - short == 4 * (long_n - short_n)
    # Fixed costs included, an 800-request run stays under 5 per request.
    assert long < 5 * long_n


# -- the adaptive hybrid ------------------------------------------------------


def _paged_hybrid():
    """``hybrid-phase``'s shape (32 KB local, a 128 KB heap, 256 B objects,
    4 KB regions, epochs of 32, its selector) with regions 0..4 swept
    until each is page-placed: the page tier holds 4 pages, so region
    0's page has been evicted, and a new window has just begun."""
    rt = AdaptiveHybridRuntime(
        local_memory=32 * KB, heap_size=128 * KB, object_size=256,
        epoch_accesses=32, selector_config=SELECTOR,
    )
    ptr = rt.tfm_malloc(128 * KB)
    for region in range(5):
        for word in range(32):
            rt.access(ptr + region * 4 * KB + word * 64, AccessKind.READ, 8)
        assert rt.placement_of(region * 4 * KB) is Placement.PAGES
    assert rt.fastswap.residency.capacity == 4
    assert rt.profiler.window_accesses == 0
    return rt, ptr


#: A page hit enters ``access`` and the router; a fault into a full page
#: tier adds ``_touch_page`` and ``ResidencySet.access``.  An epoch
#: enters ``rebalance``, ``interleave_rate`` and ``fold``, and a window
#: at or above the floor adds ``decide``, ``tier_costs`` and the two
#: tier costs.  The epochs entered 14 and 6 while ``fold`` froze through
#: ``_freeze`` (a generator and a dict comprehension) and ``rebalance``
#: read the page size and the page tier's capacity through two
#: properties, and a window entered ``_wire_terms`` too while the
#: selector divided its config's wire terms again for every window.
@pytest.mark.parametrize("case, frames", [
    ("page hit", 2),
    ("page fault", 4),
    ("epoch, one window at the floor or above", 7),
    ("epoch, eight windows under the floor", 3),
])
def test_adaptive_hybrid_frame_budget(case, frames):
    rt, ptr = _paged_hybrid()
    faults = rt.metrics.major_faults
    if case.startswith("page"):
        if case == "page hit":
            rt.access(ptr, AccessKind.READ, 8)
            faults += 1
        got = _frames(rt.access, ptr + 8, AccessKind.WRITE, 8)
        assert rt.metrics.major_faults == faults + (case == "page fault")
    else:
        rt.epoch_accesses = 10**9  # the test ends the window itself
        if "one window" in case:
            for word in range(32):
                rt.access(ptr + word * 64, AccessKind.READ, 8)
        else:
            for region in range(8, 16):
                rt.access(ptr + region * 4 * KB, AccessKind.READ, 8)
        migrations = len(rt.migration_log)
        got = _frames(rt.rebalance)
        assert len(rt.migration_log) == migrations
    assert got == frames


# -- the interpreter's typed accesses -----------------------------------------

#: Region lookups (``AddressSpace.span``) in one seed-1 ``nas`` rep of the
#: benchmark's five kernels.  There were 181,152 typed-access calls while
#: every load and store called ``AddressSpace.load``/``store`` (24,993 of
#: them missed its two-entry region cache).  Now each load or store site
#: keeps its own span, so a lookup is a site's first access after a call
#: or the first access into a new region.
NAS_REGION_LOOKUPS = 17_690


def test_nas_region_lookup_budget(monkeypatch):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "host"))
    from workloads import OBJECT_SIZE, Nas

    lookups = 0
    span = AddressSpace.span

    def counted(self, addr, size):
        nonlocal lookups
        lookups += 1
        return span(self, addr, size)

    monkeypatch.setattr(AddressSpace, "span", counted)
    nas = Nas(seed=1)
    for kernel, module in nas.prepare():
        compiled = TrackFMCompiler(CompilerConfig(object_size=OBJECT_SIZE)).compile(module)
        program = TrackFMProgram(compiled.module, TrackFMRuntime(nas.pools[kernel]),
                                 engine="decoded")
        assert program.run("main").value == nas.expected[kernel]
    assert lookups <= NAS_REGION_LOOKUPS


# -- splitmix64 ---------------------------------------------------------------


def _splitmix64_masked(x):
    """splitmix64 with every step masked, the last one included."""
    mask = (1 << 64) - 1
    x = (x + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return (x ^ (x >> 31)) & mask


@pytest.mark.parametrize("x, mixed", [
    (0, 0xE220A8397B1DCDAF),
    (0x9E3779B97F4A7C15, 0x6E789E6AA1B965F4),
])
def test_splitmix64_known_answers(x, mixed):
    assert splitmix64(x) == mixed


@given(st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=-(2**80), max_value=2**80),
))
@settings(max_examples=500, deadline=None)
def test_splitmix64_needs_no_last_mask(x):
    assert splitmix64(x) == _splitmix64_masked(x)
