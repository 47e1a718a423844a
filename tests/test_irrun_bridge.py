"""The interpreter <-> TrackFM runtime bridge (sim.irrun).

Besides the wiring itself, this pins the per-access entry points both
engines call (``TrackFMRuntime.tfm_guard_*``/``tfm_chunk_deref*``)
against an independent reference built from the public runtime calls
a guard and a chunked access decompose into, and the decoded bridge
ops against the legacy engine.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aifm.objectmeta import UNSAFE_MASK
from repro.aifm.pool import PoolConfig
from repro.compiler import CompilerConfig, TrackFMCompiler
from repro.errors import InterpError, PointerError, SegmentationFault, SimulatedCrashError
from repro.hybrid.runtime import AdaptiveHybridRuntime
from repro.integrity import IntegrityConfig
from repro.ir import IRBuilder, I64, PTR, VOID, Module
from repro.ir.values import Constant
from repro.machine.cache import AlwaysHitCache, AlwaysMissCache, CacheModel
from repro.machine.costs import AccessKind, GuardKind
from repro.sim.interpreter import Interpreter
from repro.sim.irrun import TWIN_BASE, TrackFMProgram
from repro.trackfm.pointer import TFM_BASE, decode_tfm_pointer, is_tfm_pointer
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import KB, MB


def make_runtime():
    return TrackFMRuntime(
        PoolConfig(object_size=4 * KB, local_memory=32 * KB, heap_size=1 * MB),
        cache=AlwaysHitCache(),
    )


def build(body_fn, ret_ty=I64):
    m = Module("bridge")
    f = m.add_function("main", ret_ty)
    b = IRBuilder(f.add_block("entry"))
    value = body_fn(b)
    b.ret(value)
    return m


class TestTwinMapping:
    def test_malloc_returns_tagged_and_maps_twin(self):
        def body(b):
            return b.ptrtoint(b.call(PTR, "tfm_malloc", [Constant(I64, 64)]))

        program = TrackFMProgram(build(body), make_runtime())
        result = program.run("main")
        ptr = result.value & ((1 << 64) - 1)
        assert is_tfm_pointer(ptr)
        twin = TWIN_BASE + decode_tfm_pointer(ptr)
        assert program.interp.memory.is_mapped(twin)

    def test_twin_addr_helper(self):
        program = TrackFMProgram(Module("m"), make_runtime())
        # no functions needed for this helper
        from repro.trackfm.pointer import encode_tfm_pointer

        assert program.twin_addr(encode_tfm_pointer(0x123)) == TWIN_BASE + 0x123

    def test_free_unmaps_twin(self):
        def body(b):
            p = b.call(PTR, "tfm_malloc", [Constant(I64, 64)])
            b.call(VOID, "tfm_free", [p])
            return b.ptrtoint(p)

        program = TrackFMProgram(build(body), make_runtime())
        result = program.run("main")
        twin = TWIN_BASE + decode_tfm_pointer(result.value & ((1 << 64) - 1))
        assert not program.interp.memory.is_mapped(twin)

    def test_guard_translates_to_twin(self):
        def body(b):
            p = b.call(PTR, "tfm_malloc", [Constant(I64, 64)])
            canon = b.call(PTR, "tfm_guard_write", [p])
            b.store(55, canon)
            canon2 = b.call(PTR, "tfm_guard_read", [p])
            return b.load(I64, canon2)

        program = TrackFMProgram(build(body), make_runtime())
        assert program.run("main").value == 55

    def test_unguarded_dereference_faults(self):
        def body(b):
            p = b.call(PTR, "tfm_malloc", [Constant(I64, 64)])
            return b.load(I64, p)  # raw non-canonical pointer

        program = TrackFMProgram(build(body), make_runtime())
        with pytest.raises(SegmentationFault):
            program.run("main")

    def test_guard_on_canonical_pointer_passes_through(self):
        def body(b):
            slot = b.alloca(8)
            b.store(9, slot)
            same = b.call(PTR, "tfm_guard_read", [slot])
            return b.load(I64, same)

        rt = make_runtime()
        program = TrackFMProgram(build(body), rt)
        assert program.run("main").value == 9
        assert rt.metrics.guard_count(GuardKind.CUSTODY_MISS) == 1

    def test_realloc_preserves_bytes_and_remaps(self):
        def body(b):
            p = b.call(PTR, "tfm_malloc", [Constant(I64, 16)])
            canon = b.call(PTR, "tfm_guard_write", [p])
            b.store(1234, canon)
            q = b.call(PTR, "tfm_realloc", [p, Constant(I64, 256)])
            canon2 = b.call(PTR, "tfm_guard_read", [q])
            return b.load(I64, canon2)

        program = TrackFMProgram(build(body), make_runtime())
        assert program.run("main").value == 1234

    def test_calloc(self):
        def body(b):
            p = b.call(PTR, "tfm_calloc", [Constant(I64, 4), Constant(I64, 8)])
            canon = b.call(PTR, "tfm_guard_read", [p])
            return b.load(I64, canon)

        program = TrackFMProgram(build(body), make_runtime())
        assert program.run("main").value == 0


class TestChunkIntrinsics:
    def test_chunk_stream_prefetch_flag(self):
        def body(b):
            p = b.call(PTR, "tfm_malloc", [Constant(I64, 64)])
            b.call(VOID, "tfm_chunk_begin", [Constant(I64, 0), Constant(I64, 1)])
            canon = b.call(PTR, "tfm_chunk_deref", [p, Constant(I64, 0)])
            v = b.load(I64, canon)
            b.call(VOID, "tfm_chunk_end", [Constant(I64, 0)])
            return v

        rt = make_runtime()
        TrackFMProgram(build(body), rt).run("main")
        assert rt.metrics.guard_count(GuardKind.BOUNDARY) == 1
        assert rt.metrics.guard_count(GuardKind.LOCALITY) == 1

    def test_runtime_init_hook(self):
        def body(b):
            b.call(VOID, "tfm_runtime_init", [])
            return Constant(I64, 0)

        rt = make_runtime()
        calls = []
        rt.initialize = lambda: calls.append("init")
        TrackFMProgram(build(body), rt).run("main")
        assert calls == ["init"]

    def test_chunk_deref_custody_miss_passthrough(self):
        def body(b):
            slot = b.alloca(8)
            b.store(4, slot)
            b.call(VOID, "tfm_chunk_begin", [Constant(I64, 0), Constant(I64, 0)])
            same = b.call(PTR, "tfm_chunk_deref", [slot, Constant(I64, 0)])
            v = b.load(I64, same)
            b.call(VOID, "tfm_chunk_end", [Constant(I64, 0)])
            return v

        program = TrackFMProgram(build(body), make_runtime())
        assert program.run("main").value == 4


class TestMetricsFlow:
    def test_guard_cycles_accumulate(self):
        def body(b):
            p = b.call(PTR, "tfm_malloc", [Constant(I64, 8)])
            canon = b.call(PTR, "tfm_guard_read", [p])
            return b.load(I64, canon)

        rt = make_runtime()
        TrackFMProgram(build(body), rt).run("main")
        assert rt.metrics.cycles > 30_000  # slow path + fetch
        assert rt.metrics.accesses == 1
        assert rt.metrics.remote_fetches == 1


# -- the per-access entry points against an independent reference ----------

_OBJ = 256
_HEAP = 16 * KB
_KINDS = (AccessKind.READ, AccessKind.WRITE)


def _small_cache():
    # Four lines of eight state-table entries each: lookups both hit and miss.
    return CacheModel(size_bytes=256, line_size=64, ways=2)


def _trackfm_runtime():
    return TrackFMRuntime(
        PoolConfig(object_size=_OBJ, local_memory=2 * KB, heap_size=_HEAP),
        cache=_small_cache(),
    )


def _hybrid_runtime():
    # Four 4 KB regions; a short epoch so the selector re-places them
    # while the script runs.
    return AdaptiveHybridRuntime(
        local_memory=8 * KB, heap_size=_HEAP, object_size=_OBJ,
        epoch_accesses=16, cache=_small_cache(),
    )


RUNTIMES = {"trackfm": _trackfm_runtime, "hybrid": _hybrid_runtime}


class _Reference:
    """The bridge decomposed into public runtime calls, one per step:
    ``guards.guard`` plus the custody-miss/hit charging and the
    ``TWIN_BASE`` translation, and ``chunk_access`` with the stream's
    prefetch flag kept here."""

    def __init__(self, runtime):
        self.rt = runtime
        self.prefetch = {}

    def guard(self, ptr, kind):
        rt = self.rt
        cycles = rt.guards.guard(ptr, kind).cycles
        if not is_tfm_pointer(ptr):
            rt.metrics.cycles += cycles
            return ptr
        rt.metrics.accesses += 1
        rt.metrics.cycles += cycles + rt.costs.local_access
        return TWIN_BASE + decode_tfm_pointer(ptr)

    def begin(self, stream, prefetch):
        self.prefetch[stream] = prefetch
        self.rt.chunk_begin(stream)

    def deref(self, ptr, stream, kind):
        if not is_tfm_pointer(ptr):
            return ptr
        self.rt.chunk_access(
            ptr, kind, stream=stream, prefetch=self.prefetch.get(stream, False)
        )
        return TWIN_BASE + decode_tfm_pointer(ptr)


class _Entries:
    """The same steps through the entry points the interpreter calls."""

    def __init__(self, runtime):
        self.rt = runtime

    def guard(self, ptr, kind):
        entry = self.rt.tfm_guard_write if kind is AccessKind.WRITE else self.rt.tfm_guard_read
        return entry(ptr)

    def begin(self, stream, prefetch):
        self.rt.chunk_begin(stream, prefetch)

    def deref(self, ptr, stream, kind):
        rt = self.rt
        entry = rt.tfm_chunk_deref_write if kind is AccessKind.WRITE else rt.tfm_chunk_deref
        return entry(ptr, stream)


def _state(rt):
    """Everything a bridge call may change, in comparable form."""
    pool = rt.pool
    residency = pool.residency
    out = {
        "metrics": rt.metrics.as_dict(),
        "resident": residency.resident_ids(),
        "dirty": [o for o in residency.resident_ids() if residency.is_dirty(o)],
        "pinned": [o for o in range(pool.num_objects) if residency.is_pinned(o)],
        "cache": (rt.table.cache.stats.hits, rt.table.cache.stats.misses),
    }
    if isinstance(rt, AdaptiveHybridRuntime):
        out["pages"] = rt.fastswap.residency.resident_ids()
        out["placements"] = rt.region_placements()
    return out


# Heap offsets cluster on two objects half the time, so scripts revisit
# an object after its stream moved on, ended or began again.
_OFFSET = st.one_of(st.integers(0, 2 * _OBJ - 1), st.integers(0, _HEAP - 1))
_in_heap = _OFFSET.map(lambda off: TFM_BASE | off)
_POINTER = st.one_of(
    _in_heap,
    _in_heap,
    st.integers(_HEAP, 4 * _HEAP).map(lambda off: TFM_BASE | off),  # past the heap
    st.integers(0, (1 << 47) - 1),  # canonical
)
_KIND = st.sampled_from(_KINDS)
_STREAM = st.integers(0, 1)
_STEP = st.one_of(
    st.tuples(st.just("guard"), _POINTER, _KIND),
    st.tuples(st.just("begin"), _STREAM, st.booleans()),
    # chunk_end then chunk_begin: the stream re-enters its loop.
    st.tuples(st.just("reenter"), _STREAM, st.booleans()),
    # A same-object run: ``n`` derefs inside the object at ``offset``.
    st.tuples(st.just("run"), _STREAM, _OFFSET, st.integers(1, 6), _KIND),
    st.tuples(st.just("deref"), _STREAM, _POINTER, _KIND),
    st.tuples(st.just("end"), _STREAM),
    # A programmed schedule: stream, offset of the base, stride, count, distance.
    st.tuples(
        st.just("sched"), _STREAM, _OFFSET,
        st.integers(1, 2 * _OBJ), st.integers(1, 24), st.integers(1, 4),
    ),
)


def _expand(script):
    """Calls per step: a run becomes its derefs, in one object, and a
    re-entry its end and begin."""
    for step in script:
        if step[0] == "run":
            _tag, stream, offset, n, kind = step
            base = offset - offset % _OBJ
            for i in range(n):
                yield ("deref", stream, TFM_BASE | (base + (offset + 8 * i) % _OBJ), kind)
        elif step[0] == "reenter":
            yield ("end", step[1])
            yield ("begin", step[1], step[2])
        else:
            yield step


def _apply(side, step):
    rt = side.rt
    tag = step[0]
    if tag == "guard":
        return side.guard(step[1], step[2])
    if tag == "begin":
        return side.begin(step[1], step[2])
    if tag == "deref":
        return side.deref(step[2], step[1], step[3])
    if tag == "end":
        return rt.chunk_end(step[1])
    _tag, stream, offset, stride, count, distance = step
    return rt.install_prefetch_schedule(stream, TFM_BASE | offset, 0, stride, count, distance)


def _outcome(side, step):
    try:
        return ("ok", _apply(side, step))
    except Exception as exc:  # noqa: BLE001 - the types are what is compared
        return ("raised", type(exc))


class TestEntryPointsMatchReference:
    """Each entry point books exactly what its decomposition books."""

    @pytest.mark.parametrize("runtime", sorted(RUNTIMES))
    @settings(max_examples=200, deadline=None)
    @given(script=st.lists(_STEP, max_size=60))
    def test_scripts_agree(self, runtime, script):
        reference = _Reference(RUNTIMES[runtime]())
        entries = _Entries(RUNTIMES[runtime]())
        for i, step in enumerate(_expand(script)):
            want = _outcome(reference, step)
            got = _outcome(entries, step)
            assert got == want, (i, step)
            assert _state(entries.rt) == _state(reference.rt), (i, step)

    @pytest.mark.parametrize("runtime", sorted(RUNTIMES))
    def test_stream_reentry_relocalizes(self, runtime):
        # chunk_end then chunk_begin on the same stream: the first deref
        # must take the locality guard again, not the same-object path.
        ptr = TFM_BASE | (3 * _OBJ)
        script = [
            ("begin", 0, True), ("deref", 0, ptr, AccessKind.READ),
            ("deref", 0, ptr + 8, AccessKind.WRITE), ("end", 0),
            ("begin", 0, False), ("deref", 0, ptr + 16, AccessKind.READ),
        ]
        reference = _Reference(RUNTIMES[runtime]())
        entries = _Entries(RUNTIMES[runtime]())
        for step in script:
            assert _outcome(entries, step) == _outcome(reference, step), step
        assert _state(entries.rt) == _state(reference.rt)
        assert entries.rt.metrics.guard_count(GuardKind.LOCALITY) == 2
        assert entries.rt.metrics.guard_count(GuardKind.BOUNDARY) == 3

    def test_deref_before_begin_raises_like_chunk_access(self):
        rt = _trackfm_runtime()
        with pytest.raises(Exception) as entry_exc:
            rt.tfm_chunk_deref(TFM_BASE | 64, 1)
        with pytest.raises(Exception) as ref_exc:
            rt.chunk_access(TFM_BASE | 64, AccessKind.READ, stream=1)
        assert entry_exc.type is ref_exc.type
        assert rt.metrics.as_dict() == _trackfm_runtime().metrics.as_dict()


def _guarded_runtime(cache, use_clock):
    return TrackFMRuntime(
        PoolConfig(object_size=_OBJ, local_memory=2 * KB, heap_size=_HEAP, use_clock=use_clock),
        cache=cache(),
    )


def _lookup_guard(rt, ptr, kind):
    """``GuardEngine.guard`` on a TrackFM pointer, decomposed: the word
    through ``ObjectStateTable.lookup``, then the slow path, or
    ``ResidencySet.access`` plus the fast guard's count and cycles."""
    obj_id = decode_tfm_pointer(ptr) // _OBJ
    word, hit = rt.table.lookup(obj_id)
    if word & UNSAFE_MASK:
        return rt.guards._slow_path(obj_id, kind, hit, 1)
    write = kind is AccessKind.WRITE
    rt.pool.residency.access(obj_id, write)
    rt.metrics.count_guard(GuardKind.FAST)
    costs = rt.costs
    if write:
        cycles = costs.fast_guard_write_cached if hit else costs.fast_guard_write_uncached
    else:
        cycles = costs.fast_guard_read_cached if hit else costs.fast_guard_read_uncached
    return (GuardKind.FAST, cycles, hit, False)


def _guard_state(rt):
    """What a guard may change: each cache set's LRU order, the cache
    counters, the resident order with CLOCK hot bits, the dirty set and
    the metrics."""
    cache = rt.table.cache
    residency = rt.pool.residency
    return {
        "sets": {idx: list(entries) for idx, entries in cache._sets.items()},
        "cache": (cache.stats.hits, cache.stats.misses),
        "resident": list(residency._resident.items()),
        "dirty": set(residency._dirty),
        "metrics": rt.metrics.as_dict(),
    }


def _guard_outcome(guard, *args):
    try:
        return ("ok", tuple(guard(*args)))
    except Exception as exc:  # noqa: BLE001 - the types are what is compared
        return ("raised", type(exc))


# In the heap two times in three, else past it (the guard raises).
_GUARD_OFFSET = st.one_of(
    st.integers(0, _HEAP - 1), st.integers(0, _HEAP - 1), st.integers(_HEAP, 2 * _HEAP),
)
_GUARD_STEP = st.one_of(
    st.tuples(st.just("guard"), _GUARD_OFFSET, _KIND),
    st.tuples(st.just("guard"), _GUARD_OFFSET, _KIND),
    st.tuples(st.just("guard"), _GUARD_OFFSET, _KIND),
    st.just(("flush",)),
)
_CACHES = pytest.mark.parametrize(
    "cache", [_small_cache, AlwaysHitCache, AlwaysMissCache], ids=["small", "hit", "miss"]
)
_POLICIES = pytest.mark.parametrize("use_clock", [False, True], ids=["lru", "clock"])


class TestInlineStateTableRead:
    """GuardEngine.guard books its cache and residency hits in place:
    after every guard, the cache's set order and counters, the residency
    order, hot bits and dirty set, and the metrics equal those of a twin
    driven through ``ObjectStateTable.lookup`` and ``ResidencySet.access``."""

    @staticmethod
    def _steps_agree(a, b, steps):
        for step in steps:
            if step[0] == "flush":
                a.table.cache.flush()
                b.table.cache.flush()
            else:
                ptr, kind = TFM_BASE | step[1], step[2]
                got = _guard_outcome(a.guards.guard, ptr, kind)
                assert got == _guard_outcome(_lookup_guard, b, ptr, kind), step
            assert _guard_state(a) == _guard_state(b), step

    @_CACHES
    @_POLICIES
    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(_GUARD_STEP, min_size=1, max_size=80))
    def test_guard_books_what_lookup_and_access_book(self, cache, use_clock, steps):
        a, b = _guarded_runtime(cache, use_clock), _guarded_runtime(cache, use_clock)
        self._steps_agree(a, b, steps)

    @_CACHES
    @_POLICIES
    @settings(max_examples=15, deadline=None)
    @given(
        crash_at=st.integers(2, 24),
        steps=st.lists(_GUARD_STEP, min_size=1, max_size=40),
    )
    def test_after_recover(self, cache, use_clock, crash_at, steps):
        # A crash mid-writeback, then recovery, which rebuilds the
        # pool's metadata words and reconciles residency in place: the
        # guard's bound state must see both.
        runtimes = (_guarded_runtime(cache, use_clock), _guarded_runtime(cache, use_clock))
        for rt in runtimes:
            rt.enable_integrity(IntegrityConfig(seed=1, crash_at_record=crash_at))
            try:
                for i in range(24):
                    rt.access(TFM_BASE | (i * _OBJ), AccessKind.WRITE)
            except SimulatedCrashError:
                pass
            rt.recover()
        self._steps_agree(*runtimes, steps)


# -- guard and deref calls on both engines -----------------------------------


def _past_heap_program():
    """A compiled program that loads 1 MB past its allocation, out of the heap."""
    def body(b):
        p = b.call(PTR, "malloc", [Constant(I64, 64)])
        return b.load(I64, b.gep(p, Constant(I64, MB // 8), 8))

    return TrackFMCompiler(CompilerConfig()).compile(build(body)).module


class TestBridgeOps:
    def test_raising_guard_matches_across_engines(self):
        outcomes = {}
        for engine in ("legacy", "decoded"):
            program = TrackFMProgram(_past_heap_program(), make_runtime(), engine=engine)
            with pytest.raises(Exception) as exc:
                program.run("main")
            outcomes[engine] = (exc.type, program.interp.steps)
        assert outcomes["decoded"] == outcomes["legacy"]
        # Runtime init, malloc and gep ran; the guard raised.
        assert outcomes["decoded"] == (PointerError, 4)

    @pytest.mark.parametrize("engine", ["legacy", "decoded"])
    def test_no_runtime_leaves_the_guard_unresolved(self, engine):
        def body(b):
            slot = b.alloca(8)
            return b.load(I64, b.call(PTR, "tfm_guard_read", [slot]))

        interp = Interpreter(build(body), engine=engine)
        with pytest.raises(InterpError, match="call to unresolved function @tfm_guard_read"):
            interp.run("main")

    def test_a_defined_function_of_a_bridge_name_takes_the_generic_call(self):
        # The module's own @tfm_guard_read is a function call, not a bridge op.
        m = Module("own-guard")
        own = m.add_function("tfm_guard_read", PTR, [PTR])
        IRBuilder(own.add_block("entry")).ret(own.args[0])
        f = m.add_function("main", I64)
        b = IRBuilder(f.add_block("entry"))
        slot = b.alloca(8)
        b.store(21, slot)
        b.ret(b.load(I64, b.call(PTR, "tfm_guard_read", [slot])))
        results = {
            engine: Interpreter(m, engine=engine).run("main")
            for engine in ("legacy", "decoded")
        }
        assert results["decoded"].value == results["legacy"].value == 21
        assert results["decoded"].steps == results["legacy"].steps
