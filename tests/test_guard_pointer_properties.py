"""The guard's inlined pointer arithmetic equals the pointer helpers.

``GuardEngine.guard`` and ``TrackFMRuntime.access`` decode a pointer
with one mask and one shift instead of calling ``is_tfm_pointer`` /
``object_id_of``.  These properties pin that shortcut to the helpers
over every plausible object size, heap offset and access size: the
same objects are guarded, in the same order, with the same counts, a
canonical address still takes the custody-miss exit, and an id past the
heap is still rejected.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.aifm.pool import PoolConfig
from repro.errors import PointerError
from repro.machine.costs import AccessKind, GuardKind
from repro.trace import Tracer
from repro.trackfm.pointer import MAX_HEAP_OFFSET, encode_tfm_pointer, object_id_of
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import PLAUSIBLE_OBJECT_SIZES

HEAP_OBJECTS = 16

object_sizes = st.sampled_from(PLAUSIBLE_OBJECT_SIZES)
access_sizes = st.integers(min_value=1, max_value=64)
kinds = st.sampled_from([AccessKind.READ, AccessKind.WRITE])


def _runtime(object_size: int) -> TrackFMRuntime:
    rt = TrackFMRuntime(
        PoolConfig(
            object_size=object_size,
            local_memory=4 * object_size,
            heap_size=HEAP_OBJECTS * object_size,
        )
    )
    rt.set_tracer(Tracer())
    return rt


def _guarded_ids(rt: TrackFMRuntime):
    return [e.args["obj"] for e in rt.tracer.events if e.cat == "guard"]


@settings(max_examples=200, deadline=None)
@given(object_sizes, st.data(), access_sizes, kinds)
def test_access_guards_the_objects_object_id_of_names(object_size, data, size, kind):
    heap = HEAP_OBJECTS * object_size
    offset = data.draw(st.integers(min_value=0, max_value=heap - size))
    rt = _runtime(object_size)
    ptr = encode_tfm_pointer(offset)
    first = object_id_of(ptr, object_size)
    last = object_id_of(ptr + size - 1, object_size) if size > 1 else first
    expected = list(range(first, last + 1))

    rt.access(ptr, kind, size)  # cold: every touched object takes the slow path
    rt.access(ptr, kind, size)  # warm: every one takes the fast path
    assert _guarded_ids(rt) == expected + expected
    assert rt.metrics.guard_count(GuardKind.SLOW) == len(expected)
    assert rt.metrics.guard_count(GuardKind.FAST) == len(expected)
    assert rt.metrics.accesses == 2


@settings(max_examples=200, deadline=None)
@given(object_sizes, st.data(), kinds)
def test_guard_object_id_matches_object_id_of(object_size, data, kind):
    offset = data.draw(st.integers(min_value=0, max_value=HEAP_OBJECTS * object_size - 1))
    rt = _runtime(object_size)
    ptr = encode_tfm_pointer(offset)
    first = rt.guards.guard(ptr, kind)
    second = rt.guards.guard(ptr, kind)
    assert (first.kind, second.kind) == (GuardKind.SLOW, GuardKind.FAST)
    assert _guarded_ids(rt) == [object_id_of(ptr, object_size)] * 2


@settings(max_examples=100, deadline=None)
@given(object_sizes, st.integers(min_value=0, max_value=(1 << 47) - 1), access_sizes, kinds)
def test_custody_miss_still_charges_custody_miss(object_size, addr, size, kind):
    rt = _runtime(object_size)
    result = rt.guards.guard(addr, kind)
    assert result.kind is GuardKind.CUSTODY_MISS
    assert result.cycles == rt.costs.custody_miss
    cycles = rt.access(addr, kind, size)
    assert cycles == rt.costs.custody_miss + rt.costs.local_access
    assert rt.metrics.guard_count(GuardKind.CUSTODY_MISS) == 2
    assert rt.metrics.guards.keys() == {GuardKind.CUSTODY_MISS}


@settings(max_examples=100, deadline=None)
@given(object_sizes, st.data(), access_sizes, kinds)
def test_object_id_past_the_heap_raises(object_size, data, size, kind):
    heap = HEAP_OBJECTS * object_size
    offset = data.draw(st.integers(min_value=heap, max_value=MAX_HEAP_OFFSET))
    rt = _runtime(object_size)
    ptr = encode_tfm_pointer(offset)
    with pytest.raises(PointerError):
        rt.guards.guard(ptr, kind)
    with pytest.raises(PointerError):
        rt.access(ptr, kind, size)
