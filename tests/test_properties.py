"""Property-based tests (hypothesis) on core invariants."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.aifm.allocator import RegionAllocator
from repro.aifm.objectmeta import ObjectMeta, encode_local, encode_remote
from repro.errors import EvacuationError
from repro.machine.costs import AccessKind, CostTable, DEFAULT_COSTS
from repro.sim.che import characteristic_time, lru_hit_rate, per_granule_hit_rates
from repro.sim.residency import ResidencySet
from repro.trackfm.pointer import (
    decode_tfm_pointer,
    encode_tfm_pointer,
    is_tfm_pointer,
    object_id_of,
)
from repro.units import align_up, ceil_div, is_power_of_two

offsets = st.integers(min_value=0, max_value=(1 << 60) - 1)
object_sizes = st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096])


class TestPointerProperties:
    @given(offsets)
    def test_encode_decode_roundtrip(self, offset):
        assert decode_tfm_pointer(encode_tfm_pointer(offset)) == offset

    @given(offsets)
    def test_encoded_pointers_always_non_canonical(self, offset):
        assert is_tfm_pointer(encode_tfm_pointer(offset))

    @given(st.integers(min_value=0, max_value=(1 << 47) - 1))
    def test_canonical_addresses_never_tfm(self, addr):
        assert not is_tfm_pointer(addr)

    @given(offsets, object_sizes)
    def test_object_id_consistent_with_division(self, offset, size):
        ptr = encode_tfm_pointer(offset)
        assert object_id_of(ptr, size) == offset // size

    @given(offsets, object_sizes, st.integers(min_value=0, max_value=63))
    def test_intra_object_offsets_share_id(self, offset, size, delta):
        base = (offset // size) * size
        if base + delta >= 1 << 60:
            return
        a = object_id_of(encode_tfm_pointer(base), size)
        b = object_id_of(encode_tfm_pointer(base + min(delta, size - 1)), size)
        assert a == b


class TestMetadataProperties:
    @given(
        st.integers(min_value=0, max_value=(1 << 47) - 1),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    def test_local_word_roundtrip(self, addr, dirty, hot, shared):
        meta = ObjectMeta(encode_local(addr, dirty=dirty, hot=hot, shared=shared))
        assert meta.is_local
        assert meta.data_addr == addr
        assert meta.is_dirty == dirty
        assert meta.is_hot == hot
        assert meta.is_safe  # not evacuating, not remote

    @given(
        st.integers(min_value=0, max_value=(1 << 38) - 1),
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.integers(min_value=0, max_value=255),
    )
    def test_remote_word_roundtrip(self, obj_id, size, ds_id):
        meta = ObjectMeta(encode_remote(obj_id, size, ds_id))
        assert meta.is_remote
        assert meta.obj_id == obj_id
        assert meta.obj_size == size
        assert meta.ds_id == ds_id
        assert not meta.is_safe


class TestResidencyProperties:
    @given(
        st.lists(st.tuples(st.integers(0, 30), st.booleans()), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=8),
        st.booleans(),
    )
    @settings(max_examples=50)
    def test_capacity_never_exceeded_and_access_resident(self, ops, capacity, clock):
        rs = ResidencySet(capacity, use_clock=clock)
        for granule, write in ops:
            rs.access(granule, write=write)
            assert len(rs) <= capacity
            assert granule in rs  # just-touched granule is resident

    @given(st.lists(st.integers(0, 10), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_eviction_conserves_granules(self, stream):
        rs = ResidencySet(4)
        evicted_total = 0
        for g in stream:
            out = rs.access(g)
            evicted_total += len(out.evicted)
        misses = sum(1 for _ in [0])  # placeholder to keep flake quiet
        del misses
        # Everything ever evicted plus the still-resident set accounts
        # for every miss (each miss inserts exactly one granule).
        assert evicted_total + len(rs) <= len(stream) + 4


class _ResidencyModel:
    """A list-based reference for :class:`ResidencySet`.

    ``order`` lists the resident granules eviction end first; LRU moves
    a hit to the tail, CLOCK sets its hot bit.  A victim is the first
    unpinned granule (LRU), or what a sweep from the head finds after
    clearing hot bits and passing pinned granules to the tail, for at
    most ``2n + 1`` steps (CLOCK).
    """

    def __init__(self, capacity, use_clock):
        self.capacity = capacity
        self.use_clock = use_clock
        self.order = []
        self.hot = {}
        self.dirty = set()
        self.pins = {}

    def _hit(self, granule, write):
        if granule not in self.order:
            return False
        if self.use_clock:
            self.hot[granule] = True
        else:
            self.order.remove(granule)
            self.order.append(granule)
        if write:
            self.dirty.add(granule)
        return True

    def _victim(self):
        if not self.use_clock:
            return next((g for g in self.order if g not in self.pins), None)
        for _ in range(2 * len(self.order) + 1):
            granule = self.order[0]
            if self.hot[granule]:
                self.hot[granule] = False
            elif granule not in self.pins:
                return granule
            self.order.append(self.order.pop(0))
        return None

    def _make_room(self):
        evicted = []
        while len(self.order) >= self.capacity:
            victim = self._victim()
            if victim is None:
                raise EvacuationError("all resident granules are pinned")
            self.order.remove(victim)
            del self.hot[victim]
            evicted.append((victim, victim in self.dirty))
            self.dirty.discard(victim)
        return evicted

    def access(self, granule, write):
        if self._hit(granule, write):
            return SimpleNamespace(hit=True, evicted=[])
        evicted = self._make_room()
        self.order.append(granule)
        self.hot[granule] = False
        if write:
            self.dirty.add(granule)
        return SimpleNamespace(hit=False, evicted=evicted)

    def insert(self, granule):
        if granule in self.order:
            return []
        evicted = self._make_room()
        self.order.insert(0, granule)
        self.hot[granule] = False
        return evicted

    def pin(self, granule):
        self.pins[granule] = self.pins.get(granule, 0) + 1

    def unpin(self, granule):
        count = self.pins.get(granule, 0)
        if count <= 0:
            raise EvacuationError(f"unpin of unpinned granule {granule}")
        if count == 1:
            del self.pins[granule]
        else:
            self.pins[granule] = count - 1

    def discard(self, granule):
        if granule in self.order:
            self.order.remove(granule)
            del self.hot[granule]
        self.dirty.discard(granule)
        self.pins.pop(granule, None)


_OP_NAMES = ["access", "insert", "pin", "unpin", "discard"]


@st.composite
def _residency_scripts(draw):
    """A capacity, a policy, and ops over ``capacity + 2`` granules: few
    enough that the set runs full and every resident can end up pinned."""
    capacity = draw(st.integers(1, 8))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_OP_NAMES),
                st.integers(0, capacity + 1),
                st.booleans(),
            ),
            max_size=120,
        )
    )
    return capacity, draw(st.booleans()), ops


def _run_op(target, op, granule, write):
    """``(result, exception type)`` of one op; results are plain data."""
    try:
        if op == "access":
            out = target.access(granule, write)
            result = (out.hit, list(out.evicted))
        elif op == "insert":
            result = list(target.insert(granule))
        else:
            result = getattr(target, op)(granule)
    except EvacuationError:
        return None, EvacuationError
    return result, None


class TestResidencyReferenceModel:
    @given(_residency_scripts())
    # Every resident pinned under CLOCK, one of them hot and one dirty:
    # the sweep that finds no victim still rotates the order by one.
    @example((3, True, [("access", 0, True), ("access", 1, False), ("access", 2, False),
                        ("access", 1, False), ("pin", 0, False), ("pin", 1, False),
                        ("pin", 2, False), ("access", 3, False)]))
    @settings(max_examples=300, deadline=None)
    def test_matches_list_model(self, script):
        """Hits, victims, dirty bits, order and pins equal the model's
        after every op, and both raise alike when all are pinned."""
        capacity, use_clock, ops = script
        rs = ResidencySet(capacity, use_clock=use_clock)
        model = _ResidencyModel(capacity, use_clock)
        for op, granule, write in ops:
            assert _run_op(rs, op, granule, write) == _run_op(model, op, granule, write)
            # Resident order (eviction end first) with each CLOCK hot bit.
            assert list(rs._resident.items()) == [(g, model.hot[g]) for g in model.order]
            universe = range(capacity + 2)
            assert {g for g in universe if rs.is_dirty(g)} == model.dirty
            assert {g for g in universe if rs.is_pinned(g)} == set(model.pins)


class TestAllocatorProperties:
    @given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_live_allocations_never_overlap(self, sizes):
        alloc = RegionAllocator(heap_size=1 << 22, object_size=4096)
        live = [alloc.allocate(s) for s in sizes]
        spans = sorted((a.offset, a.end) for a in live)
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    @given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_free_everything_resets_accounting(self, sizes):
        alloc = RegionAllocator(heap_size=1 << 22, object_size=4096)
        live = [alloc.allocate(s) for s in sizes]
        for a in live:
            alloc.free(a.offset)
        assert alloc.bytes_allocated == 0
        assert alloc.live_allocations() == []

    @given(st.integers(min_value=1, max_value=100_000))
    def test_allocation_covers_request(self, size):
        alloc = RegionAllocator(heap_size=1 << 22, object_size=4096)
        a = alloc.allocate(size)
        assert a.size >= size


def _characteristic_time_reference(masses, capacity):
    """Che's bisection with its ``filled`` written term by term: five
    array passes per probe, the negation on every term."""
    m = masses / masses.sum()

    def filled(t):
        return float(np.sum(-np.expm1(-m * t)))

    lo, hi = 0.0, 1.0
    while filled(hi) < capacity:
        hi *= 2.0
        if hi > 1e18:
            return hi
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if filled(mid) < capacity:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCheProperties:
    @given(
        st.integers(min_value=2, max_value=3000),
        st.floats(min_value=0.0, max_value=2.5),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_bisection_finds_the_reference_float(self, n, skew, seed, fill):
        """Zipf-like masses in a shuffled order, scaled by noise: the
        one-buffer ``filled`` steers the bisection to the same T."""
        rng = np.random.default_rng(seed)
        masses = np.arange(1, n + 1, dtype=np.float64) ** -skew
        masses = rng.permutation(masses) * rng.uniform(0.5, 2.0, n)
        capacity = 1 + int(fill * (n - 1))
        assert characteristic_time(masses, capacity) == _characteristic_time_reference(
            masses, capacity
        )

    @given(
        st.integers(min_value=2, max_value=500),
        st.floats(min_value=0.5, max_value=2.0),
    )
    @settings(max_examples=50)
    def test_hit_rate_bounded(self, n, skew):
        masses = np.arange(1, n + 1, dtype=np.float64) ** (-skew)
        for cap in (0, 1, n // 2, n, n * 2):
            hr = lru_hit_rate(masses, cap)
            assert 0.0 <= hr <= 1.0

    @given(st.integers(min_value=4, max_value=300))
    @settings(max_examples=30)
    def test_hit_rate_monotone_in_capacity(self, n):
        masses = np.arange(1, n + 1, dtype=np.float64) ** -1.1
        rates = [lru_hit_rate(masses, c) for c in range(0, n + 1, max(1, n // 7))]
        assert all(a <= b + 1e-9 for a, b in zip(rates, rates[1:]))

    @given(st.integers(min_value=4, max_value=200))
    @settings(max_examples=30)
    def test_full_capacity_hits_everything(self, n):
        masses = np.ones(n)
        assert lru_hit_rate(masses, n) == 1.0

    @given(st.integers(min_value=8, max_value=200))
    @settings(max_examples=30)
    def test_hotter_granules_hit_more(self, n):
        masses = np.arange(1, n + 1, dtype=np.float64) ** -1.2
        per = per_granule_hit_rates(masses, n // 4)
        assert all(a >= b - 1e-12 for a, b in zip(per, per[1:]))


class TestCostModelProperties:
    @given(object_sizes, st.integers(min_value=1, max_value=4096))
    def test_costs_positive(self, obj, elem):
        from repro.compiler.cost_model import ChunkingCostModel, LoopShape

        model = ChunkingCostModel(obj)
        shape = LoopShape(iterations_per_entry=1000, elem_size=elem)
        naive, chunked = model.loop_costs(shape)
        assert naive >= 0 and chunked >= 0

    @given(st.integers(min_value=1, max_value=512))
    @settings(max_examples=30)
    def test_decision_matches_cost_comparison(self, elem):
        from repro.compiler.cost_model import ChunkingCostModel, LoopShape

        model = ChunkingCostModel(4096)
        shape = LoopShape(iterations_per_entry=50_000, elem_size=elem)
        naive, chunked = model.loop_costs(shape)
        assert model.should_chunk(shape) == (chunked < naive)


class TestUnitProperties:
    @given(st.integers(min_value=0, max_value=1 << 40), st.sampled_from([1, 2, 8, 64, 4096]))
    def test_align_up_properties(self, value, alignment):
        aligned = align_up(value, alignment)
        assert aligned >= value
        assert aligned % alignment == 0
        assert aligned - value < alignment

    @given(st.integers(min_value=0, max_value=1 << 40), st.integers(min_value=1, max_value=1 << 20))
    def test_ceil_div_properties(self, a, b):
        q = ceil_div(a, b)
        assert q * b >= a
        assert (q - 1) * b < a or a == 0

    @given(st.integers(min_value=0, max_value=63))
    def test_powers_of_two(self, exp):
        assert is_power_of_two(1 << exp)
        if exp > 1:
            assert not is_power_of_two((1 << exp) + 1)


class TestInterpreterArithmeticProperties:
    @given(
        st.integers(min_value=-(1 << 62), max_value=1 << 62),
        st.integers(min_value=-(1 << 62), max_value=1 << 62),
        st.sampled_from(["add", "sub", "mul", "and", "or", "xor"]),
    )
    @settings(max_examples=60)
    def test_binops_match_python_mod_2_64(self, a, b, op):
        from repro.ir import IRBuilder, I64, Module
        from repro.sim.interpreter import Interpreter

        m = Module()
        f = m.add_function("main", I64)
        builder = IRBuilder(f.add_block("entry"))
        v = getattr(builder, op if op not in ("and", "or") else op + "_")(a, b)
        builder.ret(v)
        got = Interpreter(m).run("main").value
        table = {
            "add": a + b,
            "sub": a - b,
            "mul": a * b,
            "and": a & b,
            "or": a | b,
            "xor": a ^ b,
        }
        expected = table[op] & ((1 << 64) - 1)
        if expected >= 1 << 63:
            expected -= 1 << 64
        assert got == expected
