"""Multiple object sizes (§3.2 future work): multipool + size classes."""

import pytest

from repro.compiler.size_classes import recommend_object_sizes
from repro.errors import PointerError, RuntimeConfigError
from repro.ir import IRBuilder, I64, PTR, Module
from repro.ir.values import Constant
from repro.machine.costs import AccessKind, GuardKind
from repro.sim.plan import AccessPattern, AccessPlan
from repro.trackfm.multipool import DEFAULT_CLASSES, MultiPoolRuntime
from repro.trackfm.pointer import is_tfm_pointer
from repro.units import KB, MB

from irprograms import build_sum_loop


def make_multipool(local=256 * KB, heap=4 * MB):
    return MultiPoolRuntime(local_memory=local, heap_size=heap)


class TestMultiPoolRuntime:
    def test_explicit_class_routing(self):
        rt = make_multipool()
        small = rt.tfm_malloc(32, object_size=64)
        big = rt.tfm_malloc(32, object_size=4096)
        assert rt.class_of_pointer(small) != rt.class_of_pointer(big)
        assert rt.runtime_for(small).object_size == 64
        assert rt.runtime_for(big).object_size == 4096

    def test_default_routing_by_allocation_size(self):
        rt = make_multipool()
        tiny = rt.tfm_malloc(16)
        medium = rt.tfm_malloc(300)
        large = rt.tfm_malloc(100_000)
        assert rt.runtime_for(tiny).object_size == 64
        assert rt.runtime_for(medium).object_size == 512
        assert rt.runtime_for(large).object_size == 4096

    def test_pointers_are_non_canonical(self):
        rt = make_multipool()
        assert is_tfm_pointer(rt.tfm_malloc(8))

    def test_access_charges_right_pool(self):
        rt = make_multipool()
        p = rt.tfm_malloc(8, object_size=64)
        rt.access(p, AccessKind.READ)
        per_class = rt.per_class_metrics()
        assert per_class[64].bytes_fetched == 64
        assert per_class[4096].bytes_fetched == 0

    def test_miss_transfer_matches_class(self):
        rt = make_multipool()
        small = rt.tfm_malloc(8, object_size=64)
        big = rt.tfm_malloc(8, object_size=4096)
        rt.access(small)
        rt.access(big)
        merged = rt.metrics
        assert merged.bytes_fetched == 64 + 4096

    def test_free_releases(self):
        rt = make_multipool()
        p = rt.tfm_malloc(128, object_size=512)
        rt.access(p)
        rt.tfm_free(p)
        assert rt.runtime_of_class(512).pool.resident_objects == 0

    def test_sequential_scan_delegates(self):
        rt = make_multipool()
        p = rt.tfm_malloc(64 * KB, object_size=4096)
        cycles = rt.cost_plan(p, AccessPlan(AccessPattern.SEQUENTIAL, 8192, 8))
        assert cycles > 0
        assert rt.per_class_metrics()[4096].accesses == 8192

    def test_unknown_class_rejected(self):
        rt = make_multipool()
        with pytest.raises(RuntimeConfigError):
            rt.tfm_malloc(8, object_size=128)

    def test_non_tfm_pointer_rejected(self):
        rt = make_multipool()
        with pytest.raises(PointerError):
            rt.class_of_pointer(0x1234)

    def test_config_validation(self):
        with pytest.raises(RuntimeConfigError):
            MultiPoolRuntime(1 * MB, 4 * MB, classes=())
        with pytest.raises(RuntimeConfigError):
            MultiPoolRuntime(1 * MB, 4 * MB, classes=(4096, 64))
        with pytest.raises(RuntimeConfigError):
            MultiPoolRuntime(1 * MB, 4 * MB, classes=(100,))
        with pytest.raises(RuntimeConfigError):
            MultiPoolRuntime(1 * MB, 4 * MB, shares=(0.5, 0.5))

    def test_custom_shares(self):
        rt = MultiPoolRuntime(
            1 * MB, 4 * MB, classes=(64, 4096), shares=(0.25, 0.75)
        )
        assert rt.runtime_of_class(64).config.local_memory == 256 * KB
        assert rt.runtime_of_class(4096).config.local_memory == 768 * KB


def build_mixed_program(n=50_000):
    """One sequentially-scanned array + one randomly-probed table."""
    m = Module("mixed")
    f = m.add_function("main", I64)
    entry, header, body, done = (
        f.add_block(x) for x in ("entry", "header", "body", "done")
    )
    b = IRBuilder(entry)
    seq = b.call(PTR, "malloc", [Constant(I64, n * 8)], name="seq_array")
    table = b.call(PTR, "malloc", [Constant(I64, n * 8)], name="rand_table")
    b.br(header)
    b.set_block(header)
    i = b.phi(I64, name="i")
    s = b.phi(I64, name="s")
    b.condbr(b.icmp("slt", i, n), body, done)
    b.set_block(body)
    sv = b.load(I64, b.gep(seq, i, 8))
    idx = b.srem(b.mul(i, 2654435761), n)  # hashed: not an IV pattern
    rv = b.load(I64, b.gep(table, idx, 8))
    s2 = b.add(s, b.add(sv, rv))
    i2 = b.add(i, 1)
    b.br(header)
    i.add_incoming(Constant(I64, 0), entry)
    i.add_incoming(i2, body)
    s.add_incoming(Constant(I64, 0), entry)
    s.add_incoming(s2, body)
    b.set_block(done)
    b.ret(s)
    return m


class TestSizeClassRecommendation:
    def test_sequential_site_gets_large_class(self):
        rec = recommend_object_sizes(build_mixed_program())
        assert rec["seq_array"] == DEFAULT_CLASSES[-1]

    def test_irregular_site_gets_small_class(self):
        rec = recommend_object_sizes(build_mixed_program())
        assert rec["rand_table"] == DEFAULT_CLASSES[0]

    def test_pure_sequential_program(self):
        rec = recommend_object_sizes(build_sum_loop(n=100_000, elem=4))
        assert list(rec.values()) == [DEFAULT_CLASSES[-1]]

    def test_short_loop_falls_back_to_middle(self):
        # The cost model rejects chunking a tiny loop, so its site is
        # neither confidently sequential nor irregular-heavy... it is
        # accessed via an IV but unchunked -> classified irregular/small
        # or mid depending on plan state; assert it gets *some* class.
        rec = recommend_object_sizes(build_sum_loop(n=8, elem=2048))
        assert set(rec.values()) <= set(DEFAULT_CLASSES)
