"""Residency set (LRU/CLOCK + pinning) and the sparse address space."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EvacuationError, InterpError, RuntimeConfigError, SegmentationFault
from repro.ir.types import F64, I1, I8, I16, I32, I64, PTR
from repro.sim.memory import AddressSpace, codec_for
from repro.sim.residency import ResidencySet


class TestResidencyLRU:
    def test_miss_then_hit(self):
        rs = ResidencySet(capacity=2)
        assert rs.access(1).hit is False
        assert rs.access(1).hit is True
        assert len(rs) == 1

    def test_lru_eviction_order(self):
        rs = ResidencySet(capacity=2)
        rs.access(1)
        rs.access(2)
        rs.access(1)  # 2 is now LRU
        out = rs.access(3)
        assert out.evicted == [(2, False)]
        assert 1 in rs and 3 in rs

    def test_dirty_tracking(self):
        rs = ResidencySet(capacity=1)
        rs.access(1, write=True)
        assert rs.is_dirty(1)
        out = rs.access(2)
        assert out.evicted == [(1, True)]
        assert not rs.is_dirty(1)

    def test_write_on_hit_dirties(self):
        rs = ResidencySet(capacity=2)
        rs.access(1)
        assert not rs.is_dirty(1)
        rs.access(1, write=True)
        assert rs.is_dirty(1)

    def test_pinned_granules_not_evicted(self):
        rs = ResidencySet(capacity=2)
        rs.access(1)
        rs.pin(1)
        rs.access(2)
        out = rs.access(3)
        assert (1, False) not in out.evicted
        assert 1 in rs

    def test_all_pinned_raises(self):
        rs = ResidencySet(capacity=1)
        rs.access(1)
        rs.pin(1)
        with pytest.raises(EvacuationError):
            rs.access(2)

    def test_unpin_allows_eviction_again(self):
        rs = ResidencySet(capacity=1)
        rs.access(1)
        rs.pin(1)
        rs.unpin(1)
        out = rs.access(2)
        assert out.evicted == [(1, False)]

    def test_nested_pins(self):
        rs = ResidencySet(capacity=1)
        rs.access(1)
        rs.pin(1)
        rs.pin(1)
        rs.unpin(1)
        assert rs.is_pinned(1)
        rs.unpin(1)
        assert not rs.is_pinned(1)

    def test_unpin_unpinned_raises(self):
        rs = ResidencySet(capacity=1)
        with pytest.raises(EvacuationError):
            rs.unpin(7)

    def test_insert_prefetch_enters_cold(self):
        rs = ResidencySet(capacity=2)
        rs.access(1)
        rs.insert(2)  # prefetched: LRU position
        out = rs.access(3)
        assert out.evicted == [(2, False)]

    def test_insert_existing_is_noop(self):
        rs = ResidencySet(capacity=2)
        rs.access(1)
        assert rs.insert(1) == []

    def test_discard(self):
        rs = ResidencySet(capacity=2)
        rs.access(1, write=True)
        rs.discard(1)
        assert 1 not in rs
        assert not rs.is_dirty(1)

    def test_flush_reports_dirty(self):
        rs = ResidencySet(capacity=4)
        rs.access(1, write=True)
        rs.access(2)
        flushed = dict(rs.flush())
        assert flushed == {1: True, 2: False}
        assert len(rs) == 0

    def test_flush_skips_pinned(self):
        rs = ResidencySet(capacity=4)
        rs.access(1)
        rs.pin(1)
        rs.access(2)
        flushed = rs.flush()
        assert (2, False) in flushed
        assert 1 in rs

    def test_capacity_validation(self):
        with pytest.raises(RuntimeConfigError):
            ResidencySet(capacity=0)


class TestResidencyClock:
    def test_second_chance(self):
        rs = ResidencySet(capacity=2, use_clock=True)
        rs.access(1)
        rs.access(2)
        rs.access(1)  # sets 1's hot bit
        out = rs.access(3)
        # CLOCK clears 1's hot bit and evicts 2 (cold).
        assert out.evicted == [(2, False)]
        assert 1 in rs

    def test_clock_with_pins(self):
        rs = ResidencySet(capacity=2, use_clock=True)
        rs.access(1)
        rs.pin(1)
        rs.access(2)
        out = rs.access(3)
        assert out.evicted == [(2, False)]


class TestAddressSpace:
    def test_map_read_write(self):
        mem = AddressSpace()
        mem.map_region(0x1000, 64)
        mem.write_bytes(0x1010, b"hello")
        assert mem.read_bytes(0x1010, 5) == b"hello"

    def test_unmapped_access_faults(self):
        mem = AddressSpace()
        with pytest.raises(SegmentationFault):
            mem.read_bytes(0x2000, 8)

    def test_overlap_rejected(self):
        mem = AddressSpace()
        mem.map_region(0x1000, 64)
        with pytest.raises(InterpError):
            mem.map_region(0x1020, 64)
        with pytest.raises(InterpError):
            mem.map_region(0xFE0, 64)

    def test_access_straddling_region_end_faults(self):
        mem = AddressSpace()
        mem.map_region(0x1000, 8)
        with pytest.raises(SegmentationFault):
            mem.read_bytes(0x1004, 8)

    def test_unmap(self):
        mem = AddressSpace()
        mem.map_region(0x1000, 64)
        mem.unmap(0x1000)
        assert not mem.is_mapped(0x1000)
        with pytest.raises(InterpError):
            mem.unmap(0x1000)

    def test_typed_roundtrips(self):
        mem = AddressSpace()
        mem.map_region(0, 64)
        mem.write_value(0, I64, -5)
        assert mem.read_value(0, I64) == -5
        mem.write_value(8, F64, 1.5)
        assert mem.read_value(8, F64) == 1.5
        mem.write_value(16, I32, -1)
        assert mem.read_value(16, I32) == -1

    def test_adjacent_regions(self):
        mem = AddressSpace()
        mem.map_region(0, 64)
        mem.map_region(64, 64)  # exactly adjacent: allowed
        mem.write_bytes(64, b"x")
        assert mem.read_bytes(64, 1) == b"x"

    def test_empty_region_rejected(self):
        mem = AddressSpace()
        with pytest.raises(InterpError):
            mem.map_region(0, 0)


# -- typed accesses against an independent byte-level oracle ---------------

_TYPES = {"i1": I1, "i8": I8, "i16": I16, "i32": I32, "i64": I64, "f64": F64, "ptr": PTR}


def _oracle_size(name: str) -> int:
    return 8 if name in ("f64", "ptr") else max(1, int(name[1:]) // 8)


def _oracle_raw(name: str, value) -> bytes:
    """The bytes a store writes: integers wrap, a pointer must fit."""
    if name == "f64":
        return struct.pack("<d", float(value))
    if name == "ptr":
        return int(value).to_bytes(8, "little", signed=False)
    bits = int(name[1:])
    return (int(value) & ((1 << bits) - 1)).to_bytes(_oracle_size(name), "little")


def _oracle_value(name: str, raw: bytes):
    """What a load returns: i1 reads its byte unsigned, i8..i64 sign-extend."""
    if name == "f64":
        return struct.unpack("<d", raw)[0]
    return int.from_bytes(raw, "little", signed=name not in ("i1", "ptr"))


def _oracle_region(regions, addr: int, size: int):
    for start, data in regions.items():
        if start <= addr and addr + size <= start + len(data):
            return start, data
    raise SegmentationFault(f"{addr:#x}")


def _same(got, want) -> bool:
    return got == want or (got != got and want != want)  # NaN loads NaN


_BASE = 0x1000

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["load", "load", "store", "store", "unmap", "remap"]),
        st.sampled_from(sorted(_TYPES)),
        st.integers(-12, 140),  # offset from _BASE: inside, between and past regions
        st.one_of(
            st.integers(-(2**70), 2**70),
            st.integers(-(2**1100), 2**1100),  # past any float
            st.floats(allow_nan=True, allow_infinity=True),
        ),
        st.booleans(),  # through read_value/write_value instead of load/store
    ),
    max_size=40,
)


class TestCodecs:
    """``load``/``store`` per codec match ``int.from_bytes``/``struct``."""

    @settings(max_examples=300, deadline=None)
    @given(
        sizes=st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)),
        gap=st.integers(1, 8),
        fill=st.binary(min_size=120, max_size=120),
        ops=_OPS,
    )
    def test_matches_byte_oracle(self, sizes, gap, fill, ops):
        # Regions A and B are exactly adjacent; a hole separates C.  Each
        # starts with arbitrary bytes, so loads see every bit pattern.
        sa, sb, sc = sizes
        layout = {_BASE: sa, _BASE + sa: sb, _BASE + sa + sb + gap: sc}
        starts = sorted(layout)
        mem = AddressSpace()
        oracle = {}
        for i, (start, size) in enumerate(layout.items()):
            mem.map_region(start, size)
            oracle[start] = bytearray(fill[40 * i : 40 * i + size])
            mem.write_bytes(start, bytes(oracle[start]))
        for kind, name, off, value, via_type in ops:
            ty, codec = _TYPES[name], codec_for(_TYPES[name])
            addr = _BASE + off
            if kind in ("unmap", "remap"):
                start = starts[off % 3]
                if kind == "unmap" and start in oracle:
                    mem.unmap(start)
                    del oracle[start]
                elif kind == "remap" and start not in oracle:
                    mem.map_region(start, layout[start])
                    oracle[start] = bytearray(layout[start])
                continue
            size = _oracle_size(name)
            want_exc = want = None
            try:
                raw = _oracle_raw(name, value) if kind == "store" else None
                start, data = _oracle_region(oracle, addr, size)
                if kind == "store":
                    data[addr - start : addr - start + size] = raw
                else:
                    want = _oracle_value(name, bytes(data[addr - start : addr - start + size]))
            except (SegmentationFault, OverflowError, ValueError) as exc:
                want_exc = type(exc)
            try:
                if kind == "store":
                    if via_type:
                        mem.write_value(addr, ty, value)
                    else:
                        mem.store(addr, codec, value)
                else:
                    got = mem.read_value(addr, ty) if via_type else mem.load(addr, codec)
            except (SegmentationFault, OverflowError, ValueError) as exc:
                assert type(exc) is want_exc, (kind, name, hex(addr), value)
            else:
                assert want_exc is None, (kind, name, hex(addr), value)
                if kind == "load":
                    assert _same(got, want), (name, hex(addr), got, want)
            for start, data in oracle.items():
                assert mem.read_bytes(start, len(data)) == bytes(data)

    @settings(max_examples=300, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 24), min_size=3, max_size=5),
        gaps=st.lists(st.integers(0, 6), min_size=5, max_size=5),
        fill=st.binary(min_size=120, max_size=120),
        steps=st.lists(
            st.tuples(
                st.sampled_from(
                    ["load", "load", "store", "store", "unmap_first", "unmap_second",
                     "unmap", "remap"]
                ),
                st.integers(0, 4),  # region, by index
                # Offset from its start (straddling either edge), or, as
                # ("end", k), k bytes before its end: inside, or straddling it.
                st.one_of(st.integers(-9, 30), st.tuples(st.just("end"), st.integers(1, 8))),
                st.sampled_from(sorted(_TYPES)),
                st.one_of(st.integers(-(2**70), 2**70), st.floats(allow_nan=True)),
            ),
            max_size=60,
        ),
    )
    def test_two_entry_cache_matches_byte_oracle(self, sizes, gaps, fill, steps):
        # Three to five regions, adjacent where the gap is 0.  Every
        # typed access goes through the two-entry cache; ``recent`` tracks
        # the regions it should hold (most recent first), so the
        # ``unmap_first``/``unmap_second`` steps drop exactly the region
        # in one entry, and a later remap at the same start gets fresh
        # zeroed bytes that a stale entry would not serve.  ``unmap``
        # drops any region, cached or not, and ``remap`` maps one back
        # at its start with a drawn size no larger than its slot, so the
        # cache's misses see regions come and go at every position.
        layout, start = {}, _BASE
        for size, gap in zip(sizes, gaps):
            layout[start] = size
            start += size + gap
        starts = list(layout)
        mem = AddressSpace()
        oracle = {}
        for i, (start, size) in enumerate(layout.items()):
            mem.map_region(start, size)
            oracle[start] = bytearray(fill[24 * i : 24 * i + size])
            mem.write_bytes(start, bytes(oracle[start]))
        recent = []
        for kind, index, off, name, value in steps:
            start = starts[index % len(starts)]
            if kind == "remap":
                if start not in oracle:
                    size = layout[start] if isinstance(off, tuple) else 1 + off % layout[start]
                    mem.map_region(start, size)
                    oracle[start] = bytearray(size)
                continue
            if kind == "unmap":
                if start in oracle:
                    mem.unmap(start)
                    del oracle[start]
                    recent = [r for r in recent if r != start]
                continue
            if kind.startswith("unmap"):
                slot = 0 if kind == "unmap_first" else 1
                if slot < len(recent):
                    mem.unmap(recent[slot])
                    del oracle[recent.pop(slot)]
                continue
            if isinstance(off, tuple):
                off = (len(oracle.get(start, b"")) or layout[start]) - off[1]
            addr, size = start + off, _oracle_size(name)
            codec = codec_for(_TYPES[name])
            want_exc = want = None
            try:
                raw = _oracle_raw(name, value) if kind == "store" else None
                region, data = _oracle_region(oracle, addr, size)
                if kind == "store":
                    data[addr - region : addr - region + size] = raw
                else:
                    want = _oracle_value(name, bytes(data[addr - region : addr - region + size]))
            except (SegmentationFault, OverflowError, ValueError) as exc:
                want_exc = type(exc)
            try:
                if kind == "store":
                    mem.store(addr, codec, value)
                else:
                    got = mem.load(addr, codec)
            except (SegmentationFault, OverflowError, ValueError) as exc:
                assert type(exc) is want_exc, (kind, name, hex(addr), value)
            else:
                assert want_exc is None, (kind, name, hex(addr), value)
                if kind == "load":
                    assert _same(got, want), (name, hex(addr), got, want)
                recent = ([region] + [r for r in recent if r != region])[:2]
            for region, data in oracle.items():
                assert mem.read_bytes(region, len(data)) == bytes(data)

    def test_unmapping_the_hot_region_drops_it(self):
        mem = AddressSpace()
        mem.map_region(0x1000, 16)
        mem.store(0x1000, codec_for(I64), 42)
        assert mem.load(0x1000, codec_for(I64)) == 42  # 0x1000 is now hot
        mem.unmap(0x1000)
        with pytest.raises(SegmentationFault):
            mem.load(0x1000, codec_for(I64))
        mem.map_region(0x1000, 16)  # same start, fresh zeroed bytes
        assert mem.load(0x1000, codec_for(I64)) == 0

    def test_unmapping_the_second_region_drops_it(self):
        mem = AddressSpace()
        mem.map_region(0x1000, 16)
        mem.map_region(0x2000, 16)
        i64 = codec_for(I64)
        mem.store(0x1000, i64, 7)
        mem.store(0x2000, i64, 8)  # 0x2000 first, 0x1000 second
        mem.unmap(0x1000)
        with pytest.raises(SegmentationFault):
            mem.load(0x1000, i64)
        mem.map_region(0x1000, 16)
        assert mem.load(0x1000, i64) == 0
        assert mem.load(0x2000, i64) == 8

    def test_access_straddling_into_an_adjacent_region_faults(self):
        mem = AddressSpace()
        mem.map_region(0x1000, 8)
        mem.map_region(0x1008, 8)
        mem.store(0x1000, codec_for(I64), -1)  # [0x1000, 0x1008) is hot
        with pytest.raises(SegmentationFault):
            mem.load(0x1004, codec_for(I64))
        with pytest.raises(SegmentationFault):
            mem.store(0x1004, codec_for(I64), 1)

    def test_out_of_range_pointer_store_raises_before_the_address_check(self):
        mem = AddressSpace()
        mem.map_region(0x1000, 8)
        for value in (-1, 1 << 64):
            with pytest.raises(OverflowError):
                mem.store(0x1000, codec_for(PTR), value)
            with pytest.raises(OverflowError):
                mem.write_value(0x9000, PTR, value)  # unmapped, still OverflowError
        assert mem.read_bytes(0x1000, 8) == bytes(8)
