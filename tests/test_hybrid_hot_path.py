"""The adaptive hybrid's hot path equals its straightforward definition.

The tier router and the density profiler each trade a direct
formulation for a faster one: the router decodes a pointer with one
mask, records the access in the profiler's window itself, reads
placement flags and hits a resident page in place; the profiler keeps
its window in flat lists with per-granule stamps instead of per-region
sets, and an epoch freezes only the windows at or above a floor.  These
properties pin each shortcut to its definition:

* the windows the router records fold exactly what a set-based
  reference fold produces, window after window, including the
  interleave rate; ``fold(k)`` is that fold without the windows under
  ``k`` accesses;
* the selector decides with the config it holds now, not the one it
  was built with;
* the router sends every access to the tier ``placement_of`` names, a
  resident page costs nothing, a custody miss is still charged, and a
  pointer past the heap still raises ``PointerError``;
* a page hit in place leaves the page tier's recency order, hot bits
  and dirty set as ``ResidencySet.access`` would;
* the runtime's public knobs stay live: assigning ``epoch_accesses``,
  ``adaptive`` or ``selector.config`` on a running runtime changes
  when epochs end and what the selector decides;
* ``ResidencySet.touch`` is the hit half of ``access``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.cost_model import ChunkingCostModel
from repro.errors import PointerError
from repro.hybrid.placement import Placement
from repro.hybrid.profiler import RegionStats
from repro.hybrid.runtime import AdaptiveHybridRuntime, _TierRouter
from repro.hybrid.selector import PathSelector, SelectorConfig
from repro.machine.costs import AccessKind, GuardKind
from repro.sim.residency import ResidencySet
from repro.trackfm.pointer import encode_tfm_pointer
from repro.units import KB

PAGE = 4 * KB
kinds = st.sampled_from([AccessKind.READ, AccessKind.WRITE])


class _ReferenceProfiler:
    """The profiler's definition: per-region sets, rebuilt every window."""

    def __init__(self, region_bytes: int, object_size: int, page_size: int) -> None:
        self.region_bytes = region_bytes
        self.object_size = object_size
        self.page_size = page_size
        self.fold()

    def record(self, offset: int, kind: AccessKind) -> None:
        region = offset // self.region_bytes
        if self.last >= 0 and region != self.last:
            self.transitions += 1
        self.last = region
        self.accesses += 1
        row = self.windows.setdefault(region, [0, 0, set(), set()])
        row[0] += 1
        row[1] += kind is AccessKind.WRITE
        row[2].add(offset // self.object_size)
        row[3].add(offset // self.page_size)

    def stats(self) -> Tuple[Dict[int, RegionStats], float]:
        rows = {
            region: RegionStats(region, a, len(objs), len(pages), w)
            for region, (a, w, objs, pages) in sorted(self.windows.items())
        }
        rate = self.transitions / self.accesses if self.accesses else 0.0
        return rows, rate

    def fold(self) -> None:
        self.windows: Dict[int, list] = {}
        self.transitions = 0
        self.accesses = 0
        self.last = -1


@st.composite
def profiled_streams(draw):
    """Geometry plus a stream of accesses, with fold points between them;
    each fold point carries the floor to fold at."""
    object_size = draw(st.sampled_from([64, 256, 1024, 4096]))
    region_bytes = PAGE * draw(st.integers(min_value=1, max_value=3))
    heap = region_bytes * draw(st.integers(min_value=1, max_value=6))
    steps = draw(st.lists(
        st.one_of(
            st.tuples(st.integers(min_value=0, max_value=heap - 1), kinds),
            st.integers(min_value=1, max_value=6),  # fold here, at this floor
        ),
        max_size=200,
    ))
    return object_size, region_bytes, heap, steps


class TestProfilerMatchesSetFold:
    @settings(max_examples=150, deadline=None)
    @given(profiled_streams())
    def test_every_window_the_router_records_folds_like_the_set_reference(self, case):
        object_size, region_bytes, heap, steps = case
        # Epochs never end on their own: only the drawn fold points fold.
        rt = AdaptiveHybridRuntime(
            local_memory=heap,
            heap_size=heap,
            object_size=object_size,
            region_bytes=region_bytes,
            epoch_accesses=len(steps) + 1,
        )
        prof = rt.profiler
        ref = _ReferenceProfiler(region_bytes, object_size, PAGE)
        total = 0
        for step in steps + [None]:
            if isinstance(step, tuple):
                offset, kind = step
                rt.guards.guard(encode_tfm_pointer(offset), kind)
                ref.record(offset, kind)
                total += 1
                assert prof.window_accesses == ref.accesses
                assert prof.total_accesses == total
                continue
            rows, rate = ref.stats()
            assert prof.peek() == rows
            assert prof.interleave_rate() == rate
            if step is None:
                assert prof.fold() == rows
            else:
                # fold(k) is the floor-1 fold without the windows under k.
                assert prof.fold(step) == {
                    region: row for region, row in rows.items() if row.accesses >= step
                }
            ref.fold()
        assert rt.epochs == 0


windows = st.builds(
    RegionStats,
    region=st.just(0),
    accesses=st.one_of(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    ),
    distinct_objects=st.integers(min_value=0, max_value=4096),
    distinct_pages=st.integers(min_value=0, max_value=512),
    writes=st.just(0),
)
selector_configs = st.builds(
    SelectorConfig,
    hysteresis=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    resident_fraction=st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
    reclaim_cycles=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    min_accesses=st.integers(min_value=1, max_value=64),
    page_bytes=st.sampled_from([PAGE, 2 * 1024 * KB]),
    wire_bytes_per_cycle=st.floats(min_value=0.5, max_value=64.0, allow_nan=False),
)


class TestSelectorDecide:
    @settings(max_examples=300, deadline=None)
    @given(windows, selector_configs, st.sampled_from(list(Placement)))
    def test_decide_follows_the_config_it_holds(self, stats, cfg, current):
        # Built with the default config and handed ``cfg`` afterwards:
        # every decision must use the config assigned last.
        selector = PathSelector(ChunkingCostModel(256))
        selector.config = cfg
        object_cost, page_cost = selector.tier_costs(stats)
        margin = 1.0 + cfg.hysteresis
        if stats.accesses < cfg.min_accesses:
            expected = current
        elif current is Placement.OBJECTS:
            expected = Placement.PAGES if page_cost * margin < object_cost else current
        else:
            expected = Placement.OBJECTS if object_cost * margin < page_cost else current
        assert selector.decide(stats, current) is expected


REGIONS = 8


def _adaptive(epoch_accesses: int = 16) -> Tuple[AdaptiveHybridRuntime, int]:
    rt = AdaptiveHybridRuntime(
        local_memory=REGIONS * PAGE // 2,
        heap_size=REGIONS * PAGE,
        object_size=256,
        epoch_accesses=epoch_accesses,
        selector_config=SelectorConfig(hysteresis=0.05, min_accesses=4),
    )
    return rt, rt.tfm_malloc(REGIONS * PAGE)


@st.composite
def region_streams(draw):
    """Runs of dense sweeps and scattered probes over the arena."""
    stream = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        region = draw(st.integers(min_value=0, max_value=REGIONS - 1))
        if draw(st.booleans()):
            passes = draw(st.integers(min_value=1, max_value=6))
            kind = draw(kinds)
            stream += [(region * PAGE + off, kind) for _ in range(passes)
                       for off in range(0, PAGE, 64)]
        else:
            # Word-aligned, so no access spans two objects.
            stream += [(8 * draw(st.integers(min_value=0, max_value=REGIONS * PAGE // 8 - 1)),
                        draw(kinds)) for _ in range(draw(st.integers(1, 40)))]
    return stream


class TestRouter:
    @settings(max_examples=40, deadline=None)
    @given(region_streams())
    def test_every_access_goes_to_the_tier_placement_of_names(self, stream):
        rt, base = _adaptive()
        metrics = rt.metrics
        fs = rt.fastswap
        for offset, kind in stream:
            object_guards = sum(metrics.guards.values())
            faults = metrics.major_faults
            rt.access(base + offset, kind, 8)
            # A rebalance happens before routing, so the placement after
            # the call is the one this access was routed by.
            if rt.placement_of(offset) is Placement.PAGES:
                assert sum(metrics.guards.values()) == object_guards
                page = fs.page_of(rt._shadow[offset // rt.region_bytes] + offset % PAGE)
                assert page in fs.residency
                assert metrics.major_faults - faults in (0, 1)
            else:
                assert sum(metrics.guards.values()) == object_guards + 1
                assert metrics.major_faults == faults
        paged = {r for r, p in rt.region_placements().items() if p is Placement.PAGES}
        assert {r for r, flag in enumerate(rt._paged) if flag} == paged
        assert rt.metrics.tier_switches == len(rt.migration_log)

    def _paged_runtime(self):
        """Region 0 placed on pages, its shadow page not yet touched."""
        rt, base = _adaptive(epoch_accesses=64)
        for off in range(0, PAGE - 64, 64):
            rt.access(base + off, AccessKind.READ, 8)
        rt.rebalance()
        assert rt.placement_of(0) is Placement.PAGES
        return rt, base

    def test_resident_page_costs_nothing(self):
        rt, base = self._paged_runtime()
        rt.access(base, AccessKind.READ, 8)  # fault the page in
        before = rt.metrics.as_dict()
        result = rt.guards.guard(base + 8, AccessKind.WRITE)
        assert (result.kind, result.cycles, result.remote_fetch) == (GuardKind.NONE, 0.0, False)
        assert rt.metrics.as_dict() == before
        assert rt.fastswap.residency.is_dirty(rt.fastswap.page_of(rt._shadow[0]))

    def test_page_fault_reports_a_remote_fetch(self):
        rt, base = self._paged_runtime()
        faults = rt.metrics.major_faults
        result = rt.guards.guard(base, AccessKind.READ)
        assert result.remote_fetch and result.cycles > 0.0
        assert rt.metrics.major_faults == faults + 1

    def test_custody_miss_is_charged(self):
        rt, _base = _adaptive()
        result = rt.guards.guard(0x1000, AccessKind.READ)
        assert result.kind is GuardKind.CUSTODY_MISS
        assert result.cycles == rt.costs.custody_miss
        assert rt.metrics.guard_count(GuardKind.CUSTODY_MISS) == 1
        assert rt.profiler.window_accesses == 0

    def test_pointer_past_the_heap_raises(self):
        rt, _base = _adaptive()
        with pytest.raises(PointerError):
            rt.guards.guard(encode_tfm_pointer(REGIONS * PAGE), AccessKind.READ)
        assert rt.profiler.window_accesses == 0

    def test_frozen_selector_never_profiles(self):
        rt = AdaptiveHybridRuntime(
            local_memory=REGIONS * PAGE // 2, heap_size=REGIONS * PAGE, adaptive=False
        )
        base = rt.tfm_malloc(PAGE)
        for off in range(0, PAGE, 8):
            rt.access(base + off, AccessKind.READ, 8)
        assert rt.profiler.total_accesses == 0
        assert rt.epochs == 0


class TestPageHitsInPlace:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, REGIONS * PAGE // 8 - 1), kinds), max_size=150),
        st.booleans(),
    )
    def test_page_tier_residency_matches_a_reference_set(self, words, use_clock):
        """After every access into page-placed regions, the page tier's
        recency order (with hot bits) and dirty set equal those of a
        ``ResidencySet`` fed the same page accesses."""
        rt, base = _adaptive(epoch_accesses=10**9)
        for off in range(0, REGIONS * PAGE, 64):  # one sweep pages every region
            rt.access(base + off, AccessKind.READ, 8)
        rt.rebalance()
        assert all(rt._paged)
        fs = rt.fastswap
        fs.residency.use_clock = use_clock
        rt.guards = _TierRouter(rt, rt._object_guards)  # binds the mode
        ref = ResidencySet(fs.residency.capacity, use_clock=use_clock)
        ref._resident.update(fs.residency._resident)
        ref._dirty |= fs.residency._dirty
        for word, kind in words:
            offset = 8 * word
            page = fs.page_of(rt._shadow[offset // rt.region_bytes] + offset % rt.region_bytes)
            ref.access(page, kind is AccessKind.WRITE)
            rt.access(base + offset, kind, 8)
            assert list(fs.residency._resident.items()) == list(ref._resident.items())
            assert fs.residency._dirty == ref._dirty


class TestLiveKnobs:
    """Assigning a public knob on a running runtime takes effect."""

    def test_assigning_epoch_accesses_moves_the_epoch_boundary(self):
        rt, base = _adaptive(epoch_accesses=64)
        rt.epoch_accesses = 8
        for off in range(0, 8 * 64, 64):
            rt.access(base + off, AccessKind.READ, 8)
        assert rt.epochs == 1

    def test_assigning_adaptive_freezes_a_live_selector(self):
        rt, base = _adaptive(epoch_accesses=8)
        rt.adaptive = False
        for off in range(0, PAGE, 64):
            rt.access(base + off, AccessKind.READ, 8)
        assert rt.profiler.total_accesses == 0
        assert rt.epochs == 0

    def test_assigning_selector_config_changes_its_decisions(self):
        # The same sweep pages region 0 under the construction-time
        # config (TestRouter._paged_runtime); this one needs more
        # accesses per window than the sweep makes.
        rt, base = _adaptive(epoch_accesses=64)
        rt.selector.config = SelectorConfig(hysteresis=0.05, min_accesses=PAGE)
        for off in range(0, PAGE - 64, 64):
            rt.access(base + off, AccessKind.READ, 8)
        rt.rebalance()
        assert rt.placement_of(0) is Placement.OBJECTS
        assert rt.migration_log == []


class TestResidencyTouch:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 12), st.booleans()), max_size=80),
        st.booleans(),
    )
    def test_touch_is_the_hit_half_of_access(self, ops, use_clock):
        """``touch`` then ``access`` on a miss equals ``access`` alone."""
        a = ResidencySet(4, use_clock=use_clock)
        b = ResidencySet(4, use_clock=use_clock)
        for granule, write in ops:
            expected = a.access(granule, write)
            if b.touch(granule, write):
                assert expected.hit and not expected.evicted
            else:
                assert not expected.hit
                assert b.access(granule, write) == expected
            assert list(a._resident.items()) == list(b._resident.items())
            assert a._dirty == b._dirty

    def test_touch_misses_change_nothing(self):
        rs = ResidencySet(2)
        rs.access(1)
        assert not rs.touch(7, write=True)
        assert 7 not in rs and not rs.is_dirty(7) and len(rs) == 1
