"""Differential battery for the adaptive hybrid data plane.

The adaptive runtime's core contract is that the online path selector
is *invisible to program semantics*: whatever mix of object-tier and
page-tier service a run ends up with, the values a workload computes
are bit-identical to running the whole thing on either static tier.
This file pins that contract three ways —

* **replay differential**: every replayable workload in
  :mod:`repro.workloads` (stream, hashmap, graph BFS, external sort,
  phase) driven through the static object tier, the static page tier,
  and the adaptive runtime, with identical replay checksums;
* **IR differential**: the compiled workloads (stream, hashmap, chase)
  interpreted on the adaptive runtime, program values identical to the
  plain TrackFM runtime;
* **serving differential**: the webcache workload's completions
  fingerprint identical across runtime kinds.

Plus the migration ledger: ``tier_switches`` equals the decision flips
in the migration log, ``objects_migrated`` equals the objects those
flips moved, the phase-change workload forces at least one switch in
each direction, and everything replays bit-for-bit.
"""

from __future__ import annotations

import pytest

from repro.aifm.pool import PoolConfig
from repro.hybrid.placement import Placement
from repro.hybrid.runtime import AdaptiveHybridRuntime
from repro.hybrid.selector import SelectorConfig
from repro.integrity import RecordKind
from repro.machine.costs import AccessKind
from repro.sim.replay import replay, replay_runtime
from repro.trace.drivers import (
    ARRAY_BYTES,
    HEAP,
    OBJECT_LOCAL,
    OBJECT_SIZE,
    PAGE_LOCAL,
    _PATTERNS,
    run_traced,
)
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import KB
from repro.workloads import (
    ExternalSortWorkload,
    GraphTraversalWorkload,
    PhaseShiftWorkload,
    WebCacheWorkload,
)

SEED = 5

#: A selector posture tight enough that the phase workload flips tiers
#: both ways (the wire-amplification margin on the sparse side is real
#: but modest — see docs/hybrid.md).
TIGHT = SelectorConfig(hysteresis=0.05, min_accesses=4)

PHASE = PhaseShiftWorkload(
    n_regions=4,
    region_bytes=4096,
    dense_stride=64,
    n_phases=4,
    dense_passes=16,
    sparse_probes=12,
    seed=3,
)


def _streams() -> dict:
    return {
        "stream": (ARRAY_BYTES, lambda: _PATTERNS["stream"](SEED)),
        "hashmap": (ARRAY_BYTES, lambda: _PATTERNS["hashmap"](SEED)),
        "graph": (
            GraphTraversalWorkload(seed=1).arena_bytes,
            lambda: GraphTraversalWorkload(seed=1).accesses(),
        ),
        "extsort": (
            ExternalSortWorkload(seed=2).arena_bytes,
            lambda: ExternalSortWorkload(seed=2).accesses(),
        ),
        "phase": (PHASE.arena_bytes, PHASE.accesses),
    }


def _object_tier(arena: int):
    return replay_runtime("trackfm", OBJECT_LOCAL, HEAP, arena, OBJECT_SIZE)


def _page_tier(arena: int):
    return replay_runtime("fastswap", PAGE_LOCAL, HEAP, arena, OBJECT_SIZE)


def _adaptive(arena: int, epoch_accesses: int = 128):
    return replay_runtime(
        "adaptive", OBJECT_LOCAL + PAGE_LOCAL, HEAP, arena, OBJECT_SIZE,
        epoch_accesses=epoch_accesses, selector_config=TIGHT,
    )


class TestReplayDifferential:
    """Adaptive replay checksums == both static tiers', per workload."""

    @pytest.mark.parametrize("workload", sorted(_streams()))
    def test_values_match_both_static_tiers(self, workload):
        arena, stream = _streams()[workload]
        obj_rt, obj_access = _object_tier(arena)
        page_rt, page_access = _page_tier(arena)
        ada_rt, ada_access = _adaptive(arena)
        obj_sum = replay(obj_access, stream())
        page_sum = replay(page_access, stream())
        ada_sum = replay(ada_access, stream())
        assert ada_sum == obj_sum == page_sum
        # All three replays paid real far-memory traffic.
        assert obj_rt.metrics.remote_fetches > 0
        assert page_rt.metrics.major_faults > 0
        assert ada_rt.metrics.remote_fetches + ada_rt.metrics.major_faults > 0

    def test_driver_values_match_page_tier(self):
        # The trace drivers' own convention: replay drivers report the
        # offsets checksum, so adaptive must match fastswap exactly.
        for workload in ("stream", "hashmap"):
            ada = run_traced(workload, "adaptive", seed=SEED)
            fsw = run_traced(workload, "fastswap", seed=SEED)
            assert ada.value == fsw.value


class TestIRDifferential:
    """Compiled programs return identical values on the adaptive plane."""

    def _compiled(self, workload):
        from repro.compiler import CompilerConfig, TrackFMCompiler

        if workload == "chase":
            from repro.bench.regress import _build_chase_module

            module = _build_chase_module()
        else:
            from repro.trace.drivers import _IR_BUILDERS

            module = _IR_BUILDERS[workload](SEED)
        return TrackFMCompiler(CompilerConfig(object_size=OBJECT_SIZE)).compile(
            module
        ).module

    @pytest.mark.parametrize("workload", ["stream", "hashmap", "chase"])
    def test_program_value_matches_object_tier(self, workload):
        from repro.sim.irrun import TrackFMProgram

        static_rt = TrackFMRuntime(
            PoolConfig(
                object_size=OBJECT_SIZE, local_memory=OBJECT_LOCAL, heap_size=HEAP
            )
        )
        expected = (
            TrackFMProgram(self._compiled(workload), static_rt, max_steps=5_000_000)
            .run("main")
            .value
        )
        ada_rt = AdaptiveHybridRuntime(
            local_memory=OBJECT_LOCAL + PAGE_LOCAL,
            heap_size=HEAP,
            object_size=OBJECT_SIZE,
            epoch_accesses=128,
            selector_config=TIGHT,
        )
        got = (
            TrackFMProgram(self._compiled(workload), ada_rt, max_steps=5_000_000)
            .run("main")
            .value
        )
        assert got == expected


class TestServingDifferential:
    def test_webcache_fingerprint_matches_static_tiers(self):
        wl = WebCacheWorkload()
        adaptive = wl.value(runtime="adaptive")
        assert adaptive == wl.value(runtime="trackfm")
        assert adaptive == wl.value(runtime="fastswap")


class TestMigrationAccounting:
    def _phase_run(self, **overrides):
        rt, access = _adaptive(
            PHASE.arena_bytes, epoch_accesses=overrides.pop("epoch_accesses", 64)
        )
        checksum = replay(access, PHASE.accesses())
        return rt, checksum

    def test_counters_equal_decision_flips_exactly(self):
        rt, _ = self._phase_run()
        assert rt.metrics.tier_switches == len(rt.migration_log)
        assert rt.metrics.objects_migrated == sum(
            event.objects for event in rt.migration_log
        )
        assert rt.metrics.tier_switches > 0
        assert rt.metrics.objects_migrated > 0

    def test_phase_change_switches_both_directions(self):
        rt, _ = self._phase_run()
        to_pages = [e for e in rt.migration_log if e.target is Placement.PAGES]
        to_objects = [e for e in rt.migration_log if e.target is Placement.OBJECTS]
        assert to_pages, "dense phases must move their hot region to pages"
        assert to_objects, "cooled regions must move back to object fetch"
        # Every event is internally consistent: a real flip of a real
        # region, at a recorded epoch, moving that region's objects.
        for event in rt.migration_log:
            assert event.source is not event.target
            assert 1 <= event.epoch <= rt.epochs
            assert event.objects > 0

    def test_final_placements_agree_with_log(self):
        rt, _ = self._phase_run()
        last: dict = {}
        for event in rt.migration_log:
            last[event.region] = event.target
        placements = rt.region_placements()
        for region, target in last.items():
            assert placements[region] is target

    def test_draining_a_dirty_shadow_page_is_journaled(self):
        """A flip back to objects writes each dirty shadow page back
        through the write-ahead journal, as a reclaim writeback does."""
        rt = AdaptiveHybridRuntime(
            local_memory=64 * KB, heap_size=256 * KB, epoch_accesses=4096,
            selector_config=TIGHT,
        )
        rt.enable_integrity()
        checker = rt.fastswap.integrity
        base = rt.tfm_malloc(256 * KB)
        for _ in range(40):  # dense writes page region 0 and dirty its page
            for off in range(0, 4 * KB, 8):
                rt.access(base + off, AccessKind.WRITE, 8)
        page = rt.fastswap.page_of(rt._shadow[0])
        assert rt.placement_of(0) is Placement.PAGES
        assert rt.fastswap.residency.is_dirty(page)
        records = len(checker.journal)
        version = checker.versions.get(page, 0)
        evacuated = rt.metrics.bytes_evacuated
        for i in range(4096):  # one word per region: back to objects
            rt.access(base + (i % 64) * 4 * KB, AccessKind.READ, 8)
        assert rt.migration_log[-1].target is Placement.OBJECTS
        assert rt.migration_log[-1].region == 0
        assert rt.metrics.bytes_evacuated - evacuated == rt.fastswap.page_size
        assert [(r.kind, r.obj_id) for r in checker.journal.records[records:]] == [
            (RecordKind.INTENT, page), (RecordKind.PAYLOAD, page), (RecordKind.COMMIT, page),
        ]
        assert checker.versions[page] == version + 1

    def test_replay_is_bit_identical(self):
        a_rt, a_sum = self._phase_run()
        b_rt, b_sum = self._phase_run()
        assert a_sum == b_sum
        assert a_rt.migration_log == b_rt.migration_log
        assert a_rt.metrics.as_dict() == b_rt.metrics.as_dict()


class TestStaticEquivalence:
    """``adaptive=False`` is the plain TrackFM runtime, bit for bit."""

    def test_frozen_selector_matches_trackfm_exactly(self):
        arena, stream = _streams()["hashmap"]
        static_rt, static_access = _object_tier(arena)
        # The default split hands the object tier exactly OBJECT_LOCAL
        # bytes (page tier takes max(BASE_PAGE, half) = PAGE_LOCAL), so
        # the frozen hybrid and the static runtime are configured alike.
        frozen, frozen_access = replay_runtime(
            "adaptive", OBJECT_LOCAL + PAGE_LOCAL, HEAP, arena, OBJECT_SIZE,
            adaptive=False,
        )
        static_sum = replay(static_access, stream())
        frozen_sum = replay(frozen_access, stream())
        assert frozen_sum == static_sum
        assert frozen.metrics.cycles == static_rt.metrics.cycles
        assert frozen.metrics.as_dict() == static_rt.metrics.as_dict()
        assert frozen.epochs == 0
        assert frozen.migration_log == []
