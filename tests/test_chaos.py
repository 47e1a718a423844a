"""Seeded chaos suite: deterministic fault injection through the stack.

The resilience layer's whole contract is that injected faults are (a)
*deterministic* — the same :class:`FaultPlan` seed produces a
bit-identical fault schedule, metrics fingerprint, and trace shape on
every run — and (b) *survivable* — a plan the retry policy can absorb
changes only costs and resilience counters, never the values a program
computes.  Both halves are pinned here, along with the degradation
paths: breaker-open behaviour on every runtime, the hybrid's page-tier
fallback, and the evacuator's writeback deferral.
"""

from __future__ import annotations

import pytest

from repro.aifm.evacuator import Evacuator
from repro.aifm.pool import PoolConfig
from repro.aifm.runtime import AIFMRuntime
from repro.errors import (
    FarMemoryUnavailableError,
    RuntimeConfigError,
    TransientNetworkError,
)
from repro.fastswap.runtime import FastswapConfig, FastswapRuntime
from repro.hybrid.runtime import AdaptiveHybridRuntime, HybridRuntime, Placement
from repro.hybrid.selector import SelectorConfig
from repro.machine.costs import AccessKind
from repro.net.backends import RemoteBackend, make_tcp_backend
from repro.net.faults import (
    CircuitBreaker,
    FaultPlan,
    FaultyLink,
    RetryPolicy,
    default_fault_plan,
    installed_fault_plan,
    parse_fault_spec,
)
from repro.net.link import NetworkLink, TransferDirection
from repro.sim.metrics import Metrics
from repro.trace.drivers import run_traced
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import KB, MB
from repro.workloads.phase import PhaseShiftWorkload

#: A plan every workload below survives: drops are retried away well
#: inside the default policy's four attempts, so program values must
#: match the fault-free run exactly.
SURVIVABLE = FaultPlan(seed=7, drop_rate=0.03, jitter_cycles=400.0)

#: A dead remote: every message is lost.
DEAD = FaultPlan(seed=0, drop_rate=1.0)


def _fail_fast(backend: RemoteBackend, plan: FaultPlan = DEAD) -> RemoteBackend:
    """Arm ``backend`` with ``plan`` and a quick-to-give-up policy."""
    backend.link.faults = plan.schedule()
    backend.retry_policy = RetryPolicy(
        max_attempts=2, timeout_cycles=5_000.0, base_backoff_cycles=1_000.0
    )
    backend.breaker = CircuitBreaker(failure_threshold=3, cooldown_rejections=4)
    return backend


class TestScheduleDeterminism:
    def test_same_seed_same_schedule(self):
        a, b = FaultPlan(seed=11, drop_rate=0.1).schedule(), FaultPlan(
            seed=11, drop_rate=0.1
        ).schedule()
        for size in range(300):
            ra = rb = None
            try:
                ra = a.roll(size)
            except TransientNetworkError as err:
                ra = ("lost", err.kind, err.message_index)
            try:
                rb = b.roll(size)
            except TransientNetworkError as err:
                rb = ("lost", err.kind, err.message_index)
            assert ra == rb
        assert a.stats == b.stats

    def test_different_seed_different_schedule(self):
        def losses(seed):
            sched = FaultPlan(seed=seed, drop_rate=0.1).schedule()
            out = []
            for _ in range(200):
                try:
                    sched.roll(64)
                except TransientNetworkError as err:
                    out.append(err.message_index)
            return out

        assert losses(1) != losses(2)

    def test_decide_is_pure(self):
        plan = FaultPlan(seed=3, drop_rate=0.2, spike_rate=0.1, spike_cycles=1e4)
        assert [plan.decide(i) for i in range(100)] == [
            plan.decide(i) for i in range(100)
        ]

    def test_pause_window_loses_every_message(self):
        plan = FaultPlan(pause_windows=((2, 5),))
        sched = plan.schedule()
        outcomes = []
        for _ in range(7):
            try:
                sched.roll(64)
                outcomes.append("ok")
            except TransientNetworkError as err:
                outcomes.append(err.kind)
        assert outcomes == ["ok", "ok", "pause", "pause", "pause", "ok", "ok"]

    def test_drop_rate_roughly_respected(self):
        sched = FaultPlan(seed=5, drop_rate=0.2).schedule()
        for _ in range(2000):
            try:
                sched.roll(64)
            except TransientNetworkError:
                pass
        assert 0.15 < sched.stats.drops / 2000 < 0.25

    def test_faulty_link_wrap_shares_stats(self):
        base = NetworkLink(latency_cycles=1000.0)
        base.transfer(64, TransferDirection.FETCH)
        link = FaultyLink.wrap(base, FaultPlan(jitter_cycles=100.0, seed=2))
        link.transfer(64, TransferDirection.FETCH)
        assert base.stats is link.stats
        assert link.stats.messages == 2
        # Jitter lands on top of the healthy cost, from the seeded RNG.
        assert link.faults.stats.extra_cycles > 0.0

    def test_noop_plan_detection(self):
        assert FaultPlan().is_noop
        assert FaultPlan(spike_rate=0.5).is_noop  # spike of 0 cycles
        assert not FaultPlan(drop_rate=0.01).is_noop
        assert not FaultPlan(pause_windows=((0, 1),)).is_noop

    def test_plan_validation(self):
        with pytest.raises(RuntimeConfigError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(RuntimeConfigError):
            FaultPlan(jitter_cycles=-1.0)
        with pytest.raises(RuntimeConfigError):
            FaultPlan(pause_windows=((5, 5),))


class TestFaultSpecParsing:
    def test_full_spec(self):
        plan = parse_fault_spec(
            "seed=3,drop=0.02,spike=0.05:20000,jitter=500,pause=10:20;100:140"
        )
        assert plan == FaultPlan(
            seed=3,
            drop_rate=0.02,
            spike_rate=0.05,
            spike_cycles=20000.0,
            jitter_cycles=500.0,
            pause_windows=((10, 20), (100, 140)),
        )

    def test_empty_spec_is_noop(self):
        assert parse_fault_spec("").is_noop

    def test_bad_specs(self):
        for spec in ("drop", "bogus=1", "drop=x", "pause=5"):
            with pytest.raises(RuntimeConfigError):
                parse_fault_spec(spec)


class TestSurvivableDifferential:
    """Values under survivable faults == fault-free golden values."""

    @pytest.mark.parametrize(
        "runtime", ["trackfm", "aifm", "fastswap", "hybrid", "adaptive"]
    )
    @pytest.mark.parametrize("workload", ["stream", "hashmap"])
    def test_values_match_fault_free(self, workload, runtime):
        clean = run_traced(workload, runtime, seed=5)
        faulty = run_traced(workload, runtime, seed=5, fault_plan=SURVIVABLE)
        assert faulty.value == clean.value
        # Survivable means every loss was retried away (never degraded).
        m = faulty.metrics
        assert m.retries == m.drops and m.timeouts == m.drops
        assert m.degraded_accesses == 0
        if m.drops:  # low-traffic runs may roll zero losses
            assert faulty.cycles > clean.cycles
        # The clean run carries no resilience counters at all.
        for key in ("drops", "timeouts", "retries", "degraded_accesses"):
            assert key not in clean.metrics.as_dict()

    @pytest.mark.parametrize("runtime", ["trackfm", "aifm"])
    def test_plan_genuinely_perturbs_busy_runtimes(self, runtime):
        # hashmap under object-granular runtimes moves thousands of
        # messages: a 3% drop plan must actually hit some of them.
        faulty = run_traced("hashmap", runtime, seed=5, fault_plan=SURVIVABLE)
        assert faulty.metrics.drops > 0
        assert faulty.metrics.retries > 0

    @pytest.mark.parametrize("runtime", ["trackfm", "fastswap"])
    def test_replay_is_bit_identical(self, runtime):
        a = run_traced("hashmap", runtime, seed=5, fault_plan=SURVIVABLE)
        b = run_traced("hashmap", runtime, seed=5, fault_plan=SURVIVABLE)
        assert a.metrics.as_dict() == b.metrics.as_dict()
        assert a.cycles == b.cycles
        assert a.tracer.category_counts() == b.tracer.category_counts()

    def test_faulted_trace_has_new_categories(self):
        result = run_traced("hashmap", "trackfm", seed=5, fault_plan=SURVIVABLE)
        counts = result.tracer.category_counts()
        assert counts.get("fault", 0) > 0
        assert counts.get("retry", 0) > 0

    def test_installed_plan_is_scoped(self):
        assert default_fault_plan() is None
        run_traced("stream", "aifm", seed=1, fault_plan=SURVIVABLE)
        assert default_fault_plan() is None


class TestRetryAccounting:
    def test_retry_penalty_added_to_cost(self):
        # Message 0 dropped, message 1 (the retry) delivered.
        plan = FaultPlan(pause_windows=((0, 1),))
        backend = make_tcp_backend()
        backend.link.faults = plan.schedule()
        policy = RetryPolicy(
            max_attempts=4,
            timeout_cycles=50_000.0,
            base_backoff_cycles=10_000.0,
            jitter_fraction=0.0,
        )
        backend.retry_policy = policy
        metrics = Metrics()
        backend.metrics = metrics
        healthy = backend.fetch_cost(4096)
        cost = backend.fetch(4096)
        assert cost == pytest.approx(healthy + 50_000.0 + 10_000.0)
        assert metrics.drops == 1
        assert metrics.timeouts == 1
        assert metrics.retries == 1
        assert policy.retries_used == 1

    def test_exhaustion_raises_unavailable(self):
        backend = make_tcp_backend()
        backend.link.faults = DEAD.schedule()
        backend.retry_policy = RetryPolicy(max_attempts=3)
        with pytest.raises(FarMemoryUnavailableError):
            backend.fetch(4096)
        # 3 attempts, 2 retries granted.
        assert backend.link.faults.stats.drops == 3
        assert backend.retry_policy.retries_used == 2

    def test_retry_budget_fails_faster(self):
        backend = make_tcp_backend()
        backend.link.faults = DEAD.schedule()
        backend.retry_policy = RetryPolicy(max_attempts=10, retry_budget=1)
        with pytest.raises(FarMemoryUnavailableError):
            backend.fetch(4096)
        assert backend.link.faults.stats.drops == 2  # 1st try + budgeted retry

    def test_faults_without_policy_fail_fast(self):
        # Documented behaviour: a faulted link on a non-resilient
        # backend propagates the raw transient error.
        backend = make_tcp_backend()
        backend.link.faults = DEAD.schedule()
        with pytest.raises(TransientNetworkError):
            backend.fetch(4096)

    def test_breaker_opens_then_rejects(self):
        backend = _fail_fast(make_tcp_backend())
        for _ in range(2):  # 2 requests x 2 attempts = 4 failures > 3
            with pytest.raises(FarMemoryUnavailableError):
                backend.fetch(4096)
        messages_so_far = backend.link.faults.stats.messages
        # Breaker is now open: requests are rejected without touching
        # the wire at all.
        with pytest.raises(FarMemoryUnavailableError):
            backend.fetch(4096)
        assert backend.link.faults.stats.messages == messages_so_far
        assert backend.breaker.trips >= 1


class TestDegradedRuntimes:
    def _trackfm(self):
        rt = TrackFMRuntime(
            PoolConfig(object_size=256, local_memory=1 * KB, heap_size=64 * KB)
        )
        _fail_fast(rt.pool.backend)
        return rt

    def test_trackfm_guard_surfaces_unavailable(self):
        rt = self._trackfm()
        ptr = rt.tfm_malloc(4096)
        with pytest.raises(FarMemoryUnavailableError):
            rt.access(ptr)

    def test_trackfm_state_consistent_after_raise(self):
        rt = self._trackfm()
        ptr = rt.tfm_malloc(4096)
        with pytest.raises(FarMemoryUnavailableError):
            rt.access(ptr)
        # The failed object was not left resident ...
        assert rt.pool.resident_objects == 0
        # ... and the metadata word still says remote.
        assert not rt.pool.meta(rt.pool.object_of_offset(0)).is_local

    def test_trackfm_degraded_mode_serves_locally(self):
        rt = self._trackfm()
        rt.enable_degraded_mode(stall_cycles=2_000.0)
        ptr = rt.tfm_malloc(4096)
        cycles = rt.access(ptr)
        assert cycles > 0
        m = rt.metrics
        assert m.degraded_accesses == 1
        assert m.bytes_fetched == 0  # nothing crossed the wire
        assert m.remote_fetches == 0

    def test_aifm_degraded_mode(self):
        rt = AIFMRuntime(
            PoolConfig(object_size=256, local_memory=1 * KB, heap_size=64 * KB)
        )
        _fail_fast(rt.pool.backend)
        rt.enable_degraded_mode(stall_cycles=500.0)
        rt.allocate(4096)
        rt.access(0)
        assert rt.metrics.degraded_accesses == 1

    def test_fastswap_degraded_mode(self):
        rt = FastswapRuntime(
            FastswapConfig(local_memory=8 * KB, heap_size=1 * MB)
        )
        _fail_fast(rt.backend)
        off = rt.allocate(4096)
        with pytest.raises(FarMemoryUnavailableError):
            rt.access(off)
        rt.enable_degraded_mode(stall_cycles=500.0)
        rt.access(off)
        m = rt.metrics
        assert m.degraded_accesses == 1
        assert m.bytes_fetched == 0
        assert m.major_faults == 0  # no swap-in actually completed

    def test_fastswap_no_double_charge_on_healthy_faulted_link(self):
        # With faults installed but no losses, the page fault cost must
        # stay exactly the calibrated cost: admit() adds penalties only.
        clean = FastswapRuntime(
            FastswapConfig(local_memory=8 * KB, heap_size=1 * MB)
        )
        faulted = FastswapRuntime(
            FastswapConfig(local_memory=8 * KB, heap_size=1 * MB)
        )
        faulted.backend.link.faults = FaultPlan().schedule()  # no-op plan
        faulted.backend.retry_policy = RetryPolicy()
        off_a = clean.allocate(4096)
        off_b = faulted.allocate(4096)
        assert clean.access(off_a) == faulted.access(off_b)


class TestHybridFallback:
    def _hybrid(self):
        # Arena bytes [0, 1 KB) on objects, [1 KB, 2 KB) on pages.
        rt = HybridRuntime(
            local_memory=8 * KB, heap_size=256 * KB, arena=2 * KB, split=1 * KB,
            object_size=256,
        )
        _fail_fast(rt.trackfm.pool.backend)
        return rt

    def test_object_access_falls_back_to_pages(self):
        rt = self._hybrid()
        cycles = rt.access(0)
        assert cycles > 0
        # The fallback is booked in the page tier's bundle.
        assert rt.fastswap.metrics.degraded_accesses == 1
        # The fallback allocated a shadow in the page heap and the
        # access was served as a page fault there.
        assert rt.fastswap.metrics.major_faults >= 1

    def test_fallback_shadow_is_reused(self):
        rt = self._hybrid()
        rt.access(0)
        shadow = rt._fallback
        rt.access(8)
        rt.access(512)
        assert shadow is not None and rt._fallback == shadow
        assert rt.fastswap.metrics.degraded_accesses == 3
        assert rt.metrics.degraded_accesses == 3  # merged view includes it

    def test_page_side_unaffected(self):
        rt = self._hybrid()
        rt.access(1 * KB)
        assert rt.fastswap.metrics.degraded_accesses == 0


class TestAdaptiveMigrationChaos:
    """Survivable faults while tier migrations are in flight.

    The selector's decisions are pure functions of the access stream's
    counters — never of what the network did — so a survivable fault
    plan must leave the replay checksum, every migration event, and the
    final region placements bit-identical to the fault-free run, while
    the resilience counters show the faults really happened.
    """

    #: Phase-change workload: the hot region rotates, so migrations go
    #: both directions while faults are landing on both tiers' links.
    WORKLOAD = PhaseShiftWorkload(
        n_regions=4,
        region_bytes=4096,
        dense_stride=64,
        n_phases=4,
        dense_passes=16,
        sparse_probes=12,
        seed=3,
    )

    def _run_phase(self, fault_plan=None, rebalance_mid_flight=False):
        wl = self.WORKLOAD
        rt = AdaptiveHybridRuntime(
            local_memory=16 * KB,
            heap_size=64 * KB,
            object_size=256,
            epoch_accesses=64,
            selector_config=SelectorConfig(hysteresis=0.05, min_accesses=4),
        )
        if fault_plan is not None:
            for backend in rt.remote_backends():
                backend.link.faults = fault_plan.schedule()
                backend.retry_policy = RetryPolicy()
        ptr = rt.tfm_malloc(wl.arena_bytes)
        half = wl.accesses_per_phase * wl.n_phases // 2
        checksum = 0
        for i, (off, kind) in enumerate(wl.accesses()):
            rt.access(ptr + off, kind, size=8)
            checksum = (checksum * 31 + off + 1) & 0xFFFFFFFF
            if rebalance_mid_flight and i == half:
                rt.rebalance()
        return rt, checksum

    def test_survivable_faults_change_nothing_but_cost(self):
        clean_rt, clean_sum = self._run_phase()
        faulty_rt, faulty_sum = self._run_phase(SURVIVABLE)
        assert faulty_sum == clean_sum
        # Migrations really were in flight, in both directions.
        assert clean_rt.metrics.tier_switches > 0
        assert any(e.target is Placement.PAGES for e in clean_rt.migration_log)
        assert any(e.target is Placement.OBJECTS for e in clean_rt.migration_log)
        # ... and the faulted run made the same decisions at the same
        # epochs, ending in the same placements.
        assert faulty_rt.migration_log == clean_rt.migration_log
        assert faulty_rt.region_placements() == clean_rt.region_placements()
        m = faulty_rt.metrics
        assert m.drops > 0
        assert m.retries == m.drops and m.timeouts == m.drops
        assert m.degraded_accesses == 0
        assert faulty_rt.metrics.cycles > clean_rt.metrics.cycles

    def test_forced_rebalance_mid_flight_under_faults(self):
        clean_rt, clean_sum = self._run_phase(rebalance_mid_flight=True)
        faulty_rt, faulty_sum = self._run_phase(
            SURVIVABLE, rebalance_mid_flight=True
        )
        assert faulty_sum == clean_sum
        assert faulty_rt.migration_log == clean_rt.migration_log
        assert faulty_rt.region_placements() == clean_rt.region_placements()

    def test_faulted_migration_replay_is_bit_identical(self):
        a_rt, _ = self._run_phase(SURVIVABLE)
        b_rt, _ = self._run_phase(SURVIVABLE)
        assert a_rt.metrics.as_dict() == b_rt.metrics.as_dict()
        assert a_rt.migration_log == b_rt.migration_log


class TestEvacuatorDeferral:
    def test_process_defers_instead_of_raising(self):
        backend = _fail_fast(make_tcp_backend())
        evac = Evacuator(backend=backend, object_size=256)
        metrics = Metrics()
        cycles = evac.process([(1, True), (2, False), (3, True)], metrics)
        assert cycles == 0.0  # nothing actually went out
        assert metrics.deferred_writebacks == 2
        assert metrics.evictions == 3
        assert metrics.bytes_evacuated == 0

    def test_degraded_writes_defer_writebacks(self):
        # Degraded mode + dirty evictions: the evacuator defers rather
        # than failing an unrelated access.
        rt = AIFMRuntime(
            PoolConfig(object_size=256, local_memory=1 * KB, heap_size=64 * KB)
        )
        _fail_fast(rt.pool.backend)
        rt.enable_degraded_mode()
        rt.allocate(16 * KB)
        # 64 dirty objects through a 4-object residency: evictions happen.
        for i in range(64):
            rt.access(i * 256, AccessKind.WRITE)
        m = rt.metrics
        assert m.deferred_writebacks > 0
        assert m.bytes_evacuated == 0


class TestDeferredDrain:
    """``Evacuator.drain_deferred``: deferred writebacks are re-driven."""

    def _deferred_evacuator(self, n_dirty: int):
        backend = _fail_fast(make_tcp_backend())
        evac = Evacuator(backend=backend, object_size=256)
        metrics = Metrics()
        evac.process([(obj, True) for obj in range(1, n_dirty + 1)], metrics)
        assert evac.deferred_objects == tuple(range(1, n_dirty + 1))
        return evac, backend, metrics

    def _heal(self, backend):
        backend.link.faults = None
        backend.breaker = CircuitBreaker(failure_threshold=3, cooldown_rejections=4)

    def test_drain_charges_exact_writeback_cycles(self):
        evac, backend, metrics = self._deferred_evacuator(2)
        self._heal(backend)
        cycles_before = metrics.cycles
        drained = evac.drain_deferred(metrics)
        # Accounting matches process(): each re-driven writeback costs
        # one depth-pipelined evict, sync_fraction of it app-visible.
        per_writeback = (
            backend.link.pipelined_cycles(256, evac.writeback_depth)
            * evac.sync_fraction
        )
        assert drained == pytest.approx(2 * per_writeback)
        assert metrics.cycles - cycles_before == pytest.approx(drained)
        assert metrics.bytes_evacuated == 2 * 256
        assert evac.drained_total == 2
        assert not evac.has_deferred
        assert metrics.deferred_writebacks == 2  # unchanged by the drain

    def test_drain_stops_at_first_failure_preserving_order(self):
        evac, backend, metrics = self._deferred_evacuator(3)
        # Heal just long enough for one message: index 0 succeeds, every
        # later message lands in the pause window.
        backend.link.faults = FaultPlan(
            seed=0, pause_windows=((1, 1_000_000),)
        ).schedule()
        backend.breaker = CircuitBreaker(failure_threshold=3, cooldown_rejections=4)
        deferred_before = metrics.deferred_writebacks
        evac.drain_deferred(metrics)
        # Object 1 went out; object 2 failed and was re-deferred; object
        # 3 was never attempted and keeps its place in line.
        assert evac.drained_total == 1
        assert evac.deferred_objects == (2, 3)
        assert metrics.deferred_writebacks == deferred_before + 1
        assert metrics.bytes_evacuated == 256

    def test_drain_on_empty_queue_is_free(self):
        backend = make_tcp_backend()
        evac = Evacuator(backend=backend, object_size=256)
        metrics = Metrics()
        assert evac.drain_deferred(metrics) == 0.0
        assert metrics.cycles == 0.0

    def test_deferral_is_deduplicated(self):
        evac, backend, metrics = self._deferred_evacuator(1)
        evac.process([(1, True)], metrics)
        # Two failed attempts are both counted, but the queue holds the
        # object once — draining must not write it back twice.
        assert metrics.deferred_writebacks == 2
        assert evac.deferred_objects == (1,)
        self._heal(backend)
        evac.drain_deferred(metrics)
        assert evac.drained_total == 1
        assert metrics.bytes_evacuated == 256

    def test_pool_auto_drains_after_next_successful_fetch(self):
        rt = AIFMRuntime(
            PoolConfig(object_size=256, local_memory=1 * KB, heap_size=64 * KB)
        )
        _fail_fast(rt.pool.backend)
        rt.enable_degraded_mode()
        rt.allocate(16 * KB)
        for i in range(64):
            rt.access(i * 256, AccessKind.WRITE)
        assert rt.pool.evacuator.has_deferred
        # The tier heals: the next miss's successful fetch re-drives the
        # backlog — the moment the breaker would close again.
        rt.pool.backend.link.faults = None
        rt.pool.backend.breaker = CircuitBreaker(
            failure_threshold=3, cooldown_rejections=4
        )
        rt.access(0)
        assert not rt.pool.evacuator.has_deferred
        assert rt.metrics.bytes_evacuated > 0
        assert rt.pool.evacuator.drained_total > 0


class TestCLISmoke:
    def test_trace_cli_with_faults(self, tmp_path, capsys):
        from repro.trace.__main__ import main

        out = tmp_path / "t.json"
        rc = main(
            [
                "--workload", "stream", "--runtime", "trackfm",
                "--out", str(out), "--seed", "2",
                "--faults", "seed=2,drop=0.03,jitter=300",
            ]
        )
        assert rc == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "faults  = drops" in text
        assert default_fault_plan() is None  # plan uninstalled after the run

    def test_bench_cli_with_faults(self, capsys):
        from repro.bench.__main__ import main

        rc = main(["table2", "--faults", "seed=1,drop=0.005"])
        assert rc == 0
        assert "TrackFM" in capsys.readouterr().out
        assert default_fault_plan() is None

    def test_installed_plan_context_restores_previous(self):
        outer = FaultPlan(seed=1, drop_rate=0.1)
        inner = FaultPlan(seed=2, drop_rate=0.2)
        with installed_fault_plan(outer):
            with installed_fault_plan(inner):
                assert default_fault_plan() is inner
            assert default_fault_plan() is outer
        assert default_fault_plan() is None
