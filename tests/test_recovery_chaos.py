"""Crash-injection and corruption chaos tests for the integrity subsystem.

The invariant this suite pins, across all four runtime models: under
any seeded corruption or crash plan, a run either repairs every fault
(counted in the integrity counters) and computes values identical to a
fault-free run, or raises :class:`~repro.errors.DataIntegrityError` /
falls back to the page tier — it never silently returns wrong data.
Crash plans are deterministic (splitmix64 counters + an exact journal
record count), so every scenario here replays bit-for-bit.
"""

from __future__ import annotations

import pytest

from repro.aifm.pool import PoolConfig
from repro.aifm.runtime import AIFMRuntime
from repro.errors import DataIntegrityError, RuntimeConfigError, SimulatedCrashError
from repro.fastswap.runtime import FastswapConfig, FastswapRuntime
from repro.hybrid.runtime import AdaptiveHybridRuntime, HybridRuntime
from repro.hybrid.selector import SelectorConfig
from repro.integrity import IntegrityConfig, RecordKind, default_integrity_config
from repro.machine.costs import AccessKind
from repro.net.faults import FaultPlan
from repro.trace.drivers import run_traced
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import KB, MB

OBJ = 256
TERMINAL = (RecordKind.COMMIT, RecordKind.ABORT)


def _aifm_runtime() -> AIFMRuntime:
    # 4 resident objects: sequential writes evict (and write back) early.
    return AIFMRuntime(
        PoolConfig(object_size=OBJ, local_memory=1 * KB, heap_size=64 * KB),
        prefetch_depth=0,
    )


def _crash_run(config: IntegrityConfig, n_writes: int = 12) -> AIFMRuntime:
    """Drive sequential dirty writes into an injected crash."""
    rt = _aifm_runtime()
    rt.enable_integrity(config)
    with pytest.raises(SimulatedCrashError):
        for i in range(n_writes):
            rt.access(i * OBJ, AccessKind.WRITE)
        raise AssertionError("crash plan never fired")
    return rt


def _journal_fingerprint(rt: AIFMRuntime):
    checker = rt.pool.integrity
    return [
        (r.seq, r.kind, r.obj_id, r.version, r.check)
        for r in checker.journal.records
    ]


def _assert_recovered(rt: AIFMRuntime) -> None:
    """Post-recovery coherence: journal terminal, metadata == residency."""
    checker = rt.pool.integrity
    assert not checker._pending
    assert not checker.remote_damage
    state = checker.journal.state()
    for obj_id in checker.journal.objects():
        version = max(v for (o, v) in state if o == obj_id)
        assert state[(obj_id, version)] in TERMINAL
    pool = rt.pool
    for obj_id in range(pool.config.num_objects):
        assert pool.meta(obj_id).is_local == (obj_id in pool.residency)


class TestCrashDeterminism:
    def test_same_plan_crashes_identically(self):
        config = IntegrityConfig(seed=1, crash_at_record=7)
        a = _crash_run(config)
        b = _crash_run(config)
        assert _journal_fingerprint(a) == _journal_fingerprint(b)
        assert len(a.pool.integrity.journal) == 7
        assert a.metrics.cycles == b.metrics.cycles

    def test_crash_plan_fires_once(self):
        rt = _crash_run(IntegrityConfig(seed=1, crash_at_record=7))
        assert rt.pool.integrity.crash_plan.fired


class TestEvacuatorCrashRecovery:
    def test_intent_stage_crash_rolls_back(self):
        # Record 7 is the INTENT of the third writeback: the wire write
        # never started, so recovery must reinstate the object dirty.
        rt = _crash_run(IntegrityConfig(seed=1, crash_at_record=7))
        checker = rt.pool.integrity
        victim = checker.journal.records[6].obj_id
        report = rt.recover()
        assert report.rolled_back == 1
        assert report.replayed == 0
        meta = rt.pool.meta(victim)
        assert meta.is_local and meta.is_dirty
        _assert_recovered(rt)

    def test_payload_stage_crash_replays(self):
        # Record 8 is the PAYLOAD of the third writeback: durable but
        # uncommitted, so recovery re-drives it and commits.
        rt = _crash_run(IntegrityConfig(seed=1, crash_at_record=8))
        checker = rt.pool.integrity
        victim = checker.journal.records[7].obj_id
        cycles_before = rt.metrics.cycles
        report = rt.recover()
        assert report.replayed == 1
        assert report.rolled_back == 0
        assert checker.versions[victim] == checker.journal.records[7].version
        assert rt.metrics.journal_replays == 1
        # The re-driven wire write is charged to the run.
        assert rt.metrics.cycles > cycles_before
        _assert_recovered(rt)

    def test_farnode_crash_tears_inflight_copy(self):
        # Record 9 is the COMMIT of the third writeback; a farnode crash
        # there means the far node died applying it — committed in the
        # journal, damaged on the wire.  Recovery re-drives it.
        rt = _crash_run(
            IntegrityConfig(seed=1, crash_at_record=9, crash_kind="farnode")
        )
        checker = rt.pool.integrity
        assert checker.remote_damage  # torn by the crash
        report = rt.recover()
        assert report.repaired_remote == 1
        assert rt.metrics.journal_replays == 1
        _assert_recovered(rt)

    def test_recover_twice_equals_once(self):
        rt = _crash_run(IntegrityConfig(seed=1, crash_at_record=8))
        rt.recover()
        checker = rt.pool.integrity
        journal_len = len(checker.journal)
        versions = dict(checker.versions)
        second = rt.recover()
        assert second.total_actions == 0
        assert len(checker.journal) == journal_len
        assert checker.versions == versions

    def test_resumed_run_completes(self):
        rt = _crash_run(IntegrityConfig(seed=1, crash_at_record=7))
        rt.recover()
        # Re-drive the whole pattern: every access must succeed and the
        # journal must end terminal again.
        for i in range(12):
            rt.access(i * OBJ, AccessKind.WRITE)
        for i in range(12):
            rt.access(i * OBJ, AccessKind.READ)
        _assert_recovered(rt)

    def test_recover_without_integrity_raises(self):
        rt = _aifm_runtime()
        with pytest.raises(RuntimeConfigError):
            rt.recover()


class TestTrackFMCrashRecovery:
    def _compiled_stream(self):
        from repro.compiler import CompilerConfig, TrackFMCompiler
        from repro.trace.drivers import _build_stream_module

        module = _build_stream_module()
        TrackFMCompiler(CompilerConfig(object_size=OBJ)).compile(module)
        return module

    def _runtime(self) -> TrackFMRuntime:
        return TrackFMRuntime(
            PoolConfig(object_size=OBJ, local_memory=2 * KB, heap_size=1 * MB)
        )

    def test_recovered_interpreter_run_computes_clean_value(self):
        from repro.sim.irrun import TrackFMProgram

        module = self._compiled_stream()
        clean_rt = self._runtime()
        clean_rt.enable_integrity(IntegrityConfig(seed=2))
        clean = TrackFMProgram(module, clean_rt, max_steps=5_000_000).run("main")

        rt = self._runtime()
        rt.enable_integrity(IntegrityConfig(seed=2, crash_at_record=10))
        with pytest.raises(SimulatedCrashError):
            TrackFMProgram(module, rt, max_steps=5_000_000).run("main")
        report = rt.recover()
        assert report.total_actions >= 1
        # The state table aliases the pool metadata, so the recovered
        # words are what the guards now see: rerunning the program on
        # the recovered runtime must produce the crash-free value.
        rerun = TrackFMProgram(module, rt, max_steps=5_000_000).run("main")
        assert rerun.value == clean.value

    def test_trackfm_crash_journal_is_deterministic(self):
        from repro.sim.irrun import TrackFMProgram

        module = self._compiled_stream()
        fingerprints = []
        for _ in range(2):
            rt = self._runtime()
            rt.enable_integrity(IntegrityConfig(seed=2, crash_at_record=10))
            with pytest.raises(SimulatedCrashError):
                TrackFMProgram(module, rt, max_steps=5_000_000).run("main")
            fingerprints.append(
                [
                    (r.seq, r.kind, r.obj_id, r.version)
                    for r in rt.pool.integrity.journal.records
                ]
            )
        assert fingerprints[0] == fingerprints[1]


class TestFastswapCrashRecovery:
    def test_crash_recover_resume(self):
        rt = FastswapRuntime(
            FastswapConfig(local_memory=4 * KB, heap_size=64 * KB)
        )
        rt.enable_integrity(IntegrityConfig(seed=1, crash_at_record=4))
        rt.allocate(32 * KB)
        with pytest.raises(SimulatedCrashError):
            for page in range(8):
                rt.access(page * 4096, AccessKind.WRITE)
            raise AssertionError("crash plan never fired")
        report = rt.recover()
        assert report.total_actions >= 1
        checker = rt.integrity
        assert not checker._pending
        state = checker.journal.state()
        for obj_id in checker.journal.objects():
            version = max(v for (o, v) in state if o == obj_id)
            assert state[(obj_id, version)] in TERMINAL
        # Resume: the full pattern completes and the PTE view is sane.
        for page in range(8):
            rt.access(page * 4096, AccessKind.WRITE)
        for page in range(8):
            rt.access(page * 4096)
        resident, _dirty, check = rt.page_table_entry(7)
        assert resident
        assert check == checker.expected_check(7)

    def test_recover_without_integrity_raises(self):
        rt = FastswapRuntime(
            FastswapConfig(local_memory=4 * KB, heap_size=64 * KB)
        )
        with pytest.raises(RuntimeConfigError):
            rt.recover()


def _writeback_records(victims):
    """INTENT, PAYLOAD and COMMIT of one writeback per victim, in order."""
    return [
        (kind, victim)
        for victim in victims
        for kind in (RecordKind.INTENT, RecordKind.PAYLOAD, RecordKind.COMMIT)
    ]


class TestPageReinstateJournal:
    """Reinstating a page over a full page tier writes its dirty victim
    back through the journal, as a fault's reclaim does, from both
    callers: the adaptive hybrid's eviction hook and recovery's rollback."""

    def test_hybrid_migration_journals_dirty_victims(self):
        rt = AdaptiveHybridRuntime(
            16 * KB, 64 * KB, epoch_accesses=512,
            selector_config=SelectorConfig(hysteresis=0.05, min_accesses=4),
        )
        rt.enable_integrity()
        fs = rt.fastswap  # a 2-page page tier
        journal = fs.integrity.journal
        reinstate, calls = fs._reinstate_page, []

        def spy(page):
            resident = set(fs.residency.resident_ids())
            evacuated, records = fs.metrics.bytes_evacuated, len(journal)
            cycles = reinstate(page)
            calls.append((
                sorted(resident - set(fs.residency.resident_ids())),
                fs.metrics.bytes_evacuated - evacuated,
                [(r.kind, r.obj_id, r.version) for r in journal.records[records:]],
            ))
            return cycles

        fs._reinstate_page = spy
        ptr = rt.tfm_malloc(6 * 4 * KB)
        for region in range(6):
            for _sweep in range(3):
                for offset in range(0, 4 * KB, 8):
                    rt.access(ptr + region * 4 * KB + offset, AccessKind.WRITE)
        evicting = [call for call in calls if call[0]]
        assert len(calls) == 96 and len(evicting) == 4
        for victims, evacuated, records in evicting:
            assert evacuated == 4 * KB * len(victims)
            assert [(kind, obj) for kind, obj, _v in records] == _writeback_records(victims)
            assert len({version for _k, _o, version in records}) == 1

    def test_rollback_journals_its_victim_and_recovers_once(self):
        rt = FastswapRuntime(FastswapConfig(local_memory=8 * KB, heap_size=64 * KB))
        checker = rt.enable_integrity(IntegrityConfig(seed=1, crash_at_record=1))
        rt.allocate(32 * KB)
        rt.access(0, AccessKind.WRITE)
        rt.access(4 * KB, AccessKind.WRITE)
        with pytest.raises(SimulatedCrashError):
            # Page 0 is the dirty victim: its INTENT record crashes.
            rt.access(8 * KB, AccessKind.WRITE)
        assert rt.metrics.bytes_evacuated == 0
        report = rt.recover()
        # Rolling page 0 back displaces dirty page 1, written back in full.
        assert report.rolled_back == 1
        assert [(r.kind, r.obj_id) for r in checker.journal.records] == (
            [(RecordKind.INTENT, 0)] + _writeback_records([1]) + [(RecordKind.ABORT, 0)]
        )
        assert rt.metrics.bytes_evacuated == 4 * KB
        assert sorted(rt.residency.resident_ids()) == [0, 2]

        def state():
            return (
                rt.metrics.as_dict(),
                checker.journal.records,
                sorted(rt.residency.resident_ids()),
                sorted(rt.residency._dirty),
            )

        before = state()
        again = rt.recover()
        assert again.total_actions == 0 and again.cycles == 0.0
        assert state() == before


CORRUPTING = FaultPlan(
    seed=5,
    bitflip_rate=0.02,
    stale_read_rate=0.01,
    torn_write_rate=0.01,
    lost_writeback_rate=0.01,
)


class TestCorruptionDifferential:
    """Never-silently-wrong, pinned across all four runtime models."""

    @pytest.mark.parametrize("runtime", ["trackfm", "aifm", "fastswap", "hybrid"])
    def test_corrupted_run_matches_clean_or_raises(self, runtime):
        clean = run_traced("hashmap", runtime, seed=3)
        try:
            faulted = run_traced(
                "hashmap",
                runtime,
                seed=3,
                fault_plan=CORRUPTING,
                integrity=IntegrityConfig(seed=5, max_refetches=6),
            )
        except DataIntegrityError:
            return  # quarantine surfaced loudly — the allowed outcome
        assert faulted.value == clean.value
        m = faulted.metrics
        assert m.corruptions_detected > 0
        assert (
            m.corruptions_detected
            == m.corruptions_repaired + m.quarantined_objects
        )

    @pytest.mark.parametrize("runtime", ["trackfm", "aifm", "fastswap", "hybrid"])
    def test_integrity_without_faults_changes_no_values(self, runtime):
        clean = run_traced("stream", runtime, seed=1)
        checked = run_traced(
            "stream", runtime, seed=1, integrity=IntegrityConfig(seed=9)
        )
        assert checked.value == clean.value
        assert checked.metrics.corruptions_detected == 0
        # Verification cycles are charged, so runs are never cheaper.
        assert checked.cycles >= clean.cycles


class TestQuarantineEscalation:
    def _always_corrupt(self):
        return FaultPlan(seed=1, bitflip_rate=1.0).schedule()

    def test_trackfm_raises_and_unwinds(self):
        rt = TrackFMRuntime(
            PoolConfig(object_size=OBJ, local_memory=1 * KB, heap_size=64 * KB)
        )
        rt.enable_integrity(IntegrityConfig(max_refetches=1))
        rt.pool.backend.link.faults = self._always_corrupt()
        ptr = rt.tfm_malloc(4 * KB)
        with pytest.raises(DataIntegrityError):
            rt.access(ptr)
        assert rt.metrics.quarantined_objects == 1
        # The guard unwound: the object is still remote, not half-local.
        assert rt.pool.meta(0).is_remote
        assert rt.pool.resident_objects == 0

    def test_aifm_raises(self):
        rt = _aifm_runtime()
        rt.enable_integrity(IntegrityConfig(max_refetches=1))
        rt.pool.backend.link.faults = self._always_corrupt()
        with pytest.raises(DataIntegrityError) as err:
            rt.access(0)
        assert err.value.obj_id == 0
        assert rt.metrics.quarantined_objects == 1

    def test_fastswap_raises_and_discards_page(self):
        rt = FastswapRuntime(
            FastswapConfig(local_memory=4 * KB, heap_size=64 * KB)
        )
        rt.enable_integrity(IntegrityConfig(max_refetches=1))
        rt.backend.link.faults = self._always_corrupt()
        rt.allocate(16 * KB)
        with pytest.raises(DataIntegrityError):
            rt.access(0)
        resident, dirty, _check = rt.page_table_entry(0)
        assert not resident and not dirty
        assert rt.metrics.quarantined_objects == 1

    def test_hybrid_degrades_to_page_tier(self):
        hy = HybridRuntime(
            local_memory=8 * KB, heap_size=64 * KB, arena=8 * KB, split=4 * KB,
            object_size=OBJ,
        )
        hy.trackfm.enable_integrity(IntegrityConfig(max_refetches=0))
        hy.trackfm.pool.backend.link.faults = self._always_corrupt()
        # Quarantine on the object tier is absorbed: the access is
        # served by the (independently verified) page tier instead.
        hy.access(0)
        assert hy.fastswap.metrics.degraded_accesses == 1
        assert hy.metrics.quarantined_objects == 1
        # The quarantined object keeps raising, so the shadow sticks.
        hy.access(0)
        assert hy.fastswap.metrics.degraded_accesses == 2


class TestIntegrityCLI:
    def test_trace_cli_reports_integrity_summary(self, tmp_path, capsys):
        from repro.trace.__main__ import main as trace_main

        rc = trace_main(
            [
                "--workload", "stream",
                "--runtime", "aifm",
                "--out", str(tmp_path / "t.json"),
                "--integrity", "seed=1,refetch=4",
                "--faults", "seed=3,bitflip=0.05",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "integrity = detected" in out
        # The installed config is scoped to the run, not the process.
        assert default_integrity_config() is None

    def test_trace_cli_integrity_off_prints_no_summary(self, tmp_path, capsys):
        from repro.trace.__main__ import main as trace_main

        rc = trace_main(
            [
                "--workload", "stream",
                "--runtime", "aifm",
                "--out", str(tmp_path / "t.json"),
                "--integrity", "off",
            ]
        )
        assert rc == 0
        assert "integrity =" not in capsys.readouterr().out
