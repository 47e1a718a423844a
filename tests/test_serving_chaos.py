"""Shard-knockout chaos tests for the sharded serving layer.

The serving layer's resilience contract, pinned end to end:

* a run that loses 1 of N shards mid-flight **completes** — no request
  raises, the lost shard's traffic degrades;
* keys placed on *surviving* shards finish with values **identical** to
  a fault-free run of the same schedule (shard = independent fault
  domain: the blast radius of a loss is exactly the lost shard's keys);
* the retry/degrade accounting is exact: every post-knockout remote
  access on the lost shard is counted, and fault-free shards count
  nothing;
* rebalancing removes the dead shard from the ring, re-seeds only its
  keys, and the cluster keeps serving.

Everything is deterministic, so equality assertions are exact.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import (
    ChaosAction,
    ClusterConfig,
    ServingSimulation,
    ShardedCluster,
    TrafficConfig,
    default_value,
    generate_schedule,
    next_value,
    run_serving,
)
from repro.serve.cluster import RUNTIME_KINDS, SLOT_BYTES
from repro.errors import RuntimeConfigError

N_KEYS = 256
N_SHARDS = 4
LOST = 1

#: Small local memory so the lost shard keeps taking cache misses after
#: the knockout — that is what exercises retries/timeouts/degrades.
TRAFFIC = TrafficConfig(
    clients=30, requests_per_client=40, n_keys=N_KEYS, seed=13
)


def _cluster(runtime: str = "aifm", **overrides) -> ShardedCluster:
    config = ClusterConfig(
        n_shards=N_SHARDS,
        n_keys=N_KEYS,
        runtime=runtime,
        local_memory=overrides.pop("local_memory", 512),
        **overrides,
    )
    return ShardedCluster(config)


def _knockout_chaos(schedule, rebalance: bool = True):
    mid = float(schedule.times[len(schedule) // 2])
    end = float(schedule.times[-1])
    chaos = [ChaosAction(mid, "lose", LOST)]
    if rebalance:
        chaos.append(ChaosAction((mid + end) / 2.0, "rebalance"))
    return chaos


@pytest.mark.parametrize(
    "runtime", ["aifm", "trackfm", "fastswap", "hybrid", "adaptive"]
)
def test_knockout_run_completes_every_request(runtime):
    schedule = generate_schedule(TRAFFIC)
    cluster = _cluster(runtime)
    report, _values = run_serving(cluster, schedule, _knockout_chaos(schedule))
    assert report.requests == len(schedule)
    assert report.cluster_stats["lost_shards"] == 1
    assert report.cluster_stats["rebalances"] == 1
    assert report.cluster_stats["reseeded_keys"] > 0


@pytest.mark.parametrize("runtime", ["aifm", "trackfm", "adaptive"])
def test_surviving_shard_values_identical_to_fault_free(runtime):
    schedule = generate_schedule(TRAFFIC)

    baseline_cluster = _cluster(runtime)
    _base_report, base_values = run_serving(baseline_cluster, schedule)
    # Original placement decides the blast radius.
    lost_keys = {
        k for k in range(N_KEYS) if baseline_cluster.place(k) == LOST
    }
    assert lost_keys, "schedule must place some keys on the lost shard"
    assert len(lost_keys) < N_KEYS

    chaos_cluster = _cluster(runtime)
    _chaos_report, chaos_values = run_serving(
        chaos_cluster, schedule, _knockout_chaos(schedule)
    )

    mismatched_survivors = [
        k for k in range(N_KEYS)
        if k not in lost_keys and base_values[k] != chaos_values[k]
    ]
    assert mismatched_survivors == [], (
        "shard loss leaked into surviving shards' values"
    )
    # Lost-shard keys re-seed to their initial values (cold-replica
    # restore) and only accumulate post-rebalance writes: their final
    # value must be reachable from the default by fewer writes than the
    # fault-free run applied (writes during the outage were lost).
    for k in lost_keys:
        writes_to_k = int(
            ((schedule.keys == k) & schedule.writes).sum()
        )
        reachable = set()
        v = default_value(k)
        for _ in range(writes_to_k + 1):
            reachable.add(v)
            v = next_value(k, v)
        assert chaos_values[k] in reachable
    # At least one lost key actually shed writes (the outage mattered).
    written_lost = [
        k for k in lost_keys
        if int(((schedule.keys == k) & schedule.writes).sum()) > 0
    ]
    assert any(chaos_values[k] != base_values[k] for k in written_lost)


def _adaptive_cluster_with_live_migrations() -> ShardedCluster:
    """An adaptive cluster whose shards hold page-tier regions.

    Each shard's selector is tightened (small hysteresis, short epochs)
    and fed a deterministic dense warmup sweep over its first slot
    region, flipping that region onto the page tier before any traffic
    lands — so knockout and ring rebalance hit shards with migrations
    already committed and a selector still watching.
    """
    from repro.hybrid.selector import SelectorConfig
    from repro.machine.costs import AccessKind

    cluster = _cluster("adaptive", local_memory=16 * 1024)
    for shard in cluster.shards.values():
        rt = shard.runtime
        rt.selector.config = SelectorConfig(hysteresis=0.05, min_accesses=4)
        rt.epoch_accesses = 64
        for _ in range(16):
            for off in range(0, 4096, 64):
                rt.access(shard._base + off, AccessKind.READ, size=8)
        rt.rebalance()
    return cluster


def test_adaptive_knockout_while_migrations_in_flight():
    from repro.hybrid.placement import Placement

    schedule = generate_schedule(TRAFFIC)
    base_cluster = _adaptive_cluster_with_live_migrations()
    # The warmup really moved regions onto the page tier, shard by shard.
    for shard in base_cluster.shards.values():
        assert shard.runtime.metrics.tier_switches >= 1
        assert Placement.PAGES in shard.runtime.region_placements().values()
    _base_report, base_values = run_serving(base_cluster, schedule)
    lost_keys = {k for k in range(N_KEYS) if base_cluster.place(k) == LOST}
    assert lost_keys and len(lost_keys) < N_KEYS

    chaos_cluster = _adaptive_cluster_with_live_migrations()
    report, chaos_values = run_serving(
        chaos_cluster, schedule, _knockout_chaos(schedule)
    )
    # Losing a shard with page-tier regions live completes the run ...
    assert report.requests == len(schedule)
    assert report.cluster_stats["lost_shards"] == 1
    assert report.cluster_stats["rebalances"] == 1
    # ... and the blast radius is still exactly the lost shard's keys.
    mismatched_survivors = [
        k for k in range(N_KEYS)
        if k not in lost_keys and base_values[k] != chaos_values[k]
    ]
    assert mismatched_survivors == []


def test_adaptive_knockout_run_is_deterministic():
    schedule = generate_schedule(TRAFFIC)
    chaos = _knockout_chaos(schedule)
    r1, v1 = run_serving(_adaptive_cluster_with_live_migrations(), schedule, chaos)
    r2, v2 = run_serving(_adaptive_cluster_with_live_migrations(), schedule, chaos)
    assert r1.to_dict() == r2.to_dict()
    assert v1 == v2


def test_exact_retry_and_degrade_accounting():
    schedule = generate_schedule(TRAFFIC)
    cluster = _cluster("aifm")
    report, _ = run_serving(cluster, schedule, _knockout_chaos(schedule))

    lost_metrics = cluster.shards[LOST].metrics
    survivors = [s for sid, s in cluster.shards.items() if sid != LOST]
    # Every drop/timeout/retry/degrade in the whole cluster happened on
    # the lost shard: shards are independent fault domains and the
    # survivors ran fault-free.
    for shard in survivors:
        m = shard.metrics
        assert m.drops == 0 and m.timeouts == 0 and m.retries == 0
        assert m.degraded_accesses == 0
    merged = report.metrics
    assert merged.get("drops", 0) == lost_metrics.drops
    assert merged.get("timeouts", 0) == lost_metrics.timeouts
    assert merged.get("retries", 0) == lost_metrics.retries
    assert merged.get("degraded_accesses", 0) == lost_metrics.degraded_accesses
    # The knockout actually bit: remote misses on the dead shard were
    # dropped, timed out, retried, and finally served degraded.
    assert lost_metrics.drops > 0
    assert lost_metrics.timeouts > 0
    assert lost_metrics.degraded_accesses > 0
    # Retry policy grants max_attempts-1 = 3 retries per exhausted
    # access until the breaker opens, then fails fast: retries are
    # bounded by 3 per degraded access.
    assert lost_metrics.retries <= 3 * lost_metrics.degraded_accesses


def test_rebalance_moves_only_lost_shard_keys():
    schedule = generate_schedule(TRAFFIC)
    cluster = _cluster("aifm")
    # Warm placement for every key, then snapshot it.
    before = {k: cluster.place(k) for k in range(N_KEYS)}
    cluster.lose_shard(LOST)
    moved = cluster.rebalance()
    after = {k: cluster.place(k) for k in range(N_KEYS)}
    changed = {k for k in range(N_KEYS) if before[k] != after[k]}
    assert changed == {k for k in range(N_KEYS) if before[k] == LOST}
    assert moved == len(changed)
    assert LOST not in cluster.ring
    assert all(after[k] != LOST for k in range(N_KEYS))
    # The cluster still serves every key.
    for k in sorted(changed)[:8]:
        result = cluster.serve(k)
        assert result.shard_id != LOST


def test_chaos_run_is_deterministic():
    schedule = generate_schedule(TRAFFIC)
    chaos = _knockout_chaos(schedule)
    r1, v1 = run_serving(_cluster("aifm"), schedule, chaos)
    r2, v2 = run_serving(_cluster("aifm"), schedule, chaos)
    assert r1.to_dict() == r2.to_dict()
    assert v1 == v2


def test_degraded_writes_are_not_durable():
    cluster = _cluster("aifm")
    key = next(k for k in range(N_KEYS) if cluster.place(k) == LOST)
    first = cluster.serve(key, write=True)
    assert not first.degraded
    durable = cluster.read_value(key)
    cluster.lose_shard(LOST)
    lost_write = cluster.serve(key, write=True)
    assert lost_write.degraded
    # The acknowledged value diverges from the durable store.
    assert cluster.read_value(key) == durable


def test_cannot_lose_the_last_shard():
    cluster = ShardedCluster(ClusterConfig(n_shards=1, n_keys=16))
    with pytest.raises(RuntimeConfigError):
        cluster.lose_shard(0)
    multi = _cluster("aifm")
    multi.lose_shard(0)
    multi.lose_shard(2)
    multi.lose_shard(3)
    with pytest.raises(RuntimeConfigError):
        multi.lose_shard(1)


def test_join_shard_migrates_with_evacuator():
    cluster = _cluster("aifm", local_memory=8 * 1024)
    schedule = generate_schedule(
        TrafficConfig(clients=10, requests_per_client=30, n_keys=N_KEYS, seed=5)
    )
    report, values_before = run_serving(cluster, schedule)
    del report
    placement_before = {k: cluster.place(k) for k in range(N_KEYS)}
    new_sid = cluster.join_shard()
    assert new_sid == N_SHARDS
    moved = {
        k for k in range(N_KEYS) if cluster.place(k) != placement_before[k]
    }
    assert moved, "a joining shard must take over some keys"
    # Every moved key kept its durable value through the migration.
    for k in moved:
        assert cluster.read_value(k) == values_before[k]
    assert cluster.stats.migrated_keys == len(moved)


@pytest.mark.parametrize("replication", [1, 2])
def test_join_leaves_no_two_live_keys_in_one_slot(replication):
    """``join_shard`` drops the keys that moved off live sources.  A new
    key on such a source must not take an offset a live key still
    holds: freed slots are reused, and every slot stays in the heap."""
    cluster = ShardedCluster(ClusterConfig(
        n_shards=4, n_keys=512, runtime="trackfm", seed=3,
        replication=replication,
    ))
    for key in range(0, 512, 2):
        cluster.serve(key, write=True)
    cluster.join_shard()
    for key in range(1, 512, 2):
        cluster.serve(key)
    heap = cluster.config.shard_heap_bytes
    for sid, shard in sorted(cluster.shards.items()):
        offsets = sorted(shard.slots.values())
        assert len(offsets) == len(set(offsets)), f"shard {sid} shares a slot"
        assert all(0 <= off and off + SLOT_BYTES <= heap for off in offsets)
    for key in range(512):
        expected = default_value(key)
        if key % 2 == 0:
            expected = next_value(key, expected)
        assert cluster.read_value(key) == expected


def test_dropped_slots_are_reused_lowest_first():
    shard = ShardedCluster(ClusterConfig(n_shards=1, n_keys=8)).shards[0]
    assert [shard.slot_of(key) for key in range(4)] == [0, 8, 16, 24]
    shard.drop_key(2)
    shard.drop_key(0)
    assert shard.slot_of(2) == 0  # the lowest freed offset first
    assert shard.slot_of(5) == 16
    assert shard.slot_of(6) == 32  # nothing free: the heap grows
    assert shard.slot_of(5) == 16  # a placed key keeps its slot


# -- replicated clusters (R >= 2): lossless knockout survival ---------------


def test_replicated_knockout_loses_no_data():
    """The headline replication guarantee: with R=2, a single-shard
    knockout re-seeds **zero** keys and every final value — including
    the dead shard's — is identical to the fault-free run.  Detection
    is heartbeat-driven (the scripted rebalance arrives after failover
    already happened and becomes a no-op)."""
    schedule = generate_schedule(TRAFFIC)
    _base_report, base_values = run_serving(
        _cluster("aifm", replication=2), schedule
    )
    cluster = _cluster("aifm", replication=2)
    report, values = run_serving(cluster, schedule, _knockout_chaos(schedule))
    assert report.requests == len(schedule)
    stats = report.cluster_stats
    assert stats["lost_shards"] == 1
    assert stats["reseeded_keys"] == 0
    assert stats["failovers"] == 1
    assert stats["promoted_keys"] > 0
    assert stats["rebalances"] == 0  # detection beat the scripted rebalance
    mismatched = [k for k in range(N_KEYS) if values[k] != base_values[k]]
    assert mismatched == [], "replication must make shard loss invisible"


def test_replicated_failover_accounting_exact():
    cluster = _cluster("aifm", replication=2)
    affected = [k for k in range(N_KEYS) if LOST in cluster.replicas(k)]
    assert affected and len(affected) < N_KEYS
    for k in range(N_KEYS):
        cluster.serve(k, write=True)
    cluster.lose_shard(LOST)
    moved = cluster.failover([LOST])
    # Exactly the keys replicated on the dead shard move, each promoting
    # one fresh copy onto its replacement replica (R=2: one survivor).
    assert moved == len(affected)
    assert cluster.stats.failovers == 1
    assert cluster.stats.promoted_keys == len(affected)
    assert cluster.stats.reseeded_keys == 0
    assert LOST not in cluster.ring
    merged = cluster.merged_metrics()
    assert merged.failovers == 1
    assert merged.replica_writes > 0
    # Every key — the dead shard's included — kept its one-write chain.
    for k in range(N_KEYS):
        assert cluster.read_value(k) == next_value(k, default_value(k))
    # Failover left nothing stale behind.
    assert cluster.anti_entropy() == 0


def test_gray_partition_heals_via_anti_entropy():
    """A partitioned shard keeps answering heartbeats, so the detector
    stays silent and its replicas silently go stale; after the links
    heal, one anti-entropy sweep reconciles them and the run's final
    values match fault-free exactly."""
    schedule = generate_schedule(TRAFFIC)
    end = float(schedule.times[-1])
    victim = 2
    chaos = [
        ChaosAction(end * 0.25, "partition", victim),
        ChaosAction(end * 0.70, "heal", victim),
        ChaosAction(end * 0.75, "anti_entropy"),
    ]
    _base_report, base_values = run_serving(
        _cluster("aifm", replication=2), schedule
    )
    cluster = _cluster("aifm", replication=2)
    report, values = run_serving(cluster, schedule, chaos)
    stats = report.cluster_stats
    assert stats["partitions"] == 1
    assert stats["healed_stale_replicas"] > 0
    assert "failovers" not in stats, "a gray partition must not trip failover"
    assert values == base_values
    assert cluster.anti_entropy() == 0  # converged


def test_suspected_primary_queues_requests_at_the_coordinator():
    """With ``auto_failover=False`` a suspected primary stays in its
    replica set, so requests for its keys are served by the next
    replica (the coordinator).  They must queue behind each other on
    the coordinator: requests arriving together complete one after
    another, not all after their own service time."""
    import numpy as np

    from repro.serve import Schedule, ServingSimulation

    cluster = _cluster(
        "aifm", replication=2, auto_failover=False,
        heartbeat_interval_cycles=10.0, suspicion_threshold=1,
    )
    key = 0
    primary = cluster.place(key)
    n, arrival = 8, 1_000.0
    schedule = Schedule(
        config=TRAFFIC,
        times=np.full(n, arrival),
        clients=np.arange(n, dtype=np.int64),
        tenants=np.zeros(n, dtype=np.int64),
        keys=np.full(n, key, dtype=np.int64),
        writes=np.zeros(n, dtype=bool),
    )
    sim = ServingSimulation(cluster, schedule, [ChaosAction(1.0, "lose", primary)])
    report = sim.run()
    assert primary in cluster.detector.suspected
    assert cluster.place(key) == primary, "no failover: the primary keeps its slot"
    coordinator = cluster.shards[cluster.replicas(key)[1]]
    assert coordinator.requests == n and cluster.shards[primary].requests == 0
    # Every service cycle was charged to the coordinator, one request
    # after another: the last completion is the arrival plus all of them.
    assert report.makespan_cycles == pytest.approx(arrival + coordinator.metrics.cycles)


def test_replicated_chaos_run_is_deterministic():
    schedule = generate_schedule(TRAFFIC)
    chaos = _knockout_chaos(schedule)
    r1, v1 = run_serving(_cluster("aifm", replication=2), schedule, chaos)
    r2, v2 = run_serving(_cluster("aifm", replication=2), schedule, chaos)
    assert r1.to_dict() == r2.to_dict()
    assert v1 == v2


@pytest.mark.parametrize(
    "runtime", ["aifm", "trackfm", "fastswap", "hybrid", "adaptive"]
)
def test_replication_counters_survive_every_runtime_kind(runtime):
    """Fault-free R=2 (write-all, read-one): one quorum read per read and
    one replica write per write, whatever the shard's runtime.  A static
    hybrid's ``metrics`` is a merged copy, so its shards must book these
    counters on the hybrid layer's own bundle."""
    schedule = generate_schedule(TRAFFIC)
    report, _ = run_serving(_cluster(runtime, replication=2), schedule)
    writes = int(schedule.writes.sum())
    assert report.metrics["quorum_reads"] == len(schedule) - writes
    assert report.metrics["replica_writes"] == writes


def test_unreplicated_path_untouched_by_replication_plumbing():
    """R=1 reports keep their historical exact shape: no replication
    counters appear anywhere in a plain knockout run's report."""
    schedule = generate_schedule(TRAFFIC)
    cluster = _cluster("aifm")
    report, _ = run_serving(cluster, schedule, _knockout_chaos(schedule))
    stats = report.cluster_stats
    for key in ("failovers", "promoted_keys", "healed_stale_replicas",
                "partitions"):
        assert key not in stats
    for key in ("replica_writes", "quorum_reads", "read_repairs",
                "failovers", "stale_replicas_healed"):
        assert key not in report.metrics


#: Seeded chaos-schedule fuzzing: ``REPRO_SERVE_CHAOS_SEEDS`` widens the
#: corpus (the nightly fuzz workflow runs 25); the PR gate runs 3.  The
#: event-loop property below draws 20 examples per seed.
SERVE_CHAOS_SEEDS = list(
    range(int(os.environ.get("REPRO_SERVE_CHAOS_SEEDS", "3")))
)


@pytest.mark.parametrize("seed", SERVE_CHAOS_SEEDS)
def test_fuzz_replicated_partition_then_knockout(seed):
    """Seeded knockout+partition schedules: every combination of a gray
    partition (healed and reconciled) followed by a detector-driven
    knockout must re-seed nothing and end bit-identical to fault-free."""
    traffic = TrafficConfig(
        clients=20, requests_per_client=30, n_keys=N_KEYS, seed=101 + seed
    )
    schedule = generate_schedule(traffic)
    end = float(schedule.times[-1])
    victim = seed % N_SHARDS
    partitioned = (victim + 1 + seed // N_SHARDS) % N_SHARDS
    if partitioned == victim:
        partitioned = (victim + 1) % N_SHARDS
    chaos = [
        ChaosAction(end * 0.15, "partition", partitioned),
        ChaosAction(end * 0.35, "heal", partitioned),
        ChaosAction(end * 0.40, "anti_entropy"),
        ChaosAction(end * 0.60, "lose", victim),
    ]
    _base_report, base_values = run_serving(
        _cluster("aifm", replication=2), schedule
    )
    cluster = _cluster("aifm", replication=2)
    report, values = run_serving(cluster, schedule, chaos)
    assert report.requests == len(schedule)
    stats = report.cluster_stats
    assert stats["reseeded_keys"] == 0
    assert stats["failovers"] == 1
    assert stats["partitions"] == 1
    assert values == base_values
    assert cluster.anti_entropy() == 0


# -- the event loop against a plain reference driver ------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

#: Arrival times are rounded to this grid so arrivals tie with chaos
#: actions, heartbeat ticks and sweeps (all placed on the same grid).
_GRID = 50_000.0


def _apply_chaos(cluster: ShardedCluster, action: ChaosAction) -> None:
    if action.action == "lose":
        cluster.lose_shard(action.shard)
    elif action.action == "partition":
        cluster.partition_shard(action.shard)
    elif action.action == "heal":
        cluster.heal_shard(action.shard)
    elif action.action == "rebalance":
        cluster.rebalance()
    else:
        cluster.anti_entropy()


def _reference_run(cluster: ShardedCluster, schedule, chaos):
    """The serving event loop, written plainly.

    Before each arrival, every chaos action, heartbeat tick and sweep
    due by then fires in time order (ties: chaos, then heartbeat, then
    sweep); the request goes through the public ``cluster.serve`` and
    queues at the shard that served it.  After the last arrival the
    rest of the script runs, the detector trails for one threshold of
    ticks and, with periodic sweeps configured, one closing sweep runs.
    Returns ``(completions fingerprint, makespan, final values)``.
    """
    config = cluster.config
    pending = sorted(chaos, key=lambda a: (a.at_cycles, a.action))
    last_action = pending[-1].at_cycles if pending else None
    hb_every = config.heartbeat_interval_cycles if config.replicated else None
    ae_every = config.anti_entropy_interval_cycles if config.replicated else None
    next_tick = {"hb": hb_every, "ae": ae_every}

    def fire_due(until: float) -> None:
        while True:
            due = []
            if pending and pending[0].at_cycles <= until:
                due.append((pending[0].at_cycles, 0))
            if next_tick["hb"] is not None and next_tick["hb"] <= until:
                due.append((next_tick["hb"], 1))
            if next_tick["ae"] is not None and next_tick["ae"] <= until:
                due.append((next_tick["ae"], 2))
            if not due:
                return
            _at, which = min(due)
            if which == 0:
                _apply_chaos(cluster, pending.pop(0))
            elif which == 1:
                cluster.tick()
                next_tick["hb"] += hb_every
            else:
                cluster.anti_entropy()
                next_tick["ae"] += ae_every

    busy_until = {}
    makespan = 0.0
    fingerprint = _FNV_OFFSET
    for now, _client, tenant, key, write in schedule.rows():
        fire_due(now)
        result = cluster.serve(key, tenant=tenant, write=write)
        sid = result.shard_id
        start = max(now, busy_until.get(sid, 0.0))
        completion = start + result.service_cycles
        busy_until[sid] = completion
        makespan = max(makespan, completion)
        shard = cluster.shards[sid]
        shard.requests += 1
        shard.latency.record(completion - now)
        token = result.value + sid + (1 if result.degraded else 2)
        fingerprint = ((fingerprint ^ token) * _FNV_PRIME) & _MASK64
    if last_action is not None:
        fire_due(last_action)
    while pending:
        _apply_chaos(cluster, pending.pop(0))
    if config.replicated:
        for _ in range(config.suspicion_threshold):
            cluster.tick()
        if ae_every is not None:
            cluster.anti_entropy()
    values = {key: cluster.read_value(key) for key in range(config.n_keys)}
    return fingerprint, makespan, values


@st.composite
def _chaos_scripts(draw, n_shards: int, end: float):
    """A valid script of lose/partition/heal/anti_entropy/rebalance
    actions on the arrival grid, some of them past the last arrival.

    Shards are chosen in the order the simulation fires the script,
    among the ones the action is valid for: a shard is lost or
    partitioned only while it is neither, healed only while
    partitioned, and one shard always stays unlost.
    """
    slots = int(end * 1.2 // _GRID)
    drawn = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=slots),
            # Partitions and heals weigh double: a sweep matters only
            # once a healed replica is stale.
            st.sampled_from([
                "lose", "partition", "partition", "heal", "heal",
                "anti_entropy", "rebalance",
            ]),
            st.integers(min_value=0, max_value=n_shards - 1),
        ),
        max_size=8,
    ))
    lost, partitioned, script = set(), set(), []
    for slot, action, pick in sorted(drawn, key=lambda d: (d[0], d[1])):
        shard = None
        if action in ("lose", "partition", "heal"):
            if action == "heal":
                eligible = sorted(partitioned)
            else:
                eligible = [
                    sid for sid in range(n_shards)
                    if sid not in lost and sid not in partitioned
                ]
                if action == "lose" and len(lost) + 1 >= n_shards:
                    eligible = []
            if not eligible:
                continue
            shard = eligible[pick % len(eligible)]
            {"lose": lost.add, "partition": partitioned.add,
             "heal": partitioned.discard}[action](shard)
        script.append(ChaosAction(slot * _GRID, action, shard))
    return script


_LOOP_TRAFFIC = TrafficConfig(
    clients=6, requests_per_client=15, n_keys=64, write_fraction=0.4
)


@given(
    data=st.data(),
    runtime=st.sampled_from(RUNTIME_KINDS),
    replication=st.sampled_from([1, 2, 3]),
    traffic_seed=st.integers(min_value=0, max_value=7),
    heartbeat_slots=st.integers(min_value=1, max_value=150),
    sweep_slots=st.one_of(st.none(), st.integers(min_value=2, max_value=60)),
    threshold=st.integers(min_value=1, max_value=3),
)
@settings(
    max_examples=20 * len(SERVE_CHAOS_SEEDS),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_event_loop_matches_a_plain_reference_driver(
    data, runtime, replication, traffic_seed, heartbeat_slots, sweep_slots,
    threshold,
):
    """``ServingSimulation.run`` polls the control plane only when
    something is due and books latency inline; a driver that checks
    before every arrival must see the very same run."""
    base = generate_schedule(dataclasses.replace(_LOOP_TRAFFIC, seed=traffic_seed))
    schedule = dataclasses.replace(
        base, times=np.round(base.times / _GRID) * _GRID
    )
    end = float(schedule.times[-1])
    chaos = data.draw(_chaos_scripts(N_SHARDS, end))
    config = ClusterConfig(
        n_shards=N_SHARDS,
        n_keys=_LOOP_TRAFFIC.n_keys,
        runtime=runtime,
        local_memory=512,
        replication=replication,
        heartbeat_interval_cycles=heartbeat_slots * _GRID,
        suspicion_threshold=threshold,
        anti_entropy_interval_cycles=(
            None if sweep_slots is None else sweep_slots * _GRID
        ),
    )
    simulated = ShardedCluster(config)
    sim = ServingSimulation(simulated, schedule, chaos)
    report = sim.run()
    reference = ShardedCluster(config)
    fingerprint, makespan, values = _reference_run(reference, schedule, chaos)

    assert report.completions_fingerprint == fingerprint
    assert report.makespan_cycles == makespan
    assert sorted(simulated.shards) == sorted(reference.shards)
    for sid, shard in reference.shards.items():
        twin = simulated.shards[sid]
        assert twin.requests == shard.requests
        assert twin.latency.to_dict() == shard.latency.to_dict()
    assert simulated.stats.as_dict() == reference.stats.as_dict()
    assert simulated.merged_metrics().as_dict() == reference.merged_metrics().as_dict()
    assert sim.final_values == values
