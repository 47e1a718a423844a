"""Property-based tests for the replication layer.

Four groups of guarantees, all stated as hypothesis properties:

* **replica placement** — ``HashRing.place_n`` yields distinct shards,
  is a pure function of the shard set, has size ``min(R, N)``, and its
  first element is the key's primary (``place``);
* **movement laws** — exact (not statistical) leave/join laws for
  replica *sets*: a leave only touches sets containing the leaver (drop
  the leaver, gain at most one survivor), a join only adds the joiner;
* **quorum math** — ``resolve_quorums`` accepts exactly the pairs with
  ``1 <= W, Rq <= R`` and ``W + Rq > R``, and on a live cluster every
  committed write is visible to every subsequent quorum read;
* **repair idempotence** — anti-entropy converges: a sweep that healed
  everything reachable leaves nothing for the next sweep, and a repeat
  read after a read-repair finds no remaining staleness;
* **the request path** — for every valid ``(R, W, Rq)`` with ``R <= 3``,
  through partitions, heals and a suspected replica, each request's
  value, version, acks and degraded bit match a per-replica dict model.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeConfigError
from repro.net.faults import FaultPlan
from repro.serve.cluster import ClusterConfig, ShardedCluster, default_value, next_value
from repro.serve.replication import (
    FailureDetector,
    HeartbeatChannel,
    ReplicaTag,
    initial_tag,
    resolve_quorums,
)
from repro.serve.ring import HashRing, moved_replica_keys

SHARD_IDS = st.integers(min_value=0, max_value=0xFFFF)
SHARD_SETS = st.sets(SHARD_IDS, min_size=1, max_size=32)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
KEYS = st.lists(
    st.integers(min_value=0, max_value=2**31 - 1),
    min_size=1, max_size=100, unique=True,
)
REPLICATION = st.integers(min_value=1, max_value=5)


# -- replica placement ------------------------------------------------------


@given(shards=SHARD_SETS, seed=SEEDS, keys=KEYS, n=REPLICATION)
@settings(max_examples=60, deadline=None)
def test_replica_sets_distinct_sized_and_primary_first(shards, seed, keys, n):
    ring = HashRing(sorted(shards), seed=seed)
    for key in keys:
        reps = ring.place_n(key, n)
        assert len(reps) == len(set(reps)) == min(n, len(shards))
        assert all(sid in shards for sid in reps)
        assert reps[0] == ring.place(key)
    # n=1 degenerates to the historical single-owner placement.
    assert all(ring.place_n(k, 1) == (ring.place(k),) for k in keys)


@given(shards=SHARD_SETS, seed=SEEDS, keys=KEYS, n=REPLICATION)
@settings(max_examples=60, deadline=None)
def test_replica_placement_pure_function_of_shard_set(shards, seed, keys, n):
    ordered = HashRing(sorted(shards), seed=seed)
    reversed_ = HashRing(sorted(shards, reverse=True), seed=seed)
    assert ordered.placement(keys, n=n) == reversed_.placement(keys, n=n)


# -- movement laws ----------------------------------------------------------


@given(shards=st.sets(SHARD_IDS, min_size=2, max_size=32), seed=SEEDS,
       keys=KEYS, n=REPLICATION, data=st.data())
@settings(max_examples=60, deadline=None)
def test_leave_law_for_replica_sets(shards, seed, keys, n, data):
    ring = HashRing(sorted(shards), seed=seed)
    before = {k: ring.place_n(k, n) for k in keys}
    leaver = data.draw(st.sampled_from(sorted(shards)))
    ring.remove_shard(leaver)
    after = {k: ring.place_n(k, n) for k in keys}
    moved = {key for key, _, _ in moved_replica_keys(before, after)}
    for key in keys:
        old, new = set(before[key]), set(after[key])
        if leaver not in old:
            assert new == old, f"key {key} moved but {leaver} was not a replica"
            assert key not in moved
        else:
            # Loses exactly the leaver; gains at most one survivor.
            assert leaver not in new
            assert old - {leaver} <= new
            assert len(new - old) <= 1


@given(shards=SHARD_SETS, seed=SEEDS, keys=KEYS, n=REPLICATION,
       joiner=SHARD_IDS)
@settings(max_examples=60, deadline=None)
def test_join_law_for_replica_sets(shards, seed, keys, n, joiner):
    if joiner in shards:
        shards = shards - {joiner}
        if not shards:
            return
    ring = HashRing(sorted(shards), seed=seed)
    before = {k: ring.place_n(k, n) for k in keys}
    ring.add_shard(joiner)
    after = {k: ring.place_n(k, n) for k in keys}
    for key in keys:
        old, new = set(before[key]), set(after[key])
        assert new <= old | {joiner}
        if joiner not in new:
            assert new == old, f"key {key} reshuffled without adopting {joiner}"


@given(shards=SHARD_SETS, seed=SEEDS, keys=KEYS, n=REPLICATION,
       joiner=SHARD_IDS)
@settings(max_examples=40, deadline=None)
def test_moved_replica_keys_ignores_reordering(shards, seed, keys, n, joiner):
    ring = HashRing(sorted(shards), seed=seed)
    before = {k: ring.place_n(k, n) for k in keys}
    # Reordering a tuple is not movement: membership is what costs a copy.
    reordered = {k: tuple(reversed(v)) for k, v in before.items()}
    assert moved_replica_keys(before, reordered) == []
    if joiner not in shards:
        ring.add_shard(joiner)
        after = {k: ring.place_n(k, n) for k in keys}
        moved = {key for key, _, _ in moved_replica_keys(before, after)}
        assert moved == {
            k for k in keys if set(after[k]) != set(before[k])
        }


# -- quorum math ------------------------------------------------------------


@given(r=st.integers(min_value=1, max_value=8),
       w=st.integers(min_value=-1, max_value=10),
       rq=st.integers(min_value=-1, max_value=10))
@settings(max_examples=200, deadline=None)
def test_resolve_quorums_accepts_exactly_intersecting_pairs(r, w, rq):
    valid = 1 <= w <= r and 1 <= rq <= r and w + rq > r
    if valid:
        assert resolve_quorums(r, w, rq) == (w, rq)
    else:
        with pytest.raises(RuntimeConfigError):
            resolve_quorums(r, w, rq)


@given(r=st.integers(min_value=1, max_value=8))
@settings(max_examples=20, deadline=None)
def test_resolve_quorums_defaults_write_all_read_one(r):
    w, rq = resolve_quorums(r)
    assert (w, rq) == (r, 1)
    assert w + rq > r


def test_resolve_quorums_rejects_nonpositive_replication():
    with pytest.raises(RuntimeConfigError):
        resolve_quorums(0)
    with pytest.raises(RuntimeConfigError):
        resolve_quorums(-1)


@st.composite
def quorum_pairs(draw):
    """(replication, write_quorum, read_quorum) with W + Rq > R."""
    r = draw(st.integers(min_value=2, max_value=3))
    w = draw(st.integers(min_value=1, max_value=r))
    rq = draw(st.integers(min_value=r - w + 1, max_value=r))
    return r, w, rq


@given(pair=quorum_pairs(), seed=SEEDS,
       writes=st.lists(st.integers(min_value=0, max_value=31),
                       min_size=1, max_size=24))
@settings(max_examples=25, deadline=None)
def test_committed_writes_visible_to_quorum_reads(pair, seed, writes):
    r, w, rq = pair
    cluster = ShardedCluster(ClusterConfig(
        n_shards=3, n_keys=32, seed=seed,
        replication=r, write_quorum=w, read_quorum=rq,
    ))
    expected = {key: default_value(key) for key in range(32)}
    for key in writes:
        result = cluster.serve(key, write=True)
        assert result.acks >= w
        expected[key] = next_value(key, expected[key])
        assert result.value == expected[key]
    # Every read quorum intersects every committed write quorum, so the
    # freshest version — and with it the deterministic value chain — is
    # always visible, regardless of which Rq replicas answer.
    for key in range(32):
        read = cluster.serve(key, write=False)
        assert read.value == expected[key]
        assert cluster.read_value(key) == expected[key]


# -- repair idempotence -----------------------------------------------------


@given(seed=SEEDS,
       writes=st.lists(st.integers(min_value=0, max_value=31),
                       min_size=1, max_size=16),
       victim=st.integers(min_value=0, max_value=2))
@settings(max_examples=15, deadline=None)
def test_anti_entropy_is_idempotent_after_partition(seed, writes, victim):
    cluster = ShardedCluster(ClusterConfig(
        n_shards=3, n_keys=32, seed=seed,
        replication=2, write_quorum=1, read_quorum=2,
    ))
    cluster.partition_shard(victim)
    for key in writes:
        cluster.serve(key, write=True)
    cluster.heal_shard(victim)
    cluster.anti_entropy()
    # Converged: a second sweep finds nothing stale, and the healed
    # replicas now agree with the authoritative value chain.
    assert cluster.anti_entropy() == 0
    for key in set(writes):
        assert cluster.serve(key, write=False).value == cluster.read_value(key)


@given(seed=SEEDS, key=st.integers(min_value=0, max_value=31))
@settings(max_examples=15, deadline=None)
def test_read_repair_is_idempotent(seed, key):
    cluster = ShardedCluster(ClusterConfig(
        n_shards=3, n_keys=32, seed=seed,
        replication=2, write_quorum=1, read_quorum=2,
    ))
    victim = cluster.replicas(key)[1]
    cluster.partition_shard(victim)
    cluster.serve(key, write=True)
    cluster.heal_shard(victim)
    cluster.serve(key, write=False)  # quorum read repairs the stale copy
    repairs = cluster.merged_metrics().read_repairs
    cluster.serve(key, write=False)  # nothing left to repair
    assert cluster.merged_metrics().read_repairs == repairs
    assert cluster.anti_entropy() == 0


# -- the request path against a per-replica model --------------------------

#: Every valid ``(R, W, Rq)`` with ``R <= 3``: ``W + Rq > R``.
VALID_QUORUMS = [
    (r, w, rq)
    for r in (1, 2, 3)
    for w in range(1, r + 1)
    for rq in range(1, r + 1)
    if w + rq > r
]

_MODEL_SHARDS = 4
#: Few keys, so reads find the replicas missed writes left stale; two
#: keys per object and one object of local memory, so accesses miss.
_MODEL_KEYS = 4


class _ReplicaModel:
    """Per-replica key -> ``(value, version)`` dicts plus the shard states
    the request path branches on; knows nothing of runtimes or costs.
    At R=1 nothing is ever suspected: there is no failure detector."""

    def __init__(self, write_quorum: int, read_quorum: int) -> None:
        self.write_quorum = write_quorum
        self.read_quorum = read_quorum
        self.copies = {sid: {} for sid in range(_MODEL_SHARDS)}
        self.lost: set = set()
        self.partitioned: set = set()
        self.suspected: set = set()
        self.read_repairs = 0

    def copy(self, sid: int, key: int):
        return self.copies[sid].get(key, (default_value(key), 0))

    def freshest(self, key: int, sids):
        best = self.copy(sids[0], key)
        for sid in sids[1:]:
            if self.copy(sid, key)[1] > best[1]:
                best = self.copy(sid, key)
        return best

    def reachable(self, sid: int) -> bool:
        return sid not in self.lost and sid not in self.partitioned

    def serve(self, key: int, write: bool, reps, shard_degraded):
        """``(shard_id, value, version, acks, degraded)`` of one request;
        ``shard_degraded`` = the shards whose runtimes degraded it."""
        routable = [sid for sid in reps if sid not in self.suspected] or list(reps)
        if write:
            previous, version = self.freshest(key, list(reps))
            value, version = next_value(key, previous), version + 1
            acks = 0
            degraded = False
            for sid in routable:
                degraded |= sid in shard_degraded or sid in self.lost
                if self.reachable(sid):
                    self.copies[sid][key] = (value, version)
                    acks += 1
            degraded |= acks < min(self.write_quorum, len(reps))
            return routable[0], value, version, acks, degraded
        targets = routable[: self.read_quorum]
        value, version = self.freshest(key, targets)
        for sid in targets:
            if self.copy(sid, key)[1] < version and self.reachable(sid):
                self.copies[sid][key] = (value, version)
                self.read_repairs += 1
        degraded = any(sid in shard_degraded for sid in targets)
        return routable[0], value, version, len(targets), degraded


#: ``(op, arg)``: ``arg`` is the key of a read, a write or a missed
#: write (one replica is partitioned for it, then healed), and
#: picks the shard of a partition, heal or suspicion among those it is
#: valid for.
_REQUEST_OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "read", "read", "write", "missed_write",
            "partition", "heal", "suspect",
        ]),
        st.integers(min_value=0, max_value=_MODEL_KEYS - 1),
    ),
    min_size=1, max_size=50,
)


@pytest.mark.parametrize("quorums", VALID_QUORUMS, ids=lambda q: "R%d-W%d-Rq%d" % q)
@given(seed=SEEDS, ops=_REQUEST_OPS)
@settings(max_examples=60, deadline=None)
def test_request_path_matches_a_per_replica_model(quorums, seed, ops):
    r, w, rq = quorums
    cluster = ShardedCluster(ClusterConfig(
        n_shards=_MODEL_SHARDS, n_keys=_MODEL_KEYS, seed=seed,
        object_size=16, local_memory=16,
        replication=r, write_quorum=w, read_quorum=rq,
        suspicion_threshold=1, auto_failover=False,
    ))
    model = _ReplicaModel(w, rq)

    def request(key, write):
        before = {
            sid: shard.metrics.degraded_accesses
            for sid, shard in cluster.shards.items()
        }
        result = cluster.serve(key, write=write)
        shard_degraded = {
            sid for sid, shard in cluster.shards.items()
            if shard.metrics.degraded_accesses > before[sid]
        }
        expected = model.serve(key, write, cluster.replicas(key), shard_degraded)
        assert (
            result.shard_id, result.value, result.version,
            result.acks, result.degraded,
        ) == expected, (key, write)

    def partition(sid):
        cluster.partition_shard(sid)
        model.partitioned.add(sid)

    def heal(sid):
        cluster.heal_shard(sid)
        model.partitioned.discard(sid)

    for op, arg in ops:
        up = [
            sid for sid in range(_MODEL_SHARDS)
            if sid not in model.lost and sid not in model.partitioned
        ]
        if op in ("read", "write"):
            request(arg, op == "write")
        elif op == "missed_write":
            reps = cluster.replicas(arg)
            missed = reps[arg % len(reps)]
            if missed in up:
                partition(missed)
                request(arg, True)
                heal(missed)
        elif op == "heal":
            if model.partitioned:
                heal(sorted(model.partitioned)[arg % len(model.partitioned)])
        elif op == "partition":
            if up:
                partition(up[arg % len(up)])
        elif up and len(model.lost) + 1 < _MODEL_SHARDS:
            # Suspect: knock the shard out; one missed heartbeat.
            sid = up[arg % len(up)]
            cluster.lose_shard(sid)
            cluster.tick()
            model.lost.add(sid)
            if r > 1:
                model.suspected.add(sid)
                assert cluster.detector.suspected == model.suspected
    # Every replica holds exactly the model's copies, and the cluster
    # booked exactly the model's read repairs.
    for sid, shard in cluster.shards.items():
        for key in range(_MODEL_KEYS):
            value, version = model.copy(sid, key)
            assert shard.store.get(key, default_value(key)) == value
            assert shard.version_of(key) == version
    assert cluster.merged_metrics().read_repairs == model.read_repairs


# -- tags and heartbeats ----------------------------------------------------


@given(key=st.integers(min_value=0, max_value=2**31 - 1),
       version=st.integers(min_value=0, max_value=2**20))
@settings(max_examples=100, deadline=None)
def test_replica_tag_verify_roundtrip(key, version):
    tag = ReplicaTag.at(key, version)
    assert tag.verify(key)
    assert not ReplicaTag(version=version + 1, checksum=tag.checksum).verify(key)
    assert initial_tag(key) == ReplicaTag.at(key, 0)


@given(shard_id=st.integers(min_value=0, max_value=0xFFFF), seed=SEEDS,
       drop=st.floats(min_value=0.0, max_value=0.9),
       probes=st.integers(min_value=1, max_value=64))
@settings(max_examples=50, deadline=None)
def test_heartbeat_channels_deterministic_and_independent(
    shard_id, seed, drop, probes
):
    plan = FaultPlan(seed=seed, drop_rate=drop)
    a = HeartbeatChannel(shard_id, plan)
    b = HeartbeatChannel(shard_id, plan)
    assert [a.probe() for _ in range(probes)] == [b.probe() for _ in range(probes)]
    # Probe fates never consume the data plan's counter.
    assert plan.decide(0) == FaultPlan(seed=seed, drop_rate=drop).decide(0)


@given(threshold=st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_detector_suspects_after_exactly_threshold_misses(threshold):
    detector = FailureDetector(threshold=threshold)
    channel = HeartbeatChannel(0, None)
    detector.watch(0, channel)
    channel.down = True
    for tick in range(1, threshold + 1):
        newly = detector.tick()
        assert newly == ([0] if tick == threshold else [])
    assert detector.is_suspected(0)
    assert detector.tick() == []  # suspicion is sticky, reported once
