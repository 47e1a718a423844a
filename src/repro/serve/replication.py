"""Replication primitives for the sharded serving layer.

Three small pieces, all deterministic:

* :func:`resolve_quorums` — the W/R quorum math.  A key is replicated
  on ``R = min(replication, n_shards)`` distinct shards; a write is
  *committed* once ``W`` replicas applied it, a read consults ``Rq``
  replicas, and ``W + Rq > R`` guarantees every read quorum intersects
  every committed write quorum (pigeonhole), so the max version tag a
  read sees is at least the latest committed one.  Defaults are the
  primary-backup posture: write-all (``W = R``), read-one (``Rq = 1``).
* :class:`ReplicaTag` — the per-key, per-replica version metadata: a
  monotonically increasing write version plus the integrity layer's
  ``object_checksum(key, version)`` tag, carried next to the value so
  failover promotion and anti-entropy can verify what they copy.
* :class:`HeartbeatChannel` / :class:`FailureDetector` — suspicion by
  missed heartbeats instead of an oracle.  Each shard's channel rolls
  probe fates on a splitmix64-reseeded variant of the shard's own
  :class:`~repro.net.faults.FaultPlan` (its own counter, so probes
  never perturb the data links' schedules); ``threshold`` consecutive
  misses mark the shard *suspected*, which is what triggers failover.
  A knocked-out shard's channel goes dark (`down`), so detection is a
  consequence of the loss, not a side channel that knows about it.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import RuntimeConfigError
from repro.integrity.checksum import ChecksumCodec
from repro.net.faults import FaultPlan

#: Seed salt separating heartbeat probe rolls from data-link schedules.
HEARTBEAT_SEED_SALT = 0x48B2


def resolve_quorums(
    replication: int,
    write_quorum: Optional[int] = None,
    read_quorum: Optional[int] = None,
) -> Tuple[int, int]:
    """Validated ``(W, Rq)`` for a replication factor.

    Defaults to write-all / read-one; any explicit pair must satisfy
    ``1 <= W <= R``, ``1 <= Rq <= R`` and the intersection condition
    ``W + Rq > R``.
    """
    if replication < 1:
        raise RuntimeConfigError(f"replication must be >= 1, got {replication}")
    w = replication if write_quorum is None else write_quorum
    rq = 1 if read_quorum is None else read_quorum
    if not 1 <= w <= replication:
        raise RuntimeConfigError(
            f"write_quorum must be in [1, {replication}], got {w}"
        )
    if not 1 <= rq <= replication:
        raise RuntimeConfigError(
            f"read_quorum must be in [1, {replication}], got {rq}"
        )
    if w + rq <= replication:
        raise RuntimeConfigError(
            f"quorums must intersect: W + R > N requires {w} + {rq} > {replication}"
        )
    return w, rq


#: One shared codec: replica tags are keyed like the integrity layer's
#: simulated-object tags (seed 0 is the process default there too).
_CODEC = ChecksumCodec(seed=0)


class ReplicaTag(NamedTuple):
    """Version metadata one replica holds for one key (immutable)."""

    version: int
    checksum: int

    @staticmethod
    def at(key: int, version: int) -> "ReplicaTag":
        """The tag of ``key`` at ``version``, its checksum computed now."""
        return _tag((version, _CODEC.object_checksum(key, version)))

    def verify(self, key: int) -> bool:
        """Does the checksum match ``(key, version)``?  A mismatch means
        a copy path handed over torn metadata — never expected; the
        repair paths assert it before trusting a source replica."""
        return self.checksum == _CODEC.object_checksum(key, self.version)


#: Builds a :class:`ReplicaTag` from a ``(version, checksum)`` tuple,
#: without the namedtuple ``__new__``'s frame (one per write).
_tag = partial(tuple.__new__, ReplicaTag)


#: The tag every key starts with (version 0 = the seeded default value).
def initial_tag(key: int) -> ReplicaTag:
    return ReplicaTag.at(key, 0)


class HeartbeatChannel:
    """The control-plane probe channel to one shard.

    Probe fates are rolled on a reseeded variant of the shard's fault
    plan — same loss model as the data links, independent counter — so
    a lossy fabric produces (deterministic) spurious misses the
    suspicion threshold must ride out.  ``down`` is set by knock-out:
    every probe afterwards is missed.
    """

    __slots__ = ("plan", "index", "down")

    def __init__(self, shard_id: int, plan: Optional[FaultPlan]) -> None:
        if plan is not None and not plan.is_noop:
            self.plan: Optional[FaultPlan] = plan.control_variant(
                shard_id, HEARTBEAT_SEED_SALT
            )
        else:
            self.plan = None
        self.index = 0
        self.down = False

    def probe(self) -> bool:
        """One heartbeat round-trip; True = the shard answered."""
        index = self.index
        self.index = index + 1
        if self.down:
            return False
        if self.plan is None:
            return True
        kind, _extra = self.plan.decide(index)
        return kind is None


class FailureDetector:
    """Consecutive-miss suspicion over per-shard heartbeat channels."""

    def __init__(self, threshold: int = 3) -> None:
        if threshold < 1:
            raise RuntimeConfigError(f"suspicion threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.channels: Dict[int, HeartbeatChannel] = {}
        self.misses: Dict[int, int] = {}
        self.suspected: set = set()

    def watch(self, shard_id: int, channel: HeartbeatChannel) -> None:
        self.channels[shard_id] = channel
        self.misses[shard_id] = 0

    def is_suspected(self, shard_id: int) -> bool:
        return shard_id in self.suspected

    def tick(self) -> List[int]:
        """Probe every watched shard once; returns newly suspected ids."""
        newly: List[int] = []
        for sid in sorted(self.channels):
            if sid in self.suspected:
                continue
            if self.channels[sid].probe():
                self.misses[sid] = 0
                continue
            self.misses[sid] += 1
            if self.misses[sid] >= self.threshold:
                self.suspected.add(sid)
                newly.append(sid)
        return newly
