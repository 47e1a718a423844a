"""The sharded cluster: one logical object pool across N far nodes.

Each shard is a complete far-memory stack — its own runtime (any of the
four models), its own :class:`~repro.net.backends.RemoteBackend` with a
private retry policy and circuit breaker, its own metrics bundle and
latency histogram.  Nothing mutable is shared between shards, which is
what makes a shard an *independent fault domain*: arming a dead fault
schedule on shard 3's link (``lose_shard``) trips only shard 3's
breaker, degrades only shard 3's requests, and leaves the other shards'
deterministic schedules untouched.

Keys are placed by the consistent-hash ring (``repro.serve.ring``);
each shard lazily assigns arriving keys to slots in its own heap, so a
shard only pays local-memory pressure for keys it actually owns.

**Data semantics.**  Each shard's key-value store models the far node's
durable contents.  One request path serves every replication factor R:
a key lives on R distinct shards (:meth:`HashRing.place_n`; at the
default R=1 a replica set of one), a write is applied to every routable
replica with a monotonic per-key version tag and *committed* once
``write_quorum`` replicas durably applied it (a lost or partitioned
replica applies nothing, so a write that lands on fewer is degraded:
acknowledged below quorum), and a read consults ``read_quorum``
replicas and takes the max version, healing stale ones inline (read
repair).  Losing a shard loses its copies: requests for its keys are
served *degraded* until ``rebalance()`` fails it over.  Failover
promotes a surviving replica losslessly; a key with no surviving
replica — at R=1, every key of the lost shard — re-seeds from its
initial value.  Keys whose replicas all survive never notice: the
chaos suite pins their values bit-identical to a fault-free run.

Only a replicated cluster (R >= 2) runs the heartbeat failure detector
(which fails dead shards over on its own) and anti-entropy sweeps
(which reconcile replicas a partition left stale), and only it books
the replication counters and ``replica`` trace events: R=1 reports
stay bit-identical to the historical unreplicated baselines, and
``python -m repro.bench serving --replication 2`` pins the replicated
posture.

Joining a shard moves keys *to* it; moved keys that are resident on a
surviving source are migrated through the source pool's evacuator
(dirty ones cross the wire), and the source frees their slots for the
keys it places next.

**Tenant quotas.**  Per-tenant local-memory quotas bound how much of a
shard's residency one tenant can hold: when a tenant exceeds its
object budget, its least-recently-used object is expelled through the
evacuator.  Quotas apply to object-granular tiers (AIFM, TrackFM, the
hybrid's object side); the kernel-paging tier has no per-tenant view,
exactly as a real cgroup-per-machine deployment would.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from itertools import filterfalse
from typing import AbstractSet, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import DataIntegrityError, RuntimeConfigError
from repro.hashing import splitmix64
from repro.machine.costs import AccessKind
from repro.net.backends import make_shard_backend
from repro.net.faults import FaultPlan
from repro.sim.metrics import Metrics
from repro.trace.histogram import StreamingHistogram
from repro.trace.tracer import NULL_TRACER
from repro.serve.replication import (
    FailureDetector,
    HeartbeatChannel,
    ReplicaTag,
    initial_tag,
    resolve_quorums,
)
from repro.serve.ring import HashRing
from repro.units import BASE_PAGE, KB, align_up

#: Bytes per key slot (one 64-bit value per key).
SLOT_BYTES = 8

#: Stall charged per degraded access on a lost shard (same knob as the
#: trace drivers' degraded mode).
DEGRADED_STALL_CYCLES = 1_000.0

_READ = AccessKind.READ
_WRITE = AccessKind.WRITE

RUNTIME_KINDS = ("aifm", "trackfm", "fastswap", "hybrid", "adaptive")


def default_value(key: int) -> int:
    """The value every key starts with (and re-seeds to after data loss)."""
    return splitmix64((key << 8) ^ 0xD1CE) & 0x7FFFFFFF


def next_value(key: int, previous: int) -> int:
    """The value after one write — pure in ``(key, previous)``, so a
    key's value is a function of how many writes reached durable state."""
    return (previous * 1009 + key + 1) & 0x7FFFFFFF


@dataclass(frozen=True)
class ClusterConfig:
    """Sizing and policy for one sharded serving cluster."""

    n_shards: int
    #: Distinct keys the cluster serves.
    n_keys: int
    #: Which runtime model each shard runs (``RUNTIME_KINDS``).
    runtime: str = "aifm"
    #: AIFM object size within each shard's pool.
    object_size: int = 256
    #: Local memory per shard (the constraint quotas carve up).
    local_memory: int = 8 * KB
    #: Per-tenant residency budget in bytes per shard (None = no quota).
    tenant_quota_bytes: Optional[int] = None
    #: Virtual nodes per shard on the placement ring.
    vnodes: int = 128
    seed: int = 0
    #: Optional base fault plan; each shard replays it under its own
    #: derived seed (independent fault domains).
    fault_plan: Optional[FaultPlan] = None
    degraded_stall_cycles: float = DEGRADED_STALL_CYCLES
    #: Replicas per key.  At 1 there is no failure detector, sweep or
    #: replication counter, so reports stay bit-identical to older
    #: unreplicated baselines.
    replication: int = 1
    #: Write/read quorum sizes; ``None`` = write-all / read-one.  Any
    #: explicit pair must satisfy ``W + R > replication``.
    write_quorum: Optional[int] = None
    read_quorum: Optional[int] = None
    #: Failure-detector tuning: heartbeat cadence in simulated cycles
    #: and consecutive misses before a shard is suspected.
    heartbeat_interval_cycles: float = 200_000.0
    suspicion_threshold: int = 3
    #: Fail over suspected shards automatically at detection time.
    auto_failover: bool = True
    #: Background anti-entropy sweep cadence (None = only on demand).
    anti_entropy_interval_cycles: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise RuntimeConfigError("n_shards must be >= 1")
        if self.n_keys < 1:
            raise RuntimeConfigError("n_keys must be >= 1")
        if self.runtime not in RUNTIME_KINDS:
            raise RuntimeConfigError(
                f"unknown runtime kind {self.runtime!r}; have {RUNTIME_KINDS}"
            )
        if self.tenant_quota_bytes is not None and self.tenant_quota_bytes < self.object_size:
            raise RuntimeConfigError("tenant quota smaller than one object")
        # Validates replication >= 1 and quorum intersection eagerly.
        resolve_quorums(
            self.effective_replication, self.write_quorum, self.read_quorum
        )
        if self.heartbeat_interval_cycles <= 0:
            raise RuntimeConfigError("heartbeat_interval_cycles must be > 0")
        if self.suspicion_threshold < 1:
            raise RuntimeConfigError("suspicion_threshold must be >= 1")
        if (
            self.anti_entropy_interval_cycles is not None
            and self.anti_entropy_interval_cycles <= 0
        ):
            raise RuntimeConfigError("anti_entropy_interval_cycles must be > 0")

    @property
    def effective_replication(self) -> int:
        """Replicas a key actually gets (bounded by the shard count)."""
        if self.replication < 1:
            return self.replication  # let resolve_quorums raise
        return min(self.replication, self.n_shards)

    @property
    def replicated(self) -> bool:
        return self.effective_replication > 1

    @property
    def quorums(self) -> Tuple[int, int]:
        """The resolved ``(write_quorum, read_quorum)`` pair."""
        return resolve_quorums(
            self.effective_replication, self.write_quorum, self.read_quorum
        )

    @property
    def shard_heap_bytes(self) -> int:
        """Each shard's heap must be able to host *every* key: after
        enough losses one survivor may own the whole keyspace."""
        return align_up(max(self.n_keys * SLOT_BYTES, self.object_size), self.object_size)

    @property
    def tenant_quota_objects(self) -> Optional[int]:
        if self.tenant_quota_bytes is None:
            return None
        return max(1, self.tenant_quota_bytes // self.object_size)


class Shard:
    """One far node: a runtime, its fault domain, and its key slots."""

    def __init__(self, shard_id: int, config: ClusterConfig) -> None:
        self.shard_id = shard_id
        self.config = config
        self.lost = False
        #: Data links dropped (reversible), control plane still up —
        #: the gray-failure regime anti-entropy exists for.
        self.partitioned = False
        #: key -> heap offset of its slot in this shard's heap.
        self.slots: Dict[int, int] = {}
        #: Offsets :meth:`drop_key` freed (a min-heap: reused lowest
        #: first), and the first offset no key has held yet.
        self._free_slots: List[int] = []
        self._next_slot = 0
        #: The far node's durable contents (key -> value).
        self.store: Dict[int, int] = {}
        #: Per-key replica metadata (monotonic write version + the
        #: integrity layer's object checksum), kept next to the value.
        #: A key's tag is written and dropped together with its value,
        #: so a key has a tag exactly when it has a value.
        self.tags: Dict[int, ReplicaTag] = {}
        #: The control-plane probe channel the failure detector polls.
        self.heartbeat = HeartbeatChannel(shard_id, config.fault_plan)
        self._saved_faults: Optional[list] = None
        #: End-to-end request latency (queue wait + service), cycles.
        self.latency = StreamingHistogram()
        self.requests = 0
        #: Per-tenant residency tracking for quota enforcement:
        #: obj -> owning tenant, and per tenant an LRU of its objects.
        self._obj_tenant: Dict[int, int] = {}
        self._tenant_lru: Dict[int, OrderedDict] = {}
        # Fixed by the (frozen) config; read on every request.
        self._kind = config.runtime
        self._quota = config.tenant_quota_objects
        self._heap_bytes = config.shard_heap_bytes
        self._build_runtime()

    # -- runtime adapters ---------------------------------------------------

    def _build_runtime(self) -> None:
        config = self.config
        plan = config.fault_plan
        heap = self._heap_bytes
        if config.runtime == "aifm":
            from repro.aifm.pool import PoolConfig
            from repro.aifm.runtime import AIFMRuntime

            self.runtime = AIFMRuntime(
                PoolConfig(
                    object_size=config.object_size,
                    local_memory=config.local_memory,
                    heap_size=heap,
                ),
                backend=make_shard_backend("tcp", self.shard_id, plan),
            )
            self.runtime.allocate(heap)
            self._base = 0
        elif config.runtime == "trackfm":
            from repro.aifm.pool import PoolConfig
            from repro.trackfm.runtime import TrackFMRuntime

            self.runtime = TrackFMRuntime(
                PoolConfig(
                    object_size=config.object_size,
                    local_memory=config.local_memory,
                    heap_size=heap,
                ),
                backend=make_shard_backend("tcp", self.shard_id, plan),
            )
            self._base = self.runtime.tfm_malloc(heap)
        elif config.runtime == "fastswap":
            from repro.fastswap.runtime import FastswapConfig, FastswapRuntime

            # The kernel-paging tier needs at least one page of both
            # local memory and heap, whatever the cluster sizing says.
            page_heap = max(heap, BASE_PAGE)
            self.runtime = FastswapRuntime(
                FastswapConfig(
                    local_memory=max(config.local_memory, BASE_PAGE),
                    heap_size=page_heap,
                ),
                backend=make_shard_backend("rdma", self.shard_id, plan),
            )
            self._base = self.runtime.allocate(heap)
        elif config.runtime == "adaptive":
            from repro.hybrid.runtime import AdaptiveHybridRuntime

            # A TrackFM-shaped shard whose guards route per-region: the
            # selector moves hot slot regions onto the page tier online.
            self.runtime = AdaptiveHybridRuntime(
                local_memory=max(config.local_memory, 2 * BASE_PAGE),
                heap_size=max(heap, BASE_PAGE),
                object_size=config.object_size,
                object_backend=make_shard_backend("tcp", self.shard_id, plan),
                page_backend=make_shard_backend("rdma", self.shard_id, plan),
            )
            self._base = self.runtime.tfm_malloc(heap)
        else:  # hybrid
            from repro.hybrid.runtime import HybridRuntime, Placement

            page_heap = max(heap, BASE_PAGE)
            self.runtime = HybridRuntime(
                local_memory=max(config.local_memory, 2 * BASE_PAGE),
                heap_size=page_heap,
                object_size=config.object_size,
                object_backend=make_shard_backend("tcp", self.shard_id, plan),
                page_backend=make_shard_backend("rdma", self.shard_id, plan),
            )
            half = max(config.object_size, align_up(heap // 2, config.object_size))
            self._obj_handle = self.runtime.allocate(half, Placement.OBJECTS)
            self._page_handle = self.runtime.allocate(max(heap - half, SLOT_BYTES), Placement.PAGES)
            self._obj_half = half
            self._base = 0
        #: The runtime's own writable bundle, where the cluster books its
        #: replication counters.  A static hybrid's ``metrics`` is a fresh
        #: merged copy on every read, so its counters go to the hybrid
        #: layer's ``extra_metrics``, which that merge includes.
        self.counters: Metrics = (
            self.runtime.extra_metrics if config.runtime == "hybrid" else self.runtime.metrics
        )
        #: Bound once: every request calls it.
        self._access = self.runtime.access
        self._enable_degraded()

    def _enable_degraded(self) -> None:
        stall = self.config.degraded_stall_cycles
        runtime = self.runtime
        if self.config.runtime == "hybrid":
            # The object tier's own rung is the page-tier fallback; the
            # page tier still needs a local degraded mode for a total
            # shard outage.
            runtime.fastswap.enable_degraded_mode(stall_cycles=stall)
        else:
            runtime.enable_degraded_mode(stall_cycles=stall)

    @property
    def pool(self):
        """The shard's object pool, if its runtime kind has one."""
        if self.config.runtime in ("aifm", "trackfm", "adaptive"):
            return self.runtime.pool
        if self.config.runtime == "hybrid":
            return self.runtime.trackfm.pool
        return None

    @property
    def metrics(self) -> Metrics:
        return self.runtime.metrics

    def set_tracer(self, tracer) -> None:
        self.runtime.set_tracer(tracer)

    # -- slots --------------------------------------------------------------

    def slot_of(self, key: int) -> int:
        """Heap offset of ``key``'s slot (assigned on first placement).

        A new key takes the lowest offset a dropped key freed, and only
        grows the used part of the heap when none is free, so no two
        live keys share a slot and the heap (sized for every key) never
        runs out.
        """
        offset = self.slots.get(key)
        if offset is None:
            if self._free_slots:
                offset = heapq.heappop(self._free_slots)
            else:
                offset = self._next_slot
                if offset + SLOT_BYTES > self._heap_bytes:
                    raise RuntimeConfigError(
                        f"shard {self.shard_id} heap exhausted at key {key}"
                    )
                self._next_slot = offset + SLOT_BYTES
            self.slots[key] = offset
        return offset

    def drop_key(self, key: int) -> None:
        """Forget a key that moved away; its slot is freed for reuse."""
        offset = self.slots.pop(key, None)
        if offset is not None:
            heapq.heappush(self._free_slots, offset)
        self.store.pop(key, None)
        self.tags.pop(key, None)

    def version_of(self, key: int) -> int:
        """The write version this replica holds (0 = seeded default)."""
        tag = self.tags.get(key)
        return tag.version if tag is not None else 0

    def apply_write(self, key: int, value: int, tag: ReplicaTag) -> bool:
        """Apply a write to durable state; False = unreachable."""
        if self.lost or self.partitioned:
            return False
        self.store[key] = value
        self.tags[key] = tag
        return True

    # -- the service path ---------------------------------------------------

    def service(
        self, key: int, kind: AccessKind, tenant: int
    ) -> Tuple[float, bool]:
        """One request against this far node: ``(service cycles, degraded)``.

        ``degraded`` means the runtime served part of the request locally
        because the far node was unreachable: its own count of degraded
        accesses moved (on a static hybrid, the sum over its three
        bundles, so no merged copy is built).
        """
        offset = self.slots.get(key)
        if offset is None:
            offset = self.slot_of(key)
        if self._kind != "hybrid":
            counters = self.counters
            before = counters.degraded_accesses
            cycles = self._access(self._base + offset, kind, SLOT_BYTES)
            if self._quota is not None:
                cycles += self._enforce_quota(tenant, offset)
            return cycles, counters.degraded_accesses > before
        before = self._hybrid_degraded_accesses()
        if offset < self._obj_half:
            cycles = self._access(self._obj_handle, offset, kind, SLOT_BYTES)
        else:
            cycles = self._access(
                self._page_handle, offset - self._obj_half, kind, SLOT_BYTES
            )
        if self._quota is not None:
            cycles += self._enforce_quota(tenant, offset)
        return cycles, self._hybrid_degraded_accesses() > before

    def _hybrid_degraded_accesses(self) -> int:
        runtime = self.runtime
        return (
            runtime.trackfm.metrics.degraded_accesses
            + runtime.fastswap.metrics.degraded_accesses
            + runtime.extra_metrics.degraded_accesses
        )

    # -- tenant quotas ------------------------------------------------------

    def _enforce_quota(self, tenant: int, offset: int) -> float:
        quota = self._quota
        pool = self.pool
        if quota is None or pool is None:
            return 0.0
        if self._kind == "hybrid" and offset >= self._obj_half:
            # Page-tier slots have no per-tenant view (kernel paging).
            return 0.0
        obj_id = offset // self.config.object_size
        previous = self._obj_tenant.get(obj_id)
        if previous is not None and previous != tenant:
            self._tenant_lru.get(previous, OrderedDict()).pop(obj_id, None)
        self._obj_tenant[obj_id] = tenant
        lru = self._tenant_lru.setdefault(tenant, OrderedDict())
        lru.pop(obj_id, None)
        lru[obj_id] = None
        cycles = 0.0
        while len(lru) > quota:
            victim, _ = lru.popitem(last=False)
            self._obj_tenant.pop(victim, None)
            cycles += pool.expel(victim)
        return cycles

    def tenant_residency(self, tenant: int) -> int:
        """Objects currently attributed to ``tenant`` (quota view)."""
        return len(self._tenant_lru.get(tenant, ()))

    # -- fault domain -------------------------------------------------------

    def remote_backends(self) -> tuple:
        return self.runtime.remote_backends()

    def knock_out(self) -> None:
        """Arm a dead fault schedule on every link of this shard.

        The heartbeat channel goes dark too: suspicion is a consequence
        of the loss (missed probes), not an oracle flag the detector
        reads.  A loss overrides a partition: the link schedules the
        partition saved are dropped, so a lost shard is never healed.
        """
        dead = FaultPlan(seed=self.shard_id ^ 0xDEAD, drop_rate=1.0)
        for backend in self.remote_backends():
            backend.link.faults = dead.schedule()
        self.heartbeat.down = True
        self.lost = True
        self.partitioned = False
        self._saved_faults = None

    def partition(self) -> None:
        """Drop every data link, reversibly; heartbeats stay up.

        Models a gray failure: the node answers control-plane probes
        but its data path is unreachable, so the detector never fires,
        writes stop landing here, and the replica goes stale until
        :meth:`heal` + anti-entropy reconcile it.
        """
        if self.lost:
            raise RuntimeConfigError(f"shard {self.shard_id} is lost, not partitionable")
        if self.partitioned:
            raise RuntimeConfigError(f"shard {self.shard_id} already partitioned")
        backends = self.remote_backends()
        self._saved_faults = [backend.link.faults for backend in backends]
        cut = FaultPlan(seed=self.shard_id ^ 0x9A97, drop_rate=1.0)
        for backend in backends:
            backend.link.faults = cut.schedule()
        self.partitioned = True

    def heal(self) -> None:
        """Restore the data links a :meth:`partition` cut.  Raises for a
        shard that is not partitioned, a lost one included."""
        if not self.partitioned:
            raise RuntimeConfigError(f"shard {self.shard_id} is not partitioned")
        for backend, faults in zip(self.remote_backends(), self._saved_faults or ()):
            backend.link.faults = faults
        self._saved_faults = None
        self.partitioned = False


class RequestResult(NamedTuple):
    """What one served request did."""

    shard_id: int
    value: int
    service_cycles: float
    degraded: bool
    #: Version tag the request committed/observed (the key's write count).
    version: int = 0
    #: Replicas that durably applied a write (reads: replicas consulted).
    acks: int = 0


#: Builds a :class:`RequestResult` from a tuple of every field, without
#: the keyword-capable ``__new__`` or ``_make``'s frame (one per request).
_result = partial(tuple.__new__, RequestResult)


class _Seeds(dict):
    """Key -> :func:`default_value`, derived on a key's first lookup."""

    def __missing__(self, key: int) -> int:
        value = self[key] = default_value(key)
        return value


@dataclass
class ClusterStats:
    """Cluster-level event counters (shard metrics live on the shards)."""

    requests: int = 0
    degraded_requests: int = 0
    lost_shards: int = 0
    rebalances: int = 0
    #: Keys re-seeded from initial values after a loss: those with no
    #: surviving replica (at R=1, every lost key).  The chaos suite pins
    #: this at 0 for R>=2 single-shard knockouts.
    reseeded_keys: int = 0
    #: Keys migrated survivor → survivor through the evacuator (joins).
    migrated_keys: int = 0
    migration_cycles: float = 0.0
    #: Replication counters — serialized sparsely (only when nonzero)
    #: so unreplicated reports keep their historical exact form.
    #: Dead shards failed over by a replicated cluster.
    failovers: int = 0
    #: Replica copies materialized on new replica-set members at failover.
    promoted_keys: int = 0
    #: Stale replicas reconciled by anti-entropy sweeps.
    healed_stale_replicas: int = 0
    #: Gray partitions injected (data links cut, heartbeats alive).
    partitions: int = 0

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "requests": self.requests,
            "degraded_requests": self.degraded_requests,
            "lost_shards": self.lost_shards,
            "rebalances": self.rebalances,
            "reseeded_keys": self.reseeded_keys,
            "migrated_keys": self.migrated_keys,
            "migration_cycles": self.migration_cycles,
        }
        for key in (
            "failovers",
            "promoted_keys",
            "healed_stale_replicas",
            "partitions",
        ):
            value = getattr(self, key)
            if value:
                out[key] = value
        return out


class ShardedCluster:
    """N shards behind one consistent-hash ring."""

    def __init__(self, config: ClusterConfig, tracer=None) -> None:
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.shards: Dict[int, Shard] = {
            sid: Shard(sid, config) for sid in range(config.n_shards)
        }
        self.ring = HashRing(
            sorted(self.shards), vnodes=config.vnodes, seed=config.seed
        )
        #: Cached replica sets, primary first (kept exactly consistent
        #: with the ring).
        self._replica_sets: Dict[int, Tuple[int, ...]] = {}
        self.stats = ClusterStats()
        self._next_shard_id = config.n_shards
        # Fixed by the (frozen) config; read on every request.
        self._n_keys = config.n_keys
        #: Each key's seed value, memoized: a never-written read enters no frame.
        self._seeds = _Seeds()
        self._write_quorum, self._read_quorum = config.quorums
        # Only a replicated cluster detects failures on its own and books
        # the replication counters; R=1 reports keep their historical form.
        self._replicated = config.replicated
        #: Members per replica set: the configured factor (a set grows
        #: into it as shards join), or one when the cluster started too
        #: small to replicate — such a cluster stays unreplicated.
        self._copies = config.replication if self._replicated else 1
        self.detector: Optional[FailureDetector] = None
        #: Shards requests are routed around: the detector's own suspect
        #: set, which ticks and failover update in place (none at R=1).
        self._suspected: AbstractSet[int] = frozenset()
        if self._replicated:
            self.detector = FailureDetector(config.suspicion_threshold)
            self._suspected = self.detector.suspected
            for sid, shard in sorted(self.shards.items()):
                self.detector.watch(sid, shard.heartbeat)
        if tracer is not None:
            self.set_tracer(tracer)

    def set_tracer(self, tracer) -> None:
        self.tracer = tracer
        for shard in self.shards.values():
            shard.set_tracer(tracer)

    # -- placement ----------------------------------------------------------

    def place(self, key: int) -> int:
        """The key's primary shard."""
        return self.replicas(key)[0]

    def replicas(self, key: int) -> Tuple[int, ...]:
        """The key's replica set (primary first), cached until the ring
        changes."""
        reps = self._replica_sets.get(key)
        if reps is None:
            reps = self.ring.place_n(key, self._copies)
            self._replica_sets[key] = reps
        return reps

    def live_shards(self) -> List[int]:
        return [sid for sid, shard in sorted(self.shards.items()) if not shard.lost]

    def _routable(self, replicas: Tuple[int, ...]) -> Sequence[int]:
        """Replicas requests are sent to while one of them is suspected:
        the others (all of them when every one is suspected).

        Before the failure detector fires, a dead replica is still
        routed to (and pays degraded service) — suspicion, not an
        oracle, is what removes it from the request path.  While none
        of them is suspected, :meth:`serve` routes on the cached
        replica set itself.
        """
        suspected = self._suspected
        routable = [sid for sid in replicas if sid not in suspected]
        return routable if routable else list(replicas)

    # -- the request path ---------------------------------------------------

    def _freshest(
        self, key: int, shard_ids: Iterable[int]
    ) -> Tuple[int, Optional[ReplicaTag]]:
        """``(value, tag)`` of the max-version copy among ``shard_ids``
        (ties broken by iteration order — replica order, so two runs
        always agree).  ``tag`` is None when that copy was never
        written: the value is then the key's seed, at version 0."""
        shards = self.shards
        best = None
        best_tag = None
        best_version = -1
        for sid in shard_ids:
            shard = shards[sid]
            tag = shard.tags.get(key)
            version = 0 if tag is None else tag.version
            if version > best_version:
                best, best_tag, best_version = shard, tag, version
        if best_tag is None:
            return self._seeds[key], None
        return best.store[key], best_tag

    def serve(self, key: int, tenant: int = 0, write: bool = False) -> RequestResult:
        """Serve one request over the key's replica set.

        A write goes to every routable replica with a bumped version
        tag; it is *committed* once ``write_quorum`` replicas durably
        applied it, and fewer (a lost or partitioned replica applies
        nothing) make the request degraded: acknowledged, not durable.
        A read consults the first ``read_quorum`` routable replicas,
        returns the max-version value, and heals stale quorum members
        inline (read repair).  Never raises for a lost shard: its
        runtime serves in degraded mode, with a stall, counted in
        ``degraded_accesses``.  A read that hits host-local residency
        is *correct* even while the far node is down — not degraded.
        """
        if key < 0 or key >= self._n_keys:
            raise RuntimeConfigError(
                f"key {key} outside [0, {self._n_keys})"
            )
        reps = self._replica_sets.get(key)
        if reps is None:
            reps = self.replicas(key)
        suspected = self._suspected
        # No replica of this key suspected (always at R=1; at R >= 2
        # until one is, and again once failover has taken it off every
        # replica set): the cached set is the route.
        unsuspected = not suspected or suspected.isdisjoint(reps)
        if not write and self._read_quorum == 1 and unsuspected:
            # Read-one (every read at R=1, and the default at every R):
            # the primary's copy is the answer, and a quorum of one has
            # nothing to repair.  A suspect can exist only on a
            # replicated cluster, so the general path below would book
            # the same ``quorum_reads`` on the same shard.
            primary = reps[0]
            shard = self.shards[primary]
            cycles, degraded = shard.service(key, _READ, tenant)
            if self._replicated:
                shard.counters.quorum_reads += 1
            tag = shard.tags.get(key)
            self.stats.requests += 1
            if degraded:
                self.stats.degraded_requests += 1
            if tag is None:
                return _result((primary, self._seeds[key], cycles, degraded, 0, 1))
            return _result((primary, shard.store[key], cycles, degraded, tag.version, 1))
        routable = reps if unsuspected else self._routable(reps)
        coordinator = routable[0]
        shards = self.shards
        if write:
            previous, prev_tag = self._freshest(key, reps)
            value = next_value(key, previous)
            version = 1 if prev_tag is None else prev_tag.version + 1
            tag = ReplicaTag.at(key, version)
            cycles = 0.0
            degraded = False
            acks = 0
            for sid in routable:
                shard = shards[sid]
                service_cycles, shard_degraded = shard.service(key, _WRITE, tenant)
                cycles += service_cycles
                if shard_degraded or shard.lost:
                    degraded = True
                if shard.apply_write(key, value, tag):
                    acks += 1
                    if sid != coordinator:
                        shard.counters.replica_writes += 1
            if acks < self._write_quorum and acks < len(reps):
                degraded = True
        else:
            # A quorum read, or a read-one while a replica is suspected.
            targets = routable[: self._read_quorum]
            cycles = 0.0
            degraded = False
            for sid in targets:
                service_cycles, shard_degraded = shards[sid].service(key, _READ, tenant)
                cycles += service_cycles
                if shard_degraded:
                    degraded = True
            shards[coordinator].counters.quorum_reads += 1
            value, tag = self._freshest(key, targets)
            acks = len(targets)
            version = 0 if tag is None else tag.version
            # Read repair: stale quorum members adopt the winner.  A
            # key never written has nothing stale.
            if acks > 1 and version:
                for sid in targets:
                    shard = shards[sid]
                    if shard.version_of(key) < version and shard.apply_write(
                        key, value, tag
                    ):
                        shard.counters.read_repairs += 1
                        tracer = self.tracer
                        if tracer.enabled:
                            tracer.replica(
                                "read_repair", self._now(),
                                key=key, shard=sid, version=version,
                            )
        self.stats.requests += 1
        if degraded:
            self.stats.degraded_requests += 1
        return _result((coordinator, value, cycles, degraded, version, acks))

    def read_value(self, key: int) -> int:
        """The durable value of ``key`` right now (no cost accounting)."""
        return self.durable_values((key,))[0]

    def durable_values(self, keys: Optional[Iterable[int]] = None) -> List[int]:
        """The durable value of each of ``keys`` (every key of the
        keyspace by default) right now, in order, with no cost
        accounting: the freshest copy among the key's replicas that are
        not lost, or among all of them when every one is."""
        lost = {sid for sid, shard in self.shards.items() if shard.lost}
        not_lost = partial(filterfalse, lost.__contains__)
        replica_sets = self._replica_sets
        freshest = self._freshest
        values = []
        for key in range(self.config.n_keys) if keys is None else keys:
            reps = replica_sets.get(key) or self.replicas(key)
            if lost:
                reps = tuple(not_lost(reps)) or reps
            values.append(freshest(key, reps)[0])
        return values

    # -- chaos: loss, rebalance, join ---------------------------------------

    def lose_shard(self, shard_id: int) -> None:
        """The far node behind ``shard_id`` stops answering, mid-run."""
        shard = self.shards.get(shard_id)
        if shard is None or shard.lost:
            raise RuntimeConfigError(f"shard {shard_id} not live")
        if len(self.live_shards()) <= 1:
            raise RuntimeConfigError("cannot lose the last live shard")
        shard.knock_out()
        self.stats.lost_shards += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.serve("shard_lost", self._now(), shard=shard_id)

    def rebalance(self) -> int:
        """:meth:`failover` every lost shard still on the ring.

        Surviving replicas are promoted losslessly; a key with no
        surviving replica (at R=1, every key of a lost shard) re-seeds
        from its initial value — its write history died with the shard.
        Returns the number of keys whose placement moved.
        """
        lost = [sid for sid, shard in self.shards.items() if shard.lost and sid in self.ring]
        if not lost:
            return 0
        reseeded = self.stats.reseeded_keys
        moved = self.failover(lost)
        self.stats.rebalances += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.serve(
                "rebalance", self._now(),
                removed=sorted(lost), reseeded=self.stats.reseeded_keys - reseeded,
            )
        return moved

    def failover(self, shard_ids: Iterable[int]) -> int:
        """Remove dead shards from the ring and promote surviving replicas.

        For every key whose replica set intersected the dead set, the
        freshest *reachable* surviving copy (max version tag, verified
        against the integrity checksum) is copied onto the set's new
        members — lossless, so ``reseeded_keys`` stays untouched.  Only
        when every replica of a key died does the key re-seed from its
        initial value.  Keys whose replica sets did not contain a dead
        shard keep their sets verbatim (the :meth:`HashRing.place_n`
        leave law).  Only a replicated cluster counts ``failovers`` and
        traces the failover.  Returns the number of keys whose set
        changed.
        """
        dead = sorted({sid for sid in shard_ids if sid in self.ring})
        if not dead:
            return 0
        if len(self.ring) - len(dead) < 1:
            raise RuntimeConfigError("cannot fail over every ring member")
        for sid in dead:
            self.ring.remove_shard(sid)
            if self.detector is not None:
                # Routed around from now on, even if suspicion was a
                # false positive on a lossy control plane.
                self.detector.suspected.add(sid)
        dead_set = set(dead)
        moved = 0
        promoted = 0
        reseeded = 0
        for key in sorted(self._replica_sets):
            old = self._replica_sets[key]
            if dead_set.isdisjoint(old):
                continue
            new = self.ring.place_n(key, self._copies)
            self._replica_sets[key] = new
            moved += 1
            survivors = [
                sid for sid in old
                if sid not in dead_set
                and not self.shards[sid].lost
                and not self.shards[sid].partitioned
            ]
            if survivors:
                value, tag = self._freshest(key, survivors)
                if tag is None:
                    tag = initial_tag(key)
                if not tag.verify(key):
                    raise DataIntegrityError(
                        f"replica tag for key {key} failed verification at failover",
                        obj_id=key,
                    )
                for sid in new:
                    if sid in old:
                        continue
                    if self.shards[sid].apply_write(key, value, tag):
                        promoted += 1
            else:
                # Every replica died: the write history is gone.
                reseeded += 1
            for sid in old:
                if sid in dead_set:
                    self.shards[sid].drop_key(key)
        self.stats.promoted_keys += promoted
        self.stats.reseeded_keys += reseeded
        if self._replicated:
            self.stats.failovers += len(dead)
            live = self.live_shards()
            if live:
                self.shards[live[0]].counters.failovers += len(dead)
            tracer = self.tracer
            if tracer.enabled:
                tracer.replica(
                    "failover", self._now(),
                    removed=dead, moved=moved, promoted=promoted, reseeded=reseeded,
                )
        return moved

    def anti_entropy(self) -> int:
        """One reconciliation sweep: heal every stale reachable replica.

        For each key, the freshest reachable copy (not lost, not
        partitioned) wins; lower-versioned reachable replicas adopt its
        value and tag.  Idempotent — a second sweep with no intervening
        writes heals nothing.  Returns the number of replicas healed.
        """
        if not self._replicated:
            return 0
        healed = 0
        for key in range(self.config.n_keys):
            reps = self.replicas(key)
            reachable = [
                sid for sid in reps
                if not self.shards[sid].lost and not self.shards[sid].partitioned
            ]
            if not reachable:
                continue
            value, tag = self._freshest(key, reachable)
            if tag is None or tag.version == 0:
                continue  # nothing written: every replica is at the seed
            if not tag.verify(key):
                raise DataIntegrityError(
                    f"replica tag for key {key} failed verification in anti-entropy",
                    obj_id=key,
                )
            for sid in reachable:
                shard = self.shards[sid]
                if shard.version_of(key) < tag.version and shard.apply_write(
                    key, value, tag
                ):
                    healed += 1
                    shard.counters.stale_replicas_healed += 1
        if healed:
            self.stats.healed_stale_replicas += healed
        tracer = self.tracer
        if tracer.enabled:
            tracer.replica("anti_entropy", self._now(), healed=healed)
        return healed

    def partition_shard(self, shard_id: int) -> None:
        """Cut a shard's data links, reversibly; its heartbeats stay up.

        The gray-failure regime: the detector never fires, so the
        replica silently goes stale until :meth:`heal_shard` restores
        the links and :meth:`anti_entropy` reconciles it.
        """
        shard = self.shards.get(shard_id)
        if shard is None:
            raise RuntimeConfigError(f"shard {shard_id} does not exist")
        shard.partition()
        self.stats.partitions += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.replica("partition", self._now(), shard=shard_id)

    def heal_shard(self, shard_id: int) -> None:
        """Restore the data links :meth:`partition_shard` cut."""
        shard = self.shards.get(shard_id)
        if shard is None:
            raise RuntimeConfigError(f"shard {shard_id} does not exist")
        shard.heal()
        tracer = self.tracer
        if tracer.enabled:
            tracer.replica("heal", self._now(), shard=shard_id)

    def tick(self) -> List[int]:
        """One failure-detector round: probe every heartbeat channel.

        Newly suspected shards (``suspicion_threshold`` consecutive
        missed probes) are failed over immediately when
        ``auto_failover`` is set — unless that would empty the ring, in
        which case suspicion stands but the ring is left alone.
        Returns the newly suspected shard ids.
        """
        if self.detector is None:
            return []
        newly = self.detector.tick()
        if newly:
            tracer = self.tracer
            if tracer.enabled:
                tracer.replica("suspect", self._now(), shards=list(newly))
            if self.config.auto_failover:
                in_ring = [sid for sid in newly if sid in self.ring]
                if in_ring and len(self.ring) - len(in_ring) >= 1:
                    self.failover(in_ring)
        return newly

    def join_shard(self) -> int:
        """Bring up a fresh shard and migrate its keys onto it.

        A replica set that adopts the joiner (the :meth:`HashRing.place_n`
        join law: it evicts at most one old member; at R=1 every key
        whose owner moves) copies the freshest surviving value onto it,
        and the slots its evicted member held resident in a live pool
        are expelled through that source's evacuator (dirty ones pay a
        writeback).  Sets that did not adopt the joiner are untouched.
        Returns the new shard id.
        """
        sid = self._next_shard_id
        self._next_shard_id += 1
        shard = Shard(sid, self.config)
        if self.tracer is not NULL_TRACER:
            shard.set_tracer(self.tracer)
        self.shards[sid] = shard
        self.ring.add_shard(sid)
        if self.detector is not None:
            self.detector.watch(sid, shard.heartbeat)
        migrated = 0
        cycles = 0.0
        for key, old in list(self._replica_sets.items()):
            new = self.ring.place_n(key, self._copies)
            if set(new) == set(old):
                self._replica_sets[key] = new
                continue
            sources = [
                s for s in old
                if not self.shards[s].lost and not self.shards[s].partitioned
            ]
            value, tag = self._freshest(key, sources or old)
            if tag is None:
                tag = initial_tag(key)
            for member in new:
                if member not in old:
                    self.shards[member].apply_write(key, value, tag)
            for member in old:
                if member in new:
                    continue
                source = self.shards[member]
                pool = source.pool
                slot = source.slots.get(key)
                if pool is not None and slot is not None and not source.lost:
                    cycles += pool.expel(slot // self.config.object_size)
                source.drop_key(key)
            self._replica_sets[key] = new
            migrated += 1
        self.stats.migrated_keys += migrated
        self.stats.migration_cycles += cycles
        tracer = self.tracer
        if tracer.enabled:
            tracer.serve("join", self._now(), shard=sid, migrated=migrated)
        return sid

    # -- aggregation --------------------------------------------------------

    def merged_metrics(self) -> Metrics:
        """All shards' counters folded into one sparse bundle."""
        return Metrics.aggregate(
            shard.metrics for _sid, shard in sorted(self.shards.items())
        )

    def merged_latency(self) -> StreamingHistogram:
        """Global latency distribution: per-shard histograms merged."""
        merged = StreamingHistogram()
        for _sid, shard in sorted(self.shards.items()):
            merged.merge(shard.latency)
        return merged

    def _now(self) -> float:
        return max(
            (shard.metrics.cycles for shard in self.shards.values()), default=0.0
        )
