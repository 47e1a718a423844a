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
durable contents.  What a loss costs depends on the replication factor:

* **Unreplicated (``replication=1``, the default).**  Losing a shard
  loses its data: requests for its keys are served *degraded* (stale
  reads, non-durable writes — counted in ``degraded_accesses``) until
  ``rebalance()`` removes it from the ring and re-seeds its keys onto
  survivors from their initial values.  Keys on surviving shards never
  notice: the chaos suite pins that their values are bit-identical to
  a fault-free run.
* **Replicated (``replication=R >= 2``).**  Every key lives on R
  distinct shards (:meth:`HashRing.place_n`), writes are applied to
  the whole live replica set with a monotonic per-key version tag
  (committed once ``write_quorum`` replicas ack), reads consult a
  ``read_quorum`` and take the max version (healing stale replicas
  inline — read repair).  A heartbeat failure detector suspects dead
  shards and **failover promotes surviving replicas losslessly**: zero
  keys re-seed as long as one replica survives, and a background
  anti-entropy sweep reconciles replicas that diverged during a
  partition.  ``python -m repro.bench serving --replication 2`` pins
  this posture; R=1 runs stay bit-identical to the historical
  unreplicated baselines.

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
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import DataIntegrityError, RuntimeConfigError
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
from repro.serve.ring import HashRing, _splitmix64
from repro.units import BASE_PAGE, KB, align_up

#: Bytes per key slot (one 64-bit value per key).
SLOT_BYTES = 8

#: Stall charged per degraded access on a lost shard (same knob as the
#: trace drivers' degraded mode).
DEGRADED_STALL_CYCLES = 1_000.0

_MASK64 = (1 << 64) - 1

_READ = AccessKind.READ
_WRITE = AccessKind.WRITE

RUNTIME_KINDS = ("aifm", "trackfm", "fastswap", "hybrid", "adaptive")


def default_value(key: int) -> int:
    """The value every key starts with (and re-seeds to after data loss)."""
    return _splitmix64((key << 8) ^ 0xD1CE) & 0x7FFFFFFF


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
    #: Replicas per key (1 = the historical unreplicated posture, whose
    #: request path and reports stay bit-identical to older baselines).
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
        #: Replicated clusters write and drop a key's tag together with
        #: its value, so a key has a tag exactly when it has a value.
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
        self._build_runtime()

    # -- runtime adapters ---------------------------------------------------

    def _build_runtime(self) -> None:
        config = self.config
        plan = config.fault_plan
        heap = config.shard_heap_bytes
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
                if offset + SLOT_BYTES > self.config.shard_heap_bytes:
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
        """Apply a replicated write to durable state; False = unreachable."""
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
            cycles = self.runtime.access(self._base + offset, kind, SLOT_BYTES)
            if self._quota is not None:
                cycles += self._enforce_quota(tenant, offset)
            return cycles, counters.degraded_accesses > before
        before = self._hybrid_degraded_accesses()
        if offset < self._obj_half:
            cycles = self.runtime.access(self._obj_handle, offset, kind, SLOT_BYTES)
        else:
            cycles = self.runtime.access(
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
        reads.
        """
        dead = FaultPlan(seed=self.shard_id ^ 0xDEAD, drop_rate=1.0)
        for backend in self.remote_backends():
            backend.link.faults = dead.schedule()
        self.heartbeat.down = True
        self.lost = True

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
        """Restore the data links a :meth:`partition` cut."""
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
    #: Replication view (replicated clusters only; R=1 keeps defaults).
    #: Version tag the request committed/observed.
    version: int = 0
    #: Replicas that durably applied a write (reads: replicas consulted).
    acks: int = 0


@dataclass
class ClusterStats:
    """Cluster-level event counters (shard metrics live on the shards)."""

    requests: int = 0
    degraded_requests: int = 0
    lost_shards: int = 0
    rebalances: int = 0
    #: Keys re-seeded from initial values after a loss.  Unreplicated
    #: clusters re-seed every lost key; replicated ones only when *all*
    #: replicas of a key died — the chaos suite pins this at 0 for R>=2
    #: single-shard knockouts.
    reseeded_keys: int = 0
    #: Keys migrated survivor → survivor through the evacuator (joins).
    migrated_keys: int = 0
    migration_cycles: float = 0.0
    #: Replication counters — serialized sparsely (only when nonzero)
    #: so unreplicated reports keep their historical exact form.
    #: Dead shards failed over (surviving replicas promoted).
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
        #: Cached placement (kept exactly consistent with the ring).
        self._owner: Dict[int, int] = {}
        #: Cached replica sets (replicated clusters; primary first).
        self._replica_sets: Dict[int, Tuple[int, ...]] = {}
        self.stats = ClusterStats()
        self._next_shard_id = config.n_shards
        # Fixed by the (frozen) config; read on every request.
        self._replicated = config.replicated
        self._n_keys = config.n_keys
        self.detector: Optional[FailureDetector] = None
        if self._replicated:
            self._write_quorum, self._read_quorum = config.quorums
            self.detector = FailureDetector(config.suspicion_threshold)
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
        if self._replicated:
            return self.replicas(key)[0]
        sid = self._owner.get(key)
        if sid is None:
            sid = self.ring.place(key)
            self._owner[key] = sid
        return sid

    def replicas(self, key: int) -> Tuple[int, ...]:
        """The key's replica set (primary first), cached like ``place``."""
        reps = self._replica_sets.get(key)
        if reps is None:
            reps = self.ring.place_n(key, self.config.replication)
            self._replica_sets[key] = reps
            self._owner[key] = reps[0]
        return reps

    def live_shards(self) -> List[int]:
        return [sid for sid, shard in sorted(self.shards.items()) if not shard.lost]

    def _routable(self, replicas: Tuple[int, ...]) -> Sequence[int]:
        """Replicas requests are sent to: the not-yet-suspected ones.

        Before the failure detector fires, a dead replica is still
        routed to (and pays degraded service) — suspicion, not an
        oracle, is what removes it from the request path.  While none
        of them is suspected, the cached replica set is the route.
        """
        suspected = self.detector.suspected
        if suspected.isdisjoint(replicas):
            return replicas
        routable = [sid for sid in replicas if sid not in suspected]
        return routable if routable else list(replicas)

    # -- the request path ---------------------------------------------------

    def serve(self, key: int, tenant: int = 0, write: bool = False) -> RequestResult:
        """Serve one request; returns value + service cycles.

        Never raises for a lost shard: the shard's runtime runs in
        degraded mode, so the request completes with a stall and is
        counted in ``degraded_accesses`` (reads are stale, writes are
        not durable — they die with the shard at rebalance).
        """
        if key < 0 or key >= self._n_keys:
            raise RuntimeConfigError(
                f"key {key} outside [0, {self._n_keys})"
            )
        if self._replicated:
            return self._serve_replicated(key, tenant, write)
        sid = self._owner.get(key)
        if sid is None:
            sid = self.place(key)
        shard = self.shards[sid]
        cycles, degraded = shard.service(key, _WRITE if write else _READ, tenant)
        # Degraded = the request could not use the far node as intended:
        # its remote path fell back locally (counted by the runtime), or
        # it was a write to a lost shard (acknowledged, not durable).
        # A read that hits host-local residency is *correct* even while
        # the far node is down — not degraded.
        if write and shard.lost:
            degraded = True
        # A key's seed value is derived only when it was never written.
        previous = shard.store.get(key)
        if previous is None:
            previous = default_value(key)
        if write:
            value = next_value(key, previous)
            if not shard.lost:
                shard.store[key] = value
            # A degraded write is acknowledged but not durable: the
            # shard's (unreachable) store keeps the old value.
        else:
            value = previous
        self.stats.requests += 1
        if degraded:
            self.stats.degraded_requests += 1
        return RequestResult(sid, value, cycles, degraded)

    # -- the replicated request path -----------------------------------------

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
            return default_value(key), None
        return best.store[key], best_tag

    def _serve_replicated(self, key: int, tenant: int, write: bool) -> RequestResult:
        """Quorum write / quorum read over the key's replica set.

        Writes go to every routable replica with a bumped version tag;
        the write is *committed* once ``write_quorum`` replicas durably
        applied it (fewer = the request is degraded: acknowledged below
        quorum).  Reads consult the first ``read_quorum`` routable
        replicas, return the max-version value, and heal stale quorum
        members inline (read repair).
        """
        reps = self._replica_sets.get(key)
        if reps is None:
            reps = self.replicas(key)
        routable = self._routable(reps)
        coordinator = routable[0]
        shards = self.shards
        cycles = 0.0
        degraded = False
        if write:
            previous, prev_tag = self._freshest(key, reps)
            value = next_value(key, previous)
            tag = ReplicaTag.at(key, 1 if prev_tag is None else prev_tag.version + 1)
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
            if acks < min(self._write_quorum, len(reps)):
                degraded = True
            version = tag.version
        else:
            targets = routable[: self._read_quorum]
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
            # quorum of one, or a key never written, has nothing stale.
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
        return RequestResult(coordinator, value, cycles, degraded, version, acks)

    def read_value(self, key: int) -> int:
        """The durable value of ``key`` right now (no cost accounting).

        Replicated clusters answer with the freshest *reachable* copy
        (max version over non-lost replicas); unreplicated ones read
        the owner's store, exactly as before.
        """
        if self._replicated:
            reps = self.replicas(key)
            reachable = [sid for sid in reps if not self.shards[sid].lost]
            return self._freshest(key, reachable or reps)[0]
        shard = self.shards[self.place(key)]
        return shard.store.get(key, default_value(key))

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
        """Remove lost shards from the ring; recover their keys.

        Unreplicated clusters re-place every lost-shard key on a
        survivor and re-seed it from its initial value — the write
        history dies with the shard.  Replicated clusters fail over
        instead: surviving replicas are promoted losslessly (zero
        re-seeds while any replica of each key survives); see
        :meth:`failover`.  Returns the number of keys whose placement
        moved.
        """
        lost = [sid for sid, shard in self.shards.items() if shard.lost and sid in self.ring]
        if self._replicated:
            if not lost:
                return 0
            moved = self.failover(lost)
            self.stats.rebalances += 1
            return moved
        moved = 0
        for sid in lost:
            self.ring.remove_shard(sid)
            dead = self.shards[sid]
            for key, owner in list(self._owner.items()):
                if owner != sid:
                    continue
                new_sid = self.ring.place(key)
                self._owner[key] = new_sid
                dead.drop_key(key)
                # Re-seeded: the new shard starts from the key's initial
                # value; its slot is assigned on first touch (remote).
                moved += 1
        self.stats.reseeded_keys += moved
        if lost:
            self.stats.rebalances += 1
            tracer = self.tracer
            if tracer.enabled:
                tracer.serve(
                    "rebalance", self._now(),
                    removed=sorted(lost), reseeded=moved,
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
        leave law).  Returns the number of keys whose set changed.
        """
        if not self._replicated:
            raise RuntimeConfigError("failover requires a replicated cluster")
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
            if not dead_set.intersection(old):
                continue
            new = self.ring.place_n(key, self.config.replication)
            self._replica_sets[key] = new
            self._owner[key] = new[0]
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
        self.stats.failovers += len(dead)
        self.stats.promoted_keys += promoted
        self.stats.reseeded_keys += reseeded
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

        Keys whose placement moves (consistent hashing: all of them
        move *to* the new shard) are migrated: values are copied over,
        and slots resident in a surviving source pool are expelled
        through the source's evacuator (dirty ones pay a writeback).
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
        if self._replicated:
            # Replica-set migration: a set that adopts the joiner copies
            # the freshest verified surviving value onto it and evicts
            # at most one old member (the place_n join law); sets that
            # did not adopt it are untouched.
            for key in sorted(self._replica_sets):
                old = self._replica_sets[key]
                new = self.ring.place_n(key, self.config.replication)
                if set(new) == set(old):
                    self._replica_sets[key] = new
                    self._owner[key] = new[0]
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
                self._owner[key] = new[0]
                migrated += 1
        else:
            for key, owner in list(self._owner.items()):
                new_sid = self.ring.place(key)
                if new_sid == owner:
                    continue
                source = self.shards[owner]
                # Copy the durable value, then evacuate the source slot.
                shard.store[key] = source.store.get(key, default_value(key))
                pool = source.pool
                slot = source.slots.get(key)
                if pool is not None and slot is not None and not source.lost:
                    cycles += pool.expel(slot // self.config.object_size)
                source.drop_key(key)
                self._owner[key] = new_sid
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

    def values_checksum(self) -> int:
        """Digest of every key's durable value (ordered by key)."""
        acc = 0xCBF29CE484222325
        for key in range(self.config.n_keys):
            acc = ((acc ^ self.read_value(key)) * 0x100000001B3) & _MASK64
        return acc

    def _now(self) -> float:
        return max(
            (shard.metrics.cycles for shard in self.shards.values()), default=0.0
        )
