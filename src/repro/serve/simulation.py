"""The discrete-event serving simulation: traffic meets the cluster.

Each shard is modeled as a single-server FIFO queue: a request arriving
at ``t`` starts service at ``max(t, shard.busy_until)``, holds the
shard for its service cycles (runtime access + retries + quota
enforcement + migrations it triggered), and completes when done.
End-to-end latency = queue wait + service — the quantity whose p99
explodes past saturation, which is the whole reason the serving layer
simulates open-loop traffic instead of averaging closed-form costs.

Chaos actions (:class:`ChaosAction`) fire at configured simulated
times, *between* arrivals: a ``lose`` knocks a whole far node out
mid-run (its requests degrade), ``rebalance`` fails the dead shards
over (surviving replicas are promoted; keys with none, every lost key
at R=1, re-seed), ``join`` grows the ring and migrates,
``partition``/``heal`` cut and restore one shard's data links (gray
failure), and ``anti_entropy`` forces a reconciliation sweep.  On
replicated clusters (R >= 2) the failure detector's heartbeat ticks
and the optional periodic anti-entropy sweep are interleaved with
chaos in simulated-time order; an R=1 cluster has neither, and
recovers only through scripted rebalances.  Everything — arrivals,
service costs, fault schedules, chaos timing — is a pure function of
seeds, so the full :class:`ServingReport` (fingerprints included) is
bit-identical across reruns.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import RuntimeConfigError
from repro.serve.cluster import ShardedCluster
from repro.serve.traffic import Schedule

_MASK64 = (1 << 64) - 1

#: The percentile summary every serving report carries.
PERCENTILES = (50.0, 95.0, 99.0)


#: Every scripted chaos kind; ``partition``/``heal``/``anti_entropy``
#: are the replicated cluster's gray-failure repertoire.
CHAOS_ACTIONS = ("lose", "rebalance", "join", "partition", "heal", "anti_entropy")


@dataclass(frozen=True)
class ChaosAction:
    """One scripted control-plane event at a simulated time."""

    at_cycles: float
    #: One of :data:`CHAOS_ACTIONS`; ``lose``/``partition``/``heal``
    #: need ``shard``.
    action: str
    shard: Optional[int] = None

    def __post_init__(self) -> None:
        if self.action not in CHAOS_ACTIONS:
            raise RuntimeConfigError(f"unknown chaos action {self.action!r}")
        if self.action in ("lose", "partition", "heal") and self.shard is None:
            raise RuntimeConfigError(f"{self.action!r} needs a shard id")


@dataclass
class ServingReport:
    """Everything one serving run produced, JSON-ready."""

    requests: int
    degraded_requests: int
    makespan_cycles: float
    #: Completed requests per million simulated cycles.
    throughput_per_mcycle: float
    latency_mean: float
    latency_percentiles: Dict[str, float]
    per_shard_requests: Dict[str, int]
    cluster_stats: Dict[str, object]
    metrics: Dict[str, object]
    #: FNV digest over every key's final durable value.
    values_checksum: int
    #: Digest of the arrival schedule that drove the run.
    schedule_fingerprint: int
    #: Digest over every completion (order, value, shard) — the run's
    #: full observable behaviour in one number.
    completions_fingerprint: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "degraded_requests": self.degraded_requests,
            "makespan_cycles": self.makespan_cycles,
            "throughput_per_mcycle": self.throughput_per_mcycle,
            "latency_mean": self.latency_mean,
            "latency_percentiles": dict(self.latency_percentiles),
            "per_shard_requests": dict(self.per_shard_requests),
            "cluster_stats": dict(self.cluster_stats),
            "metrics": dict(self.metrics),
            "values_checksum": self.values_checksum,
            "schedule_fingerprint": self.schedule_fingerprint,
            "completions_fingerprint": self.completions_fingerprint,
        }


@dataclass
class ServingSimulation:
    """Drives one :class:`Schedule` through one :class:`ShardedCluster`."""

    cluster: ShardedCluster
    schedule: Schedule
    chaos: Sequence[ChaosAction] = ()
    #: Per-key final values recorded after the run (chaos comparisons).
    final_values: Dict[int, int] = field(default_factory=dict, init=False)

    def run(self) -> ServingReport:
        cluster = self.cluster
        tracer = cluster.tracer
        actions: List[ChaosAction] = sorted(
            self.chaos, key=lambda a: (a.at_cycles, a.action)
        )
        self._next_action = 0
        # The replicated control plane ticks on simulated time: the
        # failure detector probes every heartbeat interval, and the
        # anti-entropy sweep (when configured) runs on its own cadence.
        # Unreplicated clusters schedule neither, so their runs replay
        # the historical event sequence exactly.
        config = cluster.config
        self._hb_interval = (
            config.heartbeat_interval_cycles if cluster.detector is not None else None
        )
        self._next_hb = self._hb_interval
        self._ae_interval = (
            config.anti_entropy_interval_cycles if config.replicated else None
        )
        self._next_ae = self._ae_interval
        busy_until: Dict[int, float] = {}
        makespan = 0.0
        completions_acc = 0xCBF29CE484222325
        # Each shard's request latencies, in arrival order, folded into
        # its histogram after the traffic (nothing reads it mid-run).
        latencies: Dict[int, array] = defaultdict(partial(array, "d"))
        serve = cluster.serve
        # The control plane runs only once something is due.
        due = self._next_due(actions)

        for now, _client, tenant, key, is_write in self.schedule.rows():
            if now >= due:
                self._control_plane(actions, now)
                due = self._next_due(actions)
            sid, value, service_cycles, degraded, _version, _acks = serve(
                key, tenant, is_write
            )
            # The request queues at the shard that served it: the
            # coordinator, which differs from the key's primary when a
            # suspected primary is still in its replica set.
            start = busy_until.get(sid, 0.0)
            if start < now:
                start = now
            completion = start + service_cycles
            busy_until[sid] = completion
            if completion > makespan:
                makespan = completion
            latency = completion - now
            latencies[sid].append(latency)
            completions_acc = (
                (completions_acc ^ (value + sid + (1 if degraded else 2)))
                * 0x100000001B3
            ) & _MASK64
            if tracer.enabled:
                tracer.serve(
                    "request",
                    completion,
                    shard=sid,
                    tenant=tenant,
                    key=key,
                    write=is_write,
                    latency=latency,
                    degraded=degraded,
                )
        for sid, shard_latencies in latencies.items():
            shard = cluster.shards[sid]
            shard.requests += len(shard_latencies)
            shard.latency.record_many(shard_latencies)

        # Chaos scripted past the last arrival still runs (e.g. a final
        # rebalance whose re-seeding the report must reflect), with the
        # control plane ticking alongside in time order.
        if actions:
            self._control_plane(actions, actions[-1].at_cycles)
        while self._next_action < len(actions):
            self._apply(actions[self._next_action])
            self._next_action += 1
        # Trail the detector past the end of traffic: a knockout near
        # (or after) the last arrival still crosses the suspicion
        # threshold and fails over before the report is cut; then one
        # closing sweep reconciles whatever the run left stale.
        if cluster.detector is not None:
            for _ in range(config.suspicion_threshold):
                cluster.tick()
            if self._ae_interval is not None:
                cluster.anti_entropy()

        # One pass over the keyspace records every final value and
        # folds it into the report's FNV digest.
        final_values = self.final_values
        values_checksum = 0xCBF29CE484222325
        for key, value in enumerate(cluster.durable_values()):
            final_values[key] = value
            values_checksum = ((values_checksum ^ value) * 0x100000001B3) & _MASK64

        merged = cluster.merged_latency()
        stats = cluster.stats
        throughput = (
            stats.requests / makespan * 1e6 if makespan > 0 else 0.0
        )
        return ServingReport(
            requests=stats.requests,
            degraded_requests=stats.degraded_requests,
            makespan_cycles=makespan,
            throughput_per_mcycle=throughput,
            latency_mean=merged.mean,
            latency_percentiles=merged.percentiles(PERCENTILES),
            per_shard_requests={
                str(sid): shard.requests
                for sid, shard in sorted(cluster.shards.items())
            },
            cluster_stats=stats.as_dict(),
            metrics=cluster.merged_metrics().as_dict(),
            values_checksum=values_checksum,
            schedule_fingerprint=self.schedule.fingerprint(),
            completions_fingerprint=completions_acc,
        )

    def _next_due(self, actions: List[ChaosAction]) -> float:
        """The simulated time of the next chaos action, heartbeat tick or
        sweep (infinity when none is left)."""
        due = (
            actions[self._next_action].at_cycles
            if self._next_action < len(actions)
            else math.inf
        )
        if self._next_hb is not None and self._next_hb < due:
            due = self._next_hb
        if self._next_ae is not None and self._next_ae < due:
            due = self._next_ae
        return due

    def _control_plane(self, actions: List[ChaosAction], until: float) -> None:
        """Fire chaos, heartbeat ticks and sweeps due by ``until``, in
        time order (ties: chaos, then heartbeat, then sweep)."""
        cluster = self.cluster
        while True:
            best = None  # (time, priority, kind)
            if (
                self._next_action < len(actions)
                and actions[self._next_action].at_cycles <= until
            ):
                best = (actions[self._next_action].at_cycles, 0, "chaos")
            if self._next_hb is not None and self._next_hb <= until:
                cand = (self._next_hb, 1, "hb")
                if best is None or cand < best:
                    best = cand
            if self._next_ae is not None and self._next_ae <= until:
                cand = (self._next_ae, 2, "ae")
                if best is None or cand < best:
                    best = cand
            if best is None:
                return
            kind = best[2]
            if kind == "chaos":
                self._apply(actions[self._next_action])
                self._next_action += 1
            elif kind == "hb":
                cluster.tick()
                self._next_hb += self._hb_interval
            else:
                cluster.anti_entropy()
                self._next_ae += self._ae_interval

    def _apply(self, action: ChaosAction) -> None:
        if action.action == "lose":
            self.cluster.lose_shard(action.shard)
        elif action.action == "rebalance":
            self.cluster.rebalance()
        elif action.action == "join":
            self.cluster.join_shard()
        elif action.action == "partition":
            self.cluster.partition_shard(action.shard)
        elif action.action == "heal":
            self.cluster.heal_shard(action.shard)
        else:
            self.cluster.anti_entropy()


def run_serving(
    cluster: ShardedCluster,
    schedule: Schedule,
    chaos: Sequence[ChaosAction] = (),
) -> Tuple[ServingReport, Dict[int, int]]:
    """One-shot helper: run and return ``(report, final key values)``."""
    sim = ServingSimulation(cluster, schedule, chaos)
    report = sim.run()
    return report, sim.final_values
