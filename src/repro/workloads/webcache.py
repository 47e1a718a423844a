"""Web-cache trace: a Zipf request trace replayed through the serving layer.

Unlike the other workloads — which replay an access stream through one
runtime — this one exercises the full `repro.serve` stack: seeded
open-loop traffic (`TrafficConfig`), consistent-hash placement, per-shard
runtimes, tenant quotas, and the discrete-event queueing simulation.
The workload object is just deterministic configuration; :meth:`run`
builds a fresh cluster each call so runs never share mutable state.

The observable result is the serving report's ``completions_fingerprint``
(order, value, and shard of every completion folded into one digest),
which stands in for the program "value" in cross-configuration
comparisons, plus the merged :class:`~repro.sim.metrics.Metrics` and
latency percentiles the ablation scorer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from typing import TYPE_CHECKING

from repro.net.faults import FaultPlan

if TYPE_CHECKING:  # real imports happen lazily inside the methods:
    # `repro.serve.traffic` imports this package for its Zipf generator,
    # so a module-level import here would close an import cycle and make
    # ``import repro.serve`` order-dependent.
    from repro.serve.cluster import ClusterConfig
    from repro.serve.simulation import ChaosAction, ServingReport
    from repro.serve.traffic import TrafficConfig


@dataclass(frozen=True)
class WebCacheConfig:
    """Sizing of one web-cache serving run (all defaults CI-sized)."""

    n_keys: int = 512
    clients: int = 32
    requests_per_client: int = 24
    zipf_skew: float = 1.05
    tenants: int = 4
    n_shards: int = 3
    object_size: int = 256
    #: Two resident objects per shard (64 key slots) against a touched
    #: working set several times larger — residency is fought over,
    #: which is what makes the quota knob and fault plans visible.
    local_memory: int = 512
    #: Per-tenant residency budget (one object); ``None`` disables quotas.
    tenant_quota_bytes: Optional[int] = 256
    write_fraction: float = 0.25
    mean_interarrival_cycles: float = 400_000.0
    seed: int = 7


class WebCacheWorkload:
    """Replay one seeded Zipf trace through a sharded cluster."""

    name = "webcache"

    def __init__(self, config: WebCacheConfig = WebCacheConfig()) -> None:
        self.config = config

    def traffic_config(self) -> "TrafficConfig":
        from repro.serve.traffic import TrafficConfig

        cfg = self.config
        return TrafficConfig(
            clients=cfg.clients,
            requests_per_client=cfg.requests_per_client,
            n_keys=cfg.n_keys,
            zipf_skew=cfg.zipf_skew,
            mean_interarrival_cycles=cfg.mean_interarrival_cycles,
            write_fraction=cfg.write_fraction,
            tenants=cfg.tenants,
            seed=cfg.seed,
        )

    def cluster_config(
        self,
        runtime: str,
        fault_plan: Optional[FaultPlan] = None,
        quotas: bool = True,
        replication: int = 1,
    ) -> "ClusterConfig":
        from repro.serve.cluster import ClusterConfig

        cfg = self.config
        return ClusterConfig(
            n_shards=cfg.n_shards,
            n_keys=cfg.n_keys,
            runtime=runtime,
            object_size=cfg.object_size,
            local_memory=cfg.local_memory,
            tenant_quota_bytes=cfg.tenant_quota_bytes if quotas else None,
            seed=cfg.seed,
            fault_plan=fault_plan,
            replication=replication,
        )

    def run(
        self,
        runtime: str = "aifm",
        fault_plan: Optional[FaultPlan] = None,
        quotas: bool = True,
        chaos: Sequence["ChaosAction"] = (),
        replication: int = 1,
    ) -> "ServingReport":
        from repro.serve.cluster import ShardedCluster
        from repro.serve.simulation import ServingSimulation
        from repro.serve.traffic import generate_schedule

        schedule = generate_schedule(self.traffic_config())
        cluster = ShardedCluster(
            self.cluster_config(runtime, fault_plan, quotas, replication)
        )
        return ServingSimulation(cluster, schedule, chaos).run()

    def value(self, runtime: str = "aifm") -> int:
        """The fault-free run's completions fingerprint (pure in config)."""
        return self.run(runtime=runtime).completions_fingerprint

    def with_seed(self, seed: int) -> "WebCacheWorkload":
        return WebCacheWorkload(replace(self.config, seed=seed))
