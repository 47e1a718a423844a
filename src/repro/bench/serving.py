"""Serving-layer benchmark + baseline gate: ``python -m repro.bench serving``.

Sweeps the sharded serving simulation over a client-count × shard-count
matrix ({100, 1k, 10k} open-loop clients against {1, 4, 16} far-node
shards) plus one chaos cell (4 shards, one knocked out mid-run and
rebalanced away) and one replicated pair (the same knockout at R=2,
where failover promotes surviving replicas and zero keys re-seed), and
reports throughput and p50/p95/p99 end-to-end latency per cell.

Every cell is a deterministic discrete-event simulation — seeded
arrivals, seeded Zipf keys, seeded fault schedules — so the full
:class:`~repro.serve.simulation.ServingReport` is bit-identical across
reruns.  That is what :data:`GATE` exploits: baselines are the *exact*
report dictionaries, compared with ``==`` and no tolerance::

    python -m repro.bench serving            # print the curves
    python -m repro.bench serving --record   # (re)write baselines
    python -m repro.bench serving --check    # gate (CI runs this)

Baselines live in ``benchmarks/baselines/BENCH_serving_*.json`` — one
file per client count plus one for the chaos cell.  Re-record after an
intentional serving-layer change and commit the diff.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional

from repro.bench import baseline
from repro.serve.cluster import ClusterConfig, ShardedCluster
from repro.serve.simulation import ChaosAction, ServingSimulation
from repro.serve.traffic import TrafficConfig, generate_schedule

#: The acceptance matrix.
CLIENT_COUNTS = (100, 1_000, 10_000)
SHARD_COUNTS = (1, 4, 16)

#: Total requests per cell (split across the cell's clients) — enough
#: to queue meaningfully, small enough that the full sweep is seconds.
TOTAL_REQUESTS = 10_000

#: Keyspace and per-shard sizing: 4096 keys x 8 B = 32 KB of slots per
#: shard worst-case vs 4 KB local — a single shard runs memory-starved,
#: sixteen shards run resident, which is the curve the sweep shows.
N_KEYS = 4096
LOCAL_MEMORY = 4 * 1024

#: The cell seed: every schedule and cluster derives from this.
SEED = 2024

#: Chaos cell shape: 4 shards, shard 1 dies at 40% of the run and is
#: rebalanced away at 70%.
CHAOS_SHARDS = 4
CHAOS_LOSE_FRACTION = 0.4
CHAOS_REBALANCE_FRACTION = 0.7
CHAOS_LOST_SHARD = 1

#: Replica count of the replicated bench cells (quorum: write-all,
#: read-one).
REPLICATION = 2

RUNTIME_KIND = "trackfm"


def _traffic(clients: int) -> TrafficConfig:
    return TrafficConfig(
        clients=clients,
        requests_per_client=max(1, TOTAL_REQUESTS // clients),
        n_keys=N_KEYS,
        seed=SEED,
    )


def _cluster(n_shards: int, replication: int = 1) -> ShardedCluster:
    return ShardedCluster(
        ClusterConfig(
            n_shards=n_shards,
            n_keys=N_KEYS,
            runtime=RUNTIME_KIND,
            local_memory=LOCAL_MEMORY,
            seed=SEED,
            replication=replication,
        )
    )


def run_cell(clients: int, n_shards: int, replication: int = 1) -> Dict[str, object]:
    """One fault-free matrix cell; returns the exact report dict."""
    schedule = generate_schedule(_traffic(clients))
    report = ServingSimulation(_cluster(n_shards, replication), schedule).run()
    return report.to_dict()


def run_chaos_cell(clients: int = 1_000, replication: int = 1) -> Dict[str, object]:
    """The knockout cell: lose one of four shards mid-run, rebalance,
    and still finish — the report's degraded/reseeded counters are part
    of the pinned baseline (exact retry/degrade accounting).  At
    ``replication >= 2`` the failure detector suspects the dead shard
    and failover promotes surviving replicas (zero re-seeds); the
    scripted rebalance becomes a no-op if detection beat it."""
    schedule = generate_schedule(_traffic(clients))
    end = float(schedule.times[-1])
    chaos = (
        ChaosAction(end * CHAOS_LOSE_FRACTION, "lose", CHAOS_LOST_SHARD),
        ChaosAction(end * CHAOS_REBALANCE_FRACTION, "rebalance"),
    )
    report = ServingSimulation(
        _cluster(CHAOS_SHARDS, replication), schedule, chaos
    ).run()
    return report.to_dict()


def measure_client_count(clients: int) -> Dict[str, object]:
    """All shard counts for one client count (one baseline file)."""
    return {
        "bench": f"serving_c{clients}",
        "clients": clients,
        "runtime": RUNTIME_KIND,
        "cells": {
            f"shards_{s}": run_cell(clients, s) for s in SHARD_COUNTS
        },
    }


def measure_chaos() -> Dict[str, object]:
    return {
        "bench": "serving_chaos",
        "clients": 1_000,
        "runtime": RUNTIME_KIND,
        "cells": {"knockout": run_chaos_cell()},
    }


def measure_replicated() -> Dict[str, object]:
    """The R=2 pair: fault-free (replication overhead vs the R=1 cells)
    and the knockout (lossless failover — ``reseeded_keys`` stays 0 and
    ``failovers``/``promoted_keys`` are pinned exactly)."""
    return {
        "bench": "serving_replicated",
        "clients": 1_000,
        "runtime": RUNTIME_KIND,
        "replication": REPLICATION,
        "cells": {
            "fault_free": run_cell(1_000, CHAOS_SHARDS, REPLICATION),
            "knockout": run_chaos_cell(replication=REPLICATION),
        },
    }


def measure(name: str) -> Dict[str, object]:
    if name == "chaos":
        return measure_chaos()
    if name == "replicated":
        return measure_replicated()
    return measure_client_count(int(name[1:]))


GATE = baseline.Gate(
    prog="python -m repro.bench serving",
    template="BENCH_serving_{name}.json",
    names=tuple(f"c{c}" for c in CLIENT_COUNTS) + ("chaos", "replicated"),
    measure=measure,
)


# -- human-readable curves ----------------------------------------------------


def curves_text(replication: int = 1) -> str:
    """The throughput/latency matrix as a text table."""
    posture = f", replication {replication}" if replication > 1 else ""
    lines = [
        "serving: open-loop clients vs far-node shards "
        f"({RUNTIME_KIND} shards, {TOTAL_REQUESTS} requests/cell, "
        f"{N_KEYS} keys, seed {SEED}{posture})",
        "",
        f"{'clients':>8} {'shards':>7} {'req/Mcyc':>10} "
        f"{'p50':>9} {'p95':>10} {'p99':>11} {'degraded':>9}",
    ]
    for clients in CLIENT_COUNTS:
        for shards in SHARD_COUNTS:
            if shards < replication:
                continue  # fewer shards than replicas: not a posture
            cell = run_cell(clients, shards, replication)
            p = cell["latency_percentiles"]
            lines.append(
                f"{clients:>8} {shards:>7} {cell['throughput_per_mcycle']:>10.1f} "
                f"{p['p50']:>9.0f} {p['p95']:>10.0f} {p['p99']:>11.0f} "
                f"{cell['degraded_requests']:>9}"
            )
    chaos = run_chaos_cell(replication=replication)
    p = chaos["latency_percentiles"]
    lines.append(
        f"{1000:>8} {'4-1':>7} {chaos['throughput_per_mcycle']:>10.1f} "
        f"{p['p50']:>9.0f} {p['p95']:>10.0f} {p['p99']:>11.0f} "
        f"{chaos['degraded_requests']:>9}  <- knockout + rebalance"
    )
    stats = chaos["cluster_stats"]
    if replication > 1:
        lines.append(
            f"\nchaos cell (R={replication}): {stats['reseeded_keys']} keys "
            f"re-seeded, {stats.get('promoted_keys', 0)} replica copies promoted "
            f"after losing shard {CHAOS_LOST_SHARD} of {CHAOS_SHARDS}; run "
            f"completed with {chaos['degraded_requests']} degraded requests"
        )
    else:
        lines.append(
            f"\nchaos cell: {stats['reseeded_keys']} keys re-seeded after losing "
            f"shard {CHAOS_LOST_SHARD} of {CHAOS_SHARDS}; run completed with "
            f"{chaos['degraded_requests']} degraded requests"
        )
    return "\n".join(lines)


# -- CLI ----------------------------------------------------------------------


def _replica_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"replica count must be at least 1, got {value}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = baseline.parser(
        GATE, "Serving-layer curves and their exact baseline gate.", required=False
    )
    parser.add_argument(
        "--replication", type=_replica_count, default=1, metavar="N",
        help=(
            "replica count for the printed curves (default 1; the "
            "recorded 'replicated' baseline always uses "
            f"R={REPLICATION})"
        ),
    )
    args = parser.parse_args(argv)
    if args.record or args.check:
        return baseline.run(GATE, args)
    print(curves_text(replication=args.replication))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
