"""Serving runs at replication 1, 2 and 3 against recorded goldens.

``tests/goldens/serving_r<R>.json`` holds the exact
:meth:`ServingReport.to_dict` and final key values of a fixed matrix of
runs at replication R: every runtime kind, with and without a fault
plan, under chaos scripts built from ``lose``, ``rebalance``, ``join``
and ``anti_entropy`` (two losses before one rebalance, a join while a
lost shard is still on the ring, a lost joiner, a rebalance after the
last arrival).  The checked-in serving baselines run trackfm shards only
and never join; these goldens cover the rest of the request path, leaf
by leaf.  At R=2 and R=3 that includes what an R=1 run never does:
write quorums, the failure detector's suspicion and failover, promotion
onto new replica-set members, requests routed around a suspected shard
and read-one after failover, all over shard links whose retry policy
and circuit breaker see real losses.  Partitions are left out: a write
to a partitioned R=1 shard is not durable, which the partition tests
pin on their own.

Regenerate only for an intended change, and review the diff::

    PYTHONPATH=src python -m pytest tests/test_serving_r1_golden.py --update-goldens
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.baseline import diff
from repro.net.faults import FaultPlan
from repro.serve import (
    ChaosAction,
    ClusterConfig,
    ShardedCluster,
    TrafficConfig,
    default_value,
    generate_schedule,
    run_serving,
)
from repro.serve.cluster import RUNTIME_KINDS

GOLDENS = Path(__file__).parent / "goldens"

REPLICATIONS = (1, 2, 3)

N_SHARDS = 4

#: 1024 keys of 8 B over 64 B objects and 512 B of local memory: the
#: object tiers miss constantly and a fastswap shard pages (8 KB heap,
#: one local page).
TRAFFIC = TrafficConfig(
    clients=10, requests_per_client=40, n_keys=1024, write_fraction=0.35, seed=29
)

#: Lossy, spiky links on every shard (each replays it under its own seed).
FAULTS = FaultPlan(
    seed=11, drop_rate=0.05, spike_rate=0.05, spike_cycles=5_000.0,
    jitter_cycles=300.0,
)

#: Chaos scripts as ``(fraction of the last arrival time, action, shard)``;
#: shards 4 and 5 are the first and second joiners.
SCRIPTS = {
    "none": (),
    "knockout": ((0.4, "lose", 1), (0.7, "rebalance", None)),
    "double_loss": (
        (0.2, "lose", 1), (0.35, "lose", 3), (0.5, "rebalance", None),
        (0.6, "anti_entropy", None), (0.75, "join", None),
    ),
    "lost_joiner": (
        (0.2, "join", None), (0.4, "lose", 4), (0.6, "join", None),
        (0.8, "rebalance", None),
    ),
    "join_beside_lost": (
        (0.3, "lose", 0), (0.45, "join", None), (0.65, "rebalance", None),
        (0.85, "lose", 2),
    ),
    "late_rebalance": (
        (0.5, "lose", 2), (1.2, "rebalance", None), (1.3, "join", None),
    ),
}

CASES = [
    (runtime, faulty, script)
    for runtime in RUNTIME_KINDS
    for faulty in (False, True)
    for script in SCRIPTS
]


def _case_id(runtime: str, faulty: bool, script: str) -> str:
    return f"{runtime}-{'faults' if faulty else 'clean'}-{script}"


def _golden_path(replication: int) -> Path:
    return GOLDENS / f"serving_r{replication}.json"


def _observe(replication: int, runtime: str, faulty: bool, script: str) -> dict:
    schedule = generate_schedule(TRAFFIC)
    end = float(schedule.times[-1])
    chaos = [
        ChaosAction(end * fraction, action, shard)
        for fraction, action, shard in SCRIPTS[script]
    ]
    cluster = ShardedCluster(ClusterConfig(
        n_shards=N_SHARDS, n_keys=TRAFFIC.n_keys, runtime=runtime,
        object_size=64, local_memory=512, seed=5,
        fault_plan=FAULTS if faulty else None, replication=replication,
    ))
    report, values = run_serving(cluster, schedule, chaos)
    # Keys still at their seed value are left out (the same on both
    # sides); a JSON round trip makes int keys strings, as in the file.
    return json.loads(json.dumps({
        "report": report.to_dict(),
        "final_values": {
            key: value for key, value in sorted(values.items())
            if value != default_value(key)
        },
    }))


@pytest.fixture(scope="module")
def goldens(request):
    if request.config.getoption("--update-goldens"):
        GOLDENS.mkdir(exist_ok=True)
        for replication in REPLICATIONS:
            recorded = {_case_id(*case): _observe(replication, *case) for case in CASES}
            _golden_path(replication).write_text(
                json.dumps(recorded, indent=1, sort_keys=True) + "\n"
            )
        pytest.skip(f"goldens rewritten: {GOLDENS}/serving_r*.json")
    missing = [str(_golden_path(r)) for r in REPLICATIONS if not _golden_path(r).exists()]
    assert not missing, (
        f"missing goldens {missing}; generate them with "
        "pytest tests/test_serving_r1_golden.py --update-goldens"
    )
    return {r: json.loads(_golden_path(r).read_text()) for r in REPLICATIONS}


@pytest.mark.parametrize("replication", REPLICATIONS, ids=lambda r: f"r{r}")
def test_golden_covers_every_case(goldens, replication):
    assert sorted(goldens[replication]) == sorted(_case_id(*case) for case in CASES)


@pytest.mark.parametrize(
    "replication,runtime,faulty,script",
    [
        pytest.param(replication, *case, id=f"r{replication}-{_case_id(*case)}")
        for replication in REPLICATIONS
        for case in CASES
    ],
)
def test_run_matches_golden(goldens, replication, runtime, faulty, script):
    observed = _observe(replication, runtime, faulty, script)
    assert diff(goldens[replication][_case_id(runtime, faulty, script)], observed) == []
