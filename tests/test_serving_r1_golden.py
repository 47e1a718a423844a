"""Unreplicated (R=1) serving runs against a recorded golden.

``tests/goldens/serving_r1.json`` holds the exact
:meth:`ServingReport.to_dict` and final key values of a fixed matrix of
R=1 runs: every runtime kind, with and without a fault plan, under
chaos scripts built from ``lose``, ``rebalance``, ``join`` and
``anti_entropy`` (two losses before one rebalance, a join while a lost
shard is still on the ring, a lost joiner, a rebalance after the last
arrival).  The checked-in serving baselines run trackfm shards only and
never join; this golden covers the rest of the R=1 request path, leaf
by leaf.  Partitions are left out: a write to a partitioned R=1 shard
is not durable, which the partition tests pin on their own.

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

GOLDEN = Path(__file__).parent / "goldens" / "serving_r1.json"

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


def _observe(runtime: str, faulty: bool, script: str) -> dict:
    schedule = generate_schedule(TRAFFIC)
    end = float(schedule.times[-1])
    chaos = [
        ChaosAction(end * fraction, action, shard)
        for fraction, action, shard in SCRIPTS[script]
    ]
    cluster = ShardedCluster(ClusterConfig(
        n_shards=N_SHARDS, n_keys=TRAFFIC.n_keys, runtime=runtime,
        object_size=64, local_memory=512, seed=5,
        fault_plan=FAULTS if faulty else None,
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
def golden(request):
    if request.config.getoption("--update-goldens"):
        recorded = {_case_id(*case): _observe(*case) for case in CASES}
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"golden rewritten: {GOLDEN}")
    assert GOLDEN.exists(), (
        f"missing golden {GOLDEN}; generate it with "
        "pytest tests/test_serving_r1_golden.py --update-goldens"
    )
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_case_id(*case) for case in CASES)


@pytest.mark.parametrize(
    "runtime,faulty,script",
    [pytest.param(*case, id=_case_id(*case)) for case in CASES],
)
def test_r1_run_matches_golden(golden, runtime, faulty, script):
    observed = _observe(runtime, faulty, script)
    assert diff(golden[_case_id(runtime, faulty, script)], observed) == []
