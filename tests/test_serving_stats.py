"""Statistics plumbing of the serving layer: histograms, arrivals, quotas.

Three satellite guarantees:

* **histogram merge semantics** — folding per-shard latency histograms
  into a global one is exact counter addition: the merged percentile
  equals the percentile of recording the concatenated stream, and the
  merged percentile is bracketed by the per-shard min/max (hypothesis
  properties + the live cluster's merged histogram);
* **open-loop arrival determinism** — the same ``TrafficConfig``
  generates a bit-identical schedule (fingerprint-stable), different
  seeds diverge, and arrival times are sorted with a total order;
* **sparse metrics aggregation** — merging per-shard ``Metrics`` keeps
  absent-when-zero counters absent, so the serialization of aggregated
  fault-free metrics is exactly a fresh bundle's (the regression that
  would otherwise silently rewrite every ``BENCH_*.json`` fingerprint).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.costs import GuardKind
from repro.serve import (
    ClusterConfig,
    ShardedCluster,
    TrafficConfig,
    generate_schedule,
    run_serving,
)
from repro.sim.metrics import Metrics
from repro.trace.histogram import StreamingHistogram

SAMPLES = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=120,
)


# -- histogram merge ---------------------------------------------------------


@given(shards=st.lists(SAMPLES, min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_merged_histogram_equals_concatenated_stream(shards):
    merged = StreamingHistogram()
    flat = StreamingHistogram()
    for samples in shards:
        per_shard = StreamingHistogram()
        for v in samples:
            per_shard.record(v)
            flat.record(v)
        merged.merge(per_shard)
    assert merged.count == flat.count
    assert merged.buckets == flat.buckets
    for p in (50.0, 90.0, 95.0, 99.0, 100.0):
        assert merged.percentile(p) == flat.percentile(p)


@given(shards=st.lists(SAMPLES, min_size=2, max_size=8))
@settings(max_examples=80, deadline=None)
def test_merged_percentiles_bracketed_by_shard_extremes(shards):
    hists = []
    for samples in shards:
        h = StreamingHistogram()
        for v in samples:
            h.record(v)
        hists.append(h)
    merged = StreamingHistogram()
    for h in hists:
        merged.merge(h)
    lo = min(h.percentile(0.0) for h in hists)
    hi = max(h.percentile(100.0) for h in hists)
    for p in (50.0, 95.0, 99.0):
        assert lo <= merged.percentile(p) <= hi


def test_cluster_merged_latency_is_per_shard_sum():
    config = ClusterConfig(n_shards=4, n_keys=128, runtime="aifm")
    cluster = ShardedCluster(config)
    schedule = generate_schedule(
        TrafficConfig(clients=16, requests_per_client=25, n_keys=128, seed=3)
    )
    report, _ = run_serving(cluster, schedule)
    merged = cluster.merged_latency()
    assert merged.count == sum(s.latency.count for s in cluster.shards.values())
    assert merged.count == report.requests
    by_hand = StreamingHistogram()
    for _sid, shard in sorted(cluster.shards.items()):
        by_hand.merge(shard.latency)
    assert by_hand.buckets == merged.buckets
    assert report.latency_percentiles["p50"] == merged.percentile(50.0)
    assert report.latency_percentiles["p99"] == merged.percentile(99.0)


# -- open-loop arrival determinism -------------------------------------------


def test_schedule_bit_identical_under_fixed_seed():
    config = TrafficConfig(clients=50, requests_per_client=20, n_keys=512, seed=42)
    a = generate_schedule(config)
    b = generate_schedule(config)
    assert a.fingerprint() == b.fingerprint()
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.writes, b.writes)
    assert np.array_equal(a.tenants, b.tenants)


def test_schedule_rows_match_per_row_conversion():
    """``rows()`` converts in blocks; every row equals the per-index
    scalar conversion, across block boundaries."""
    from repro.serve.traffic import ROWS_BLOCK

    config = TrafficConfig(clients=3, requests_per_client=ROWS_BLOCK, n_keys=64, seed=5)
    schedule = generate_schedule(config)
    rows = list(schedule.rows())
    assert len(rows) == len(schedule) > 2 * ROWS_BLOCK
    for i in (0, 1, ROWS_BLOCK - 1, ROWS_BLOCK, 2 * ROWS_BLOCK + 1, len(rows) - 1):
        expected = (
            float(schedule.times[i]), int(schedule.clients[i]),
            int(schedule.tenants[i]), int(schedule.keys[i]), bool(schedule.writes[i]),
        )
        assert rows[i] == expected
        assert [type(v) for v in rows[i]] == [float, int, int, int, bool]


def test_schedule_diverges_across_seeds():
    base = TrafficConfig(clients=50, requests_per_client=20, n_keys=512, seed=42)
    other = TrafficConfig(clients=50, requests_per_client=20, n_keys=512, seed=43)
    assert generate_schedule(base).fingerprint() != generate_schedule(other).fingerprint()


def test_schedule_is_time_sorted_and_open_loop():
    config = TrafficConfig(
        clients=20, requests_per_client=50, n_keys=256, seed=9,
        mean_interarrival_cycles=10_000.0,
    )
    schedule = generate_schedule(config)
    assert len(schedule) == config.total_requests
    assert np.all(np.diff(schedule.times) >= 0.0)
    # Open loop: per-client arrivals are strictly increasing cumulative
    # exponential sums, independent of any service feedback.
    for client in (0, 7, 19):
        mine = schedule.times[schedule.clients == client]
        assert len(mine) == config.requests_per_client
        assert np.all(np.diff(mine) > 0.0)
    # Tenant assignment is positional, not random.
    assert np.array_equal(schedule.tenants, schedule.clients % config.tenants)
    # The mean inter-arrival tracks the configured rate (law of large
    # numbers at this sample size; deterministic given the seed).
    gaps = np.diff(np.sort(schedule.times[schedule.clients == 0]))
    assert 0.5 * config.mean_interarrival_cycles < gaps.mean() < 2.0 * config.mean_interarrival_cycles


def test_serving_report_deterministic_end_to_end():
    config = ClusterConfig(n_shards=4, n_keys=128, runtime="trackfm")
    schedule = generate_schedule(
        TrafficConfig(clients=16, requests_per_client=25, n_keys=128, seed=3)
    )
    r1, _ = run_serving(ShardedCluster(config), schedule)
    r2, _ = run_serving(ShardedCluster(config), schedule)
    assert r1.to_dict() == r2.to_dict()


# -- sparse metrics aggregation (the BENCH fingerprint regression) -----------


def test_aggregate_keeps_sparse_counters_sparse():
    shards = []
    for _ in range(4):
        m = Metrics()
        m.cycles = 100.0
        m.accesses = 10
        m.count_guard(GuardKind.FAST, 5)
        shards.append(m)
    total = Metrics.aggregate(shards)
    d = total.as_dict()
    # Fault-free aggregation must serialize exactly like a fresh
    # fault-free bundle: no resilience keys, no zero guard entries.
    for key in ("drops", "timeouts", "retries", "degraded_accesses",
                "deferred_writebacks", "corruptions_detected",
                "corruptions_repaired", "quarantined_objects",
                "journal_replays"):
        assert key not in d
    assert d["guards"] == {"fast": 20}


def test_merge_does_not_materialize_zero_guard_entries():
    target = Metrics()
    source = Metrics()
    source.guards[GuardKind.SLOW] = 0  # an explicit zero entry
    source.count_guard(GuardKind.FAST, 3)
    target.merge(source)
    assert GuardKind.SLOW not in target.guards
    assert target.as_dict()["guards"] == {"fast": 3}


def test_aggregated_fault_free_serialization_matches_fresh_bundle():
    fresh = Metrics()
    fresh.cycles = 40.0
    fresh.accesses = 4
    parts = []
    for _ in range(4):
        m = Metrics()
        m.cycles = 10.0
        m.accesses = 1
        parts.append(m)
    assert Metrics.aggregate(parts).as_dict() == fresh.as_dict()


def test_cluster_fault_free_metrics_stay_sparse():
    cluster = ShardedCluster(ClusterConfig(n_shards=4, n_keys=64, runtime="aifm"))
    schedule = generate_schedule(
        TrafficConfig(clients=8, requests_per_client=10, n_keys=64, seed=1)
    )
    run_serving(cluster, schedule)
    d = cluster.merged_metrics().as_dict()
    assert "drops" not in d and "retries" not in d
    assert "degraded_accesses" not in d
    assert all(n > 0 for n in d["guards"].values())


def test_from_dict_drops_zero_guard_entries():
    m = Metrics.from_dict({"cycles": 1.0, "guards": {"fast": 2, "slow": 0}})
    assert m.guards == {GuardKind.FAST: 2}


# -- tenant quotas ------------------------------------------------------------


def test_tenant_quota_bounds_residency_and_expels():
    config = ClusterConfig(
        n_shards=1, n_keys=512, runtime="aifm",
        local_memory=16 * 1024, tenant_quota_bytes=1024,  # 4 objects
    )
    cluster = ShardedCluster(config)
    quota = config.tenant_quota_objects
    # One tenant streams over far more objects than its quota allows:
    # slots pack 32 keys per 256-byte object, so 512 keys = 16 objects
    # against a 4-object budget.
    for key in range(512):
        cluster.serve(key, tenant=0)
        assert cluster.shards[0].tenant_residency(0) <= quota
    shard = cluster.shards[0]
    assert shard.metrics.evictions > 0, "quota breaches must expel"
    # A second tenant gets its own budget, unaffected by the first.
    for key in range(3, 64, 8):
        cluster.serve(key, tenant=1)
    assert shard.tenant_residency(1) <= quota
