#!/usr/bin/env python3
"""Taxi-trip analytics on far memory (the paper's §4.5 application).

Runs a real (synthetic-data) analysis with the columnar dataframe
substrate, then costs the *same access plans* on the runtimes of the
four systems of Fig. 14 — local-only, TrackFM, Fastswap, AIFM — across
a local-memory sweep, and shows the Fig. 15 chunking-policy comparison.

Run:  python examples/taxi_analytics.py
"""

from repro.bench.harness import model_aifm, model_fastswap, model_trackfm
from repro.sim.local import LocalRuntime
from repro.units import BASE_PAGE, MB, fmt_bytes
from repro.workloads.analytics import (
    AnalyticsChunking,
    AnalyticsWorkload,
    build_taxi_frame,
)

WORKING_SET = 31 * MB  # the paper's 31 GB, scaled 1024x
SWEEP = (0.1, 0.25, 0.5, 0.75, 1.0)


def run_real_analysis() -> None:
    """The actual data analysis, on a small frame with real values."""
    frame = build_taxi_frame(n_rows=50_000, with_values=True)
    print("== the analysis itself (50K synthetic trips) ==")
    mean_dist = frame.scan_mean("trip_distance")
    long_trips = frame.filter_count("trip_distance", lambda d: d > 5.0)
    frame.combine("fare", "trip_distance", "fare_per_mile", lambda f, d: f / (d + 1e-9))
    mean_fpm = frame.scan_mean("fare_per_mile")
    hourly = frame.groupby_agg("pickup_hour", "fare", n_groups=24)
    busiest = max(hourly, key=hourly.get)
    print(f"  mean trip distance : {mean_dist:.2f} miles")
    print(f"  trips over 5 miles : {long_trips}")
    print(f"  mean fare per mile : ${mean_fpm:.2f}")
    print(f"  priciest hour      : {busiest}:00 (avg fare ${hourly[busiest]:.2f})")


def run_far_memory_comparison() -> None:
    print(f"\n== far-memory comparison ({fmt_bytes(WORKING_SET)} working set) ==")
    wl = AnalyticsWorkload(working_set=WORKING_SET)
    local_cycles, _ = wl.run_local(LocalRuntime())
    header = f"{'local mem':>10} | {'TrackFM':>8} {'Fastswap':>9} {'AIFM':>7}"
    print(header)
    print("-" * len(header))
    for frac in SWEEP:
        local = max(BASE_PAGE, int(WORKING_SET * frac))
        row = [f"{frac:>9.0%}"]
        for cycles, _ in (
            wl.run_trackfm(model_trackfm(BASE_PAGE, local)),
            wl.run_fastswap(model_fastswap(local)),
            wl.run_aifm(model_aifm(BASE_PAGE, local)),
        ):
            row.append(f"{cycles / local_cycles:>8.2f}x")
        print(" | ".join([row[0], " ".join(row[1:])]))
    print("(slowdown vs local-only; paper: TrackFM within 10% of AIFM)")


def run_chunking_policy_study() -> None:
    print("\n== chunking policy (Fig. 15) at 25% local memory ==")
    wl = AnalyticsWorkload(working_set=WORKING_SET)
    local_cycles, _ = wl.run_local(LocalRuntime())
    local = WORKING_SET // 4
    for policy in AnalyticsChunking:
        cycles, metrics = wl.run_trackfm(model_trackfm(BASE_PAGE, local), policy)
        print(
            f"  {policy.value:<24}: {cycles / local_cycles:5.2f}x slowdown, "
            f"{metrics.slow_path_guards:,} slow/locality guards"
        )
    print("(chunking the low-density aggregation loops is a loss)")


def main() -> None:
    run_real_analysis()
    run_far_memory_comparison()
    run_chunking_policy_study()


if __name__ == "__main__":
    main()
