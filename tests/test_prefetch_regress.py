"""The ``python -m repro.bench pprefetch`` measurement and checked-in
baselines; the gate's mechanics are in ``test_baseline_gates.py``."""

import json

from repro.bench.baseline import check
from repro.bench.prefetch_regress import GATE, measure_bench

CHECKED_IN = "benchmarks/baselines"


class TestMeasurement:
    def test_programmed_beats_stride_on_stream(self):
        data = measure_bench("stream")
        assert data["programmed"]["demand_misses"] <= data["stride"]["demand_misses"]
        assert data["programmed"]["demand_misses"] == 0
        assert data["programmed"]["cycles"] < data["stride"]["cycles"]
        # Scheduling moves fetches earlier; it must not add traffic.
        assert data["programmed"]["bytes_fetched"] == data["stride"]["bytes_fetched"]
        assert data["programmed"]["value"] == data["stride"]["value"]

    def test_nas_kernel_covered(self):
        data = measure_bench("nas_cg")
        assert data["programmed"]["demand_misses"] <= data["stride"]["demand_misses"]
        assert data["programmed"]["value"] == data["stride"]["value"]


class TestCheckedInBaselines:
    def test_checked_in_baselines_hold(self):
        report = check(GATE, CHECKED_IN)
        assert report["ok"], json.dumps(report, indent=2, default=str)

