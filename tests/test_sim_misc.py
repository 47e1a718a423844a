"""Metrics, the local runtime, Che edge cases."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.machine.costs import GuardKind
from repro.sim.che import characteristic_time, lru_hit_rate, per_granule_hit_rates
from repro.sim.local import LocalRuntime
from repro.sim.metrics import Metrics


class TestMetrics:
    def test_guard_counting(self):
        m = Metrics()
        m.count_guard(GuardKind.FAST, 3)
        m.count_guard(GuardKind.SLOW)
        assert m.guard_count(GuardKind.FAST) == 3
        assert m.total_guards == 4
        assert m.slow_path_guards == 1

    def test_custody_miss_not_in_total_wait(self):
        m = Metrics()
        m.count_guard(GuardKind.CUSTODY_MISS, 5)
        assert m.total_guards == 5  # custody misses still execute guard code
        m2 = Metrics()
        m2.count_guard(GuardKind.NONE, 5)
        assert m2.total_guards == 0

    def test_amplification(self):
        m = Metrics(bytes_fetched=3000, bytes_evacuated=1000)
        assert m.amplification(1000) == 4.0
        assert m.amplification(0) == 0.0

    def test_merge(self):
        a = Metrics(cycles=10, accesses=1, major_faults=2)
        a.count_guard(GuardKind.FAST, 1)
        b = Metrics(cycles=5, accesses=2, minor_faults=3)
        b.count_guard(GuardKind.FAST, 2)
        a.merge(b)
        assert a.cycles == 15
        assert a.accesses == 3
        assert a.guard_count(GuardKind.FAST) == 3
        assert a.total_faults == 5

    def test_snapshot_is_independent(self):
        m = Metrics(cycles=1)
        m.count_guard(GuardKind.SLOW)
        snap = m.snapshot()
        m.cycles = 99
        m.count_guard(GuardKind.SLOW)
        assert snap.cycles == 1
        assert snap.guard_count(GuardKind.SLOW) == 1

    def test_reset(self):
        m = Metrics(cycles=5, bytes_fetched=10)
        m.count_guard(GuardKind.FAST)
        m.reset()
        assert m.cycles == 0 and m.bytes_fetched == 0 and m.total_guards == 0


class TestLocalRuntime:
    def test_access_cost(self):
        rt = LocalRuntime()
        assert rt.access(0) == 36.0

    def test_scan_with_body_override(self):
        rt = LocalRuntime()
        assert rt.sequential_scan(0, 100, 8, body_cycles=10.0) == 1000.0

    def test_never_faults(self):
        rt = LocalRuntime()
        for i in range(100):
            rt.access(i * 4096)
        assert rt.metrics.major_faults == 0
        assert rt.metrics.remote_fetches == 0


class TestChe:
    def test_uniform_hit_rate_equals_capacity_fraction(self):
        masses = np.ones(100)
        hr = lru_hit_rate(masses, 50)
        # For uniform traffic, LRU ~= capacity/active-set.
        assert hr == pytest.approx(0.5, abs=0.1)

    def test_skew_beats_uniform(self):
        n = 1000
        uniform = np.ones(n)
        skewed = np.arange(1, n + 1, dtype=np.float64) ** -1.3
        assert lru_hit_rate(skewed, 50) > lru_hit_rate(uniform, 50)

    def test_zero_capacity(self):
        assert lru_hit_rate(np.ones(10), 0) == 0.0

    def test_capacity_exceeds_granules(self):
        assert lru_hit_rate(np.ones(10), 100) == 1.0

    def test_characteristic_time_increases_with_capacity(self):
        masses = np.arange(1, 101, dtype=np.float64) ** -1.1
        t_small = characteristic_time(masses / masses.sum(), 10)
        t_big = characteristic_time(masses / masses.sum(), 50)
        assert t_big > t_small

    def test_characteristic_time_infinite_when_everything_fits(self):
        assert characteristic_time(np.ones(4) / 4, 4) == float("inf")

    def test_per_granule_rates_shape(self):
        masses = np.ones(10)
        rates = per_granule_hit_rates(masses, 5)
        assert rates.shape == (10,)
        assert np.all((0 <= rates) & (rates <= 1))

    def test_errors(self):
        with pytest.raises(WorkloadError):
            characteristic_time(np.array([]), 1)
        with pytest.raises(WorkloadError):
            characteristic_time(np.zeros(5), 1)
        assert lru_hit_rate(np.zeros(5), 2) == 0.0
