"""Property-based tests for Metrics and the streaming histogram.

Hypothesis-generated counter bundles and sample streams check the
algebra the observability layer leans on: ``merge`` is associative and
commutative, ``snapshot`` isolates, ``as_dict``/``from_dict`` round-trip
losslessly, histogram percentiles are monotone, and merging histograms
equals recording the concatenated stream.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings, strategies as st

from repro.machine.costs import GuardKind
from repro.sim.metrics import Metrics
from repro.trace import StreamingHistogram

_COUNTER_FIELDS = (
    "accesses", "minor_faults", "major_faults", "remote_fetches",
    "bytes_fetched", "bytes_evacuated", "evictions",
    "prefetches_issued", "prefetches_useful",
    "drops", "timeouts", "retries", "degraded_accesses",
    "deferred_writebacks",
    "corruptions_detected", "corruptions_repaired",
    "quarantined_objects", "journal_replays",
)

metrics_strategy = st.builds(
    lambda cycles, counters, guards: _make_metrics(cycles, counters, guards),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    st.lists(
        st.integers(min_value=0, max_value=1_000_000),
        min_size=len(_COUNTER_FIELDS), max_size=len(_COUNTER_FIELDS),
    ),
    st.dictionaries(
        st.sampled_from(list(GuardKind)),
        st.integers(min_value=1, max_value=1_000_000),
        max_size=len(GuardKind),
    ),
)


def _make_metrics(cycles, counters, guards) -> Metrics:
    m = Metrics(cycles=cycles)
    for field, value in zip(_COUNTER_FIELDS, counters):
        setattr(m, field, value)
    for kind, n in guards.items():
        m.count_guard(kind, n)
    return m


def _equal(a: Metrics, b: Metrics) -> bool:
    return a.as_dict() == b.as_dict()


samples_strategy = st.lists(
    st.integers(min_value=0, max_value=10**9), min_size=0, max_size=200
)


class TestMetricsAlgebra:
    @given(metrics_strategy, metrics_strategy)
    @settings(max_examples=50, deadline=None)
    def test_merge_commutes(self, a, b):
        ab = a.snapshot()
        ab.merge(b)
        ba = b.snapshot()
        ba.merge(a)
        assert _equal(ab, ba)

    @given(metrics_strategy, metrics_strategy, metrics_strategy)
    @settings(max_examples=50, deadline=None)
    def test_merge_associates(self, a, b, c):
        left = a.snapshot()
        left.merge(b)
        left.merge(c)
        bc = b.snapshot()
        bc.merge(c)
        right = a.snapshot()
        right.merge(bc)
        # Integer counters associate exactly; the float cycle total only
        # up to rounding (IEEE addition is not associative).
        ld, rd = left.as_dict(), right.as_dict()
        assert math.isclose(ld.pop("cycles"), rd.pop("cycles"), rel_tol=1e-12)
        assert ld == rd

    @given(metrics_strategy)
    @settings(max_examples=50, deadline=None)
    def test_snapshot_isolates(self, m):
        snap = m.snapshot()
        before = snap.as_dict()
        m.cycles += 1000.0
        m.accesses += 5
        m.count_guard(GuardKind.SLOW, 3)
        assert snap.as_dict() == before

    @given(metrics_strategy)
    @settings(max_examples=50, deadline=None)
    def test_reset_zeroes_everything(self, m):
        m.reset()
        assert _equal(m, Metrics())
        assert m.total_guards == 0

    @given(metrics_strategy)
    @settings(max_examples=50, deadline=None)
    def test_as_dict_roundtrips_through_json(self, m):
        wire = json.dumps(m.as_dict())
        back = Metrics.from_dict(json.loads(wire))
        assert _equal(m, back)
        assert back.guards == m.guards


class TestHistogramProperties:
    @given(samples_strategy)
    @settings(max_examples=50, deadline=None)
    def test_percentiles_monotone(self, samples):
        h = StreamingHistogram()
        for s in samples:
            h.record(s)
        if h.count == 0:
            return
        values = [h.percentile(p) for p in (1, 10, 25, 50, 75, 90, 99, 100)]
        assert values == sorted(values)

    @given(samples_strategy)
    @settings(max_examples=50, deadline=None)
    def test_percentile_brackets_extremes(self, samples):
        h = StreamingHistogram()
        for s in samples:
            h.record(s)
        if h.count == 0:
            return
        # Bucket representatives sit within one bucket of the true
        # extremes; min/max themselves are tracked exactly.
        assert h.min == min(samples)
        assert h.max == max(samples)

    @given(
        st.floats(min_value=0.0, max_value=1e15, allow_nan=False),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_sample_lands_in_the_bucket_that_holds_it(self, value, sub_bits, count):
        """The rounded value lies in its bucket's range: exact below
        ``2**sub_bits``, then ``2**sub_bits`` equal sub-buckets of
        width ``2**shift`` per power of two."""
        h = StreamingHistogram(sub_bits)
        h.record(value, count)
        n = round(value)
        shift = max(0, n.bit_length() - (sub_bits + 1))
        lo = (n >> shift) << shift
        assert h.items() == [(float(lo + ((1 << shift) >> 1)), count)]

    @given(samples_strategy, samples_strategy)
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_concatenation(self, xs, ys):
        separate = StreamingHistogram()
        for s in xs:
            separate.record(s)
        other = StreamingHistogram()
        for s in ys:
            other.record(s)
        separate.merge(other)

        together = StreamingHistogram()
        for s in xs + ys:
            together.record(s)
        assert separate.to_dict() == together.to_dict()

    @given(samples_strategy)
    @settings(max_examples=50, deadline=None)
    def test_json_roundtrip_lossless(self, samples):
        h = StreamingHistogram()
        for s in samples:
            h.record(s)
        wire = json.dumps(h.to_dict())
        back = StreamingHistogram.from_dict(json.loads(wire))
        assert back.to_dict() == h.to_dict()
        if h.count:
            assert back.percentile(50) == h.percentile(50)
            assert back.mean == h.mean
