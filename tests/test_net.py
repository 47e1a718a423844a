"""Network link model, the calibrated backends, and fault-spec parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeConfigError, TransientNetworkError
from repro.net.backends import make_rdma_backend, make_tcp_backend
from repro.net.faults import FAULT_SPEC_KEYS, FaultPlan, parse_fault_spec
from repro.net.link import (
    BYTES_PER_CYCLE_25G,
    NetworkLink,
    TransferDirection,
)


class TestLink:
    def test_bandwidth_constant(self):
        # 25 Gb/s at 2.4 GHz ~= 1.30 bytes per cycle.
        assert BYTES_PER_CYCLE_25G == pytest.approx(1.302, rel=0.01)

    def test_transfer_cycles_components(self):
        link = NetworkLink(latency_cycles=1000, bytes_per_cycle=1.0, per_message_cycles=100)
        assert link.transfer_cycles(500) == 1000 + 100 + 500

    def test_pipelining_amortizes_latency(self):
        link = NetworkLink(latency_cycles=10_000, bytes_per_cycle=1.0, per_message_cycles=0)
        blocking = link.transfer_cycles(100)
        deep = link.pipelined_cycles(100, depth=16)
        assert deep < blocking
        # At infinite depth the cost approaches pure wire time.
        assert link.pipelined_cycles(100, depth=10_000) == pytest.approx(100, rel=0.2)

    def test_pipelined_bandwidth_bound(self):
        link = NetworkLink(latency_cycles=100, bytes_per_cycle=1.0, per_message_cycles=0)
        # Large messages: wire time dominates regardless of depth.
        assert link.pipelined_cycles(100_000, depth=8) >= 100_000

    def test_accounting(self):
        link = NetworkLink(latency_cycles=10, bytes_per_cycle=1.0)
        link.transfer(100, TransferDirection.FETCH)
        link.transfer(50, TransferDirection.EVICT)
        assert link.stats.messages == 2
        assert link.stats.bytes_fetched == 100
        assert link.stats.bytes_evicted == 50
        assert link.stats.total_bytes == 150
        assert link.stats.busy_cycles > 0
        link.stats.reset()
        assert link.stats.messages == 0

    def test_invalid_configs(self):
        with pytest.raises(RuntimeConfigError):
            NetworkLink(latency_cycles=-1)
        with pytest.raises(RuntimeConfigError):
            NetworkLink(latency_cycles=0, bytes_per_cycle=0)
        link = NetworkLink(latency_cycles=0)
        with pytest.raises(RuntimeConfigError):
            link.pipelined_cycles(10, depth=0)
        with pytest.raises(RuntimeConfigError):
            link.transfer(-1, TransferDirection.FETCH)


class TestLinkEdgeCases:
    """Pins for the ``reset()``/``pipelined_cycles`` corner cases."""

    def _link(self):
        return NetworkLink(
            latency_cycles=1000, bytes_per_cycle=1.0, per_message_cycles=100
        )

    def test_reset_clears_busy_cycles(self):
        link = self._link()
        link.transfer(100, TransferDirection.FETCH)
        assert link.stats.busy_cycles > 0
        link.stats.reset()
        assert link.stats.busy_cycles == 0.0
        assert link.stats.total_bytes == 0

    def test_depth_one_pipeline_is_blocking(self):
        # depth=1 means no overlap at all: the "pipelined" cost must be
        # exactly the blocking cost (the old formula double-counted the
        # per-message overhead: max(wire, lat+pm) + pm).
        link = self._link()
        assert link.pipelined_cycles(500, depth=1) == link.transfer_cycles(500)

    def test_transfer_rejects_nonpositive_depth(self):
        # depth=0 used to silently fall into the blocking branch.
        link = self._link()
        for depth in (0, -1, -8):
            with pytest.raises(RuntimeConfigError):
                link.transfer(100, TransferDirection.FETCH, depth=depth)
        assert link.stats.messages == 0  # nothing was accounted

    def test_zero_byte_transfer(self):
        # A zero-byte message still pays latency + per-message overhead
        # and counts as one message moving no bytes.
        link = self._link()
        cost = link.transfer(0, TransferDirection.FETCH)
        assert cost == 1000 + 100
        assert link.stats.messages == 1
        assert link.stats.bytes_fetched == 0

    def test_zero_byte_pipelined(self):
        link = self._link()
        assert link.pipelined_cycles(0, depth=8) == (1000 + 100) / 8 + 100 / 8

    def test_pipelined_monotone_in_depth(self):
        link = self._link()
        costs = [link.pipelined_cycles(500, d) for d in (1, 2, 4, 8, 16)]
        assert costs == sorted(costs, reverse=True)
        # And never better than the bandwidth bound.
        assert costs[-1] >= link.wire_cycles(500)


_FAULT_PLANS = st.one_of(
    st.none(),
    st.builds(
        FaultPlan,
        seed=st.integers(0, 2**32),
        drop_rate=st.sampled_from([0.0, 0.2]),
        spike_rate=st.floats(0.0, 1.0),
        spike_cycles=st.floats(0.0, 1e5),
        jitter_cycles=st.floats(0.0, 1e3),
    ),
)


class TestTransferPricing:
    """``transfer`` prices a message exactly as ``transfer_cycles`` (depth
    1) or ``pipelined_cycles`` (deeper) do, plus the fault schedule's
    extra, and books the same ``LinkStats`` as a reference fold."""

    @settings(max_examples=200, deadline=None)
    @given(
        latency=st.floats(0.0, 1e6),
        bytes_per_cycle=st.floats(1e-3, 1e3),
        per_message=st.floats(0.0, 1e5),
        plan=_FAULT_PLANS,
        messages=st.lists(
            st.tuples(
                st.integers(0, 1 << 20),
                st.integers(1, 64),
                st.sampled_from(list(TransferDirection)),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_transfer_matches_closed_forms(
        self, latency, bytes_per_cycle, per_message, plan, messages
    ):
        link = NetworkLink(latency, bytes_per_cycle, per_message)
        twin = None
        if plan is not None:
            link.faults, twin = plan.schedule(), plan.schedule()
        count = fetched = evicted = 0
        busy = 0.0
        for size, depth, direction in messages:
            try:
                extra = twin.roll(size) if twin is not None else 0.0
            except TransientNetworkError:
                with pytest.raises(TransientNetworkError):
                    link.transfer(size, direction, depth)
                continue
            base = (
                link.transfer_cycles(size)
                if depth == 1
                else link.pipelined_cycles(size, depth)
            )
            assert link.transfer(size, direction, depth) == base + extra
            count += 1
            if direction is TransferDirection.FETCH:
                fetched += size
            else:
                evicted += size
            busy += base + extra
            stats = link.stats
            assert (stats.messages, stats.bytes_fetched, stats.bytes_evicted) == (
                count, fetched, evicted
            )
            assert stats.busy_cycles == busy


class TestBackendsCalibration:
    def test_tcp_4kb_fetch_near_34_5k(self):
        # Table 2: TrackFM remote slow path ~35K incl. ~450-cycle guard.
        tcp = make_tcp_backend()
        assert tcp.fetch_cost(4096) == pytest.approx(34_500, rel=0.01)

    def test_rdma_4kb_fetch_near_32_7k(self):
        # Table 2: Fastswap fault 34K incl. ~1.3K kernel overhead.
        rdma = make_rdma_backend()
        assert rdma.fetch_cost(4096) == pytest.approx(32_700, rel=0.01)

    def test_small_fetches_latency_dominated(self):
        tcp = make_tcp_backend()
        assert tcp.fetch_cost(64) > 0.85 * tcp.fetch_cost(4096)

    def test_fetch_and_evict_account_bytes(self):
        tcp = make_tcp_backend()
        tcp.fetch(4096)
        tcp.evict(64)
        assert tcp.bytes_fetched == 4096
        assert tcp.bytes_evicted == 64

    def test_pipelined_fetch_cheaper(self):
        tcp = make_tcp_backend()
        assert tcp.fetch_cost(4096, depth=8) < tcp.fetch_cost(4096)

    def test_fetch_cost_does_not_account(self):
        tcp = make_tcp_backend()
        tcp.fetch_cost(4096)
        assert tcp.bytes_fetched == 0


class TestFaultSpecParsing:
    def test_corruption_keys_parse_into_rates(self):
        plan = parse_fault_spec("seed=2,bitflip=0.1,stale=0.2,torn=0.3,lostwb=0.4")
        assert plan == FaultPlan(
            seed=2,
            bitflip_rate=0.1,
            stale_read_rate=0.2,
            torn_write_rate=0.3,
            lost_writeback_rate=0.4,
        )
        assert plan.has_data_faults

    def test_unknown_key_error_enumerates_valid_keys(self):
        # The error message is the discovery surface for the spec
        # grammar: every key — including the corruption kinds — must be
        # listed, so a typo tells the operator what exists.
        with pytest.raises(RuntimeConfigError) as err:
            parse_fault_spec("bitflips=0.1")
        message = str(err.value)
        assert "valid keys" in message
        for key in FAULT_SPEC_KEYS:
            assert key in message
        for corruption_key in ("bitflip", "stale", "torn", "lostwb"):
            assert corruption_key in message

    def test_out_of_range_corruption_rate_rejected(self):
        with pytest.raises(RuntimeConfigError):
            parse_fault_spec("bitflip=1.5")
