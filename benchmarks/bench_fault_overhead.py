"""Micro-check: the no-fault configuration costs one attribute check.

The resilience layer's hot-path contract (see ``repro.net.faults``)
mirrors the tracer's: a link without a fault schedule pays exactly one
attribute load + ``is None`` test in :meth:`NetworkLink.transfer`, and a
backend without a breaker, or whose breaker is ``quiet``, calls the
link straight from ``fetch``/``evict``.  This file asserts the
structural facts (a healthy run touches none of the resilience
machinery) and bounds the timing ratio, so a change that does real
work on the fault-free path fails the suite instead of silently taxing
every simulation.
"""

from __future__ import annotations

import time

from repro.net.backends import make_tcp_backend
from repro.net.faults import FaultPlan, RetryPolicy
from repro.net.link import NetworkLink, TransferDirection

N_TRANSFERS = 50_000
#: A faults-free link may cost at most this factor over the pre-feature
#: arithmetic.  The true cost is one attribute check; 1.5x leaves room
#: for timer noise on loaded CI machines while still catching any change
#: that does real work (rolling, hashing, allocation) when disabled.
MAX_DISABLED_RATIO = 1.5


def _drive(link: NetworkLink, n: int = N_TRANSFERS) -> float:
    started = time.perf_counter()
    for _ in range(n):
        link.transfer(256, TransferDirection.FETCH)
    return time.perf_counter() - started


def _best_of(fn, rounds: int = 5) -> float:
    return min(fn() for _ in range(rounds))


def test_default_configuration_has_no_fault_machinery():
    """Structural half: nothing resilience-shaped exists by default."""
    backend = make_tcp_backend()
    assert backend.link.faults is None
    assert backend.retry_policy is None
    assert backend.breaker is None
    assert not backend.resilient
    # And a healthy fetch leaves zero resilience traces behind.
    backend.fetch(4096)
    assert backend.link.faults is None


def test_noop_schedule_matches_no_schedule_cost_model():
    """A no-op plan's schedule returns the same cycle costs as no plan."""
    plain = NetworkLink(latency_cycles=1000.0)
    armed = NetworkLink(latency_cycles=1000.0)
    armed.faults = FaultPlan().schedule()
    for size in (0, 64, 4096):
        assert plain.transfer(size, TransferDirection.FETCH) == armed.transfer(
            size, TransferDirection.FETCH
        )


def test_resilient_fast_path_skips_retry_loop():
    """Policy installed + healthy link: cost is exactly the link cost."""
    healthy = make_tcp_backend()
    resilient = make_tcp_backend()
    resilient.retry_policy = RetryPolicy()
    assert resilient.fetch(4096) == healthy.fetch(4096)
    assert resilient.retry_policy.retries_used == 0


def test_no_fault_transfer_is_one_attribute_check():
    """Timing half: the ``faults is None`` gate is unmeasurable."""

    class PreFeatureLink(NetworkLink):
        """The transfer arithmetic without the faults gate (baseline)."""

        def transfer(self, size_bytes, direction, depth=1):
            cost = (
                self.transfer_cycles(size_bytes)
                if depth == 1
                else self.pipelined_cycles(size_bytes, depth)
            )
            self.stats.messages += 1
            if direction is TransferDirection.FETCH:
                self.stats.bytes_fetched += size_bytes
            else:
                self.stats.bytes_evicted += size_bytes
            self.stats.busy_cycles += cost
            return cost

    baseline = _best_of(lambda: _drive(PreFeatureLink(latency_cycles=1000.0)))
    current = _best_of(lambda: _drive(NetworkLink(latency_cycles=1000.0)))

    ratio = current / baseline if baseline > 0 else 1.0
    assert ratio < MAX_DISABLED_RATIO, (
        f"fault-free transfer slowed {ratio:.2f}x over the gate-free "
        f"baseline (limit {MAX_DISABLED_RATIO}x): something does work "
        f"when no faults are installed"
    )


def test_armed_schedule_actually_rolls():
    """Sanity counterpart: with a real plan the schedule does engage."""
    link = NetworkLink(latency_cycles=1000.0)
    link.faults = FaultPlan(seed=1, jitter_cycles=50.0).schedule()
    for _ in range(100):
        link.transfer(256, TransferDirection.FETCH)
    assert link.faults.stats.messages == 100
    assert link.faults.stats.extra_cycles > 0.0


def test_default_configuration_has_no_integrity_machinery():
    """Checksums disabled = nothing integrity-shaped exists or costs.

    The integrity layer's hot-path contract matches the fault layer's:
    with no checker attached, ``fetch`` pays one ``is None`` check, an
    ``obj_id`` argument is inert, and costs are bit-identical to the
    pre-feature arithmetic — so checked-in regress baselines need no
    update when integrity ships disabled.
    """
    backend = make_tcp_backend()
    assert backend.integrity is None
    plain_cost = backend.fetch(4096)
    assert backend.integrity is None  # a fetch attaches nothing
    # Naming an object on an integrity-free backend changes no cost.
    assert backend.fetch(4096, obj_id=7) == plain_cost
    assert backend.verify_payload(7, 4096) == 0.0


def test_clean_metrics_emit_no_integrity_counters():
    """Sparse-counter half: disabled integrity leaves no metric deltas."""
    from repro.sim.metrics import Metrics
    from repro.trace.drivers import run_traced

    integrity_keys = {
        "corruptions_detected", "corruptions_repaired",
        "quarantined_objects", "journal_replays",
    }
    assert not integrity_keys & set(Metrics().as_dict())
    # A whole clean run emits none of them either — the exact dict the
    # golden traces and regress baselines snapshot.
    result = run_traced("stream", "aifm", seed=0)
    assert not integrity_keys & set(result.metrics.as_dict())
