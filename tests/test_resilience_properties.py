"""Property-based tests for the resilience primitives.

Hypothesis drives :class:`RetryPolicy` (backoff monotone non-decreasing
and capped, jitter inside its band, retry budget never exceeded,
seed-determinism), the :class:`CircuitBreaker` state machine
(closed → open → half-open transitions; an open breaker never serves;
``quiet`` is exactly "closed, no failure on record"), and an armed :class:`RemoteBackend` against a reference that runs its
retry loop around every message (a quiet breaker's send goes straight
to the link, and must change nothing).
"""

from __future__ import annotations

import enum

from hypothesis import example, given, settings, strategies as st

from repro.errors import FarMemoryUnavailableError, TransientNetworkError
from repro.net.backends import RemoteBackend
from repro.net.faults import BreakerState, CircuitBreaker, FaultPlan, RetryPolicy
from repro.net.link import NetworkLink, TransferDirection
from repro.sim.metrics import Metrics

policy_strategy = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=16),
    timeout_cycles=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    base_backoff_cycles=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    backoff_multiplier=st.floats(min_value=1.0, max_value=8.0, allow_nan=False),
    max_backoff_cycles=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    jitter_fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32),
)


class TestRetryPolicyProperties:
    @given(policy_strategy)
    @settings(max_examples=100, deadline=None)
    def test_base_backoff_monotone_and_capped(self, policy):
        series = [policy.base_backoff(a) for a in range(1, 20)]
        assert series == sorted(series)
        assert all(b <= policy.max_backoff_cycles for b in series)
        assert all(b >= 0.0 for b in series)

    @given(policy_strategy, st.integers(min_value=1, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_jitter_stays_in_band(self, policy, attempt):
        base = policy.base_backoff(attempt)
        jittered = policy.backoff_cycles(attempt)
        assert base <= jittered <= base * (1.0 + policy.jitter_fraction)

    @given(policy_strategy)
    @settings(max_examples=100, deadline=None)
    def test_never_retries_past_max_attempts(self, policy):
        assert not policy.should_retry(policy.max_attempts)
        assert not policy.should_retry(policy.max_attempts + 5)

    @given(
        policy_strategy,
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_budget_never_exceeded(self, policy, budget, demands):
        policy.retry_budget = budget
        granted = 0
        for _ in range(demands):
            # Model a fresh request whose first attempt failed.
            if policy.should_retry(1) and policy.max_attempts > 1:
                policy.consume_retry()
                granted += 1
        assert policy.retries_used <= budget
        assert granted == policy.retries_used

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_seeded_jitter_is_deterministic(self, seed, attempts):
        def sequence():
            p = RetryPolicy(max_attempts=16, jitter_fraction=0.3, seed=seed)
            out = []
            for a in range(1, attempts + 1):
                out.append(p.backoff_cycles(a))
                p.consume_retry()
            return out

        assert sequence() == sequence()


class _Op(enum.Enum):
    ALLOW = "allow"
    SUCCESS = "success"
    FAILURE = "failure"


ops_strategy = st.lists(st.sampled_from(list(_Op)), min_size=0, max_size=200)


class TestCircuitBreakerProperties:
    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_threshold_failures_trip_the_breaker(self, threshold, cooldown):
        b = CircuitBreaker(failure_threshold=threshold, cooldown_rejections=cooldown)
        for _ in range(threshold - 1):
            b.record_failure()
            assert b.state is BreakerState.CLOSED
        b.record_failure()
        assert b.state is BreakerState.OPEN
        assert b.trips == 1

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_open_rejects_until_cooldown_then_probes(self, threshold, cooldown):
        b = CircuitBreaker(failure_threshold=threshold, cooldown_rejections=cooldown)
        for _ in range(threshold):
            b.record_failure()
        # The first cooldown-1 requests bounce; the next is the probe.
        for _ in range(cooldown - 1):
            assert not b.allow()
            assert b.state is BreakerState.OPEN
        assert b.allow()
        assert b.state is BreakerState.HALF_OPEN

    def test_half_open_probe_outcomes(self):
        def tripped():
            b = CircuitBreaker(failure_threshold=1, cooldown_rejections=1)
            b.record_failure()
            assert b.allow()  # straight to the probe (cooldown=1)
            assert b.state is BreakerState.HALF_OPEN
            return b

        good = tripped()
        good.record_success()
        assert good.state is BreakerState.CLOSED

        bad = tripped()
        bad.record_failure()
        assert bad.state is BreakerState.OPEN
        assert bad.trips == 2

    @given(
        ops_strategy,
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_serves_while_open(self, ops, threshold, cooldown):
        """Model check over arbitrary op interleavings."""
        b = CircuitBreaker(failure_threshold=threshold, cooldown_rejections=cooldown)
        assert b.quiet
        for op in ops:
            if op is _Op.ALLOW:
                served = b.allow()
                # An open breaker never serves: if the request went
                # through, the breaker is closed or probing.
                assert served == (b.state is not BreakerState.OPEN)
            elif op is _Op.SUCCESS:
                b.record_success()
                assert b.state is BreakerState.CLOSED
                assert b.consecutive_failures == 0
            else:
                b.record_failure()
            # Global invariants.
            assert b.state in BreakerState
            if b.state is BreakerState.CLOSED:
                assert b.consecutive_failures < b.failure_threshold or b.trips == 0
            assert b.rejections_while_open <= b.cooldown_rejections
            assert b.quiet == (b.state is BreakerState.CLOSED and b.consecutive_failures == 0)

    @given(ops_strategy)
    @settings(max_examples=100, deadline=None)
    def test_trips_counts_open_transitions(self, ops):
        b = CircuitBreaker(failure_threshold=2, cooldown_rejections=2)
        opens = 0
        for op in ops:
            before = b.state
            if op is _Op.ALLOW:
                b.allow()
            elif op is _Op.SUCCESS:
                b.record_success()
            else:
                b.record_failure()
            if before is not BreakerState.OPEN and b.state is BreakerState.OPEN:
                opens += 1
        assert b.trips == opens


# -- the armed backend's quiet send -------------------------------------------


class _LoopEveryMessage(RemoteBackend):
    """The reference: an armed backend sends every message through the
    retry loop, ``allow`` before each attempt and ``record_success`` or
    ``record_failure`` after it, whatever the breaker's state."""

    def fetch(self, size_bytes, depth=1, obj_id=None):
        return self._loop(
            lambda: self.link.transfer(size_bytes, TransferDirection.FETCH, depth)
        )

    def evict(self, size_bytes, depth=1):
        return self._loop(
            lambda: self.link.transfer(size_bytes, TransferDirection.EVICT, depth)
        )

    def admit(self, size_bytes):
        faults = self.link.faults
        if faults is None:
            return 0.0
        return self._loop(lambda: faults.roll(size_bytes))

    def _loop(self, attempt_fn):
        policy = self.retry_policy
        breaker = self.breaker
        if policy is None and breaker is None:
            return attempt_fn()
        penalty = 0.0
        attempt = 0
        while True:
            if breaker is not None and not breaker.allow():
                raise FarMemoryUnavailableError(
                    f"{self.name}: circuit breaker open "
                    f"({breaker.consecutive_failures} consecutive failures)"
                )
            attempt += 1
            try:
                cost = attempt_fn()
            except TransientNetworkError as err:
                if breaker is not None:
                    breaker.record_failure()
                penalty += policy.timeout_cycles if policy is not None else 0.0
                self.metrics.drops += 1
                self.metrics.timeouts += 1
                self.tracer.fault(err.kind, err.message_index, float(self.metrics.cycles))
                if policy is None or not policy.should_retry(attempt):
                    raise FarMemoryUnavailableError(
                        f"{self.name}: gave up after {attempt} attempt(s) "
                        f"(last loss: {err})"
                    ) from err
                backoff = policy.backoff_cycles(attempt)
                policy.consume_retry()
                penalty += backoff
                self.metrics.retries += 1
                self.tracer.retry(attempt, backoff, float(self.metrics.cycles))
                continue
            if breaker is not None:
                breaker.record_success()
            return cost + penalty


class _Events:
    """Records the ``fault`` and ``retry`` events a backend emits."""

    enabled = True

    def __init__(self):
        self.events = []

    def fault(self, kind, index, now):
        self.events.append(("fault", kind, index, now))

    def retry(self, attempt, backoff, now):
        self.events.append(("retry", attempt, backoff, now))


fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**32),
    drop_rate=st.one_of(
        st.sampled_from([0.0, 1.0]), st.floats(min_value=0.05, max_value=0.95)
    ),
    spike_rate=st.sampled_from([0.0, 0.3]),
    spike_cycles=st.sampled_from([0.0, 5_000.0]),
    jitter_cycles=st.sampled_from([0.0, 200.0]),
    pause_windows=st.sampled_from([(), ((4, 9),)]),
)
retry_policies = st.one_of(st.none(), st.fixed_dictionaries({
    "max_attempts": st.integers(min_value=1, max_value=5),
    "retry_budget": st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    "seed": st.integers(min_value=0, max_value=2**16),
}))
breakers = st.one_of(st.none(), st.fixed_dictionaries({
    "failure_threshold": st.integers(min_value=1, max_value=5),
    "cooldown_rejections": st.integers(min_value=1, max_value=5),
}))
messages = st.lists(
    st.tuples(
        st.sampled_from(["fetch", "evict", "admit"]),
        st.sampled_from([64, 4096]),
        st.integers(min_value=1, max_value=4),
    ),
    max_size=60,
)


def _armed(cls, plan, policy, breaker):
    link = NetworkLink(latency_cycles=1_000.0)
    link.faults = plan.schedule()
    return cls(
        link,
        name="armed",
        retry_policy=RetryPolicy(**policy) if policy is not None else None,
        breaker=CircuitBreaker(**breaker) if breaker is not None else None,
        metrics=Metrics(),
        tracer=_Events(),
    )


def _send(backend, op, size, depth):
    """One message: ``("ok", cycles)`` or the exception's type and text."""
    try:
        if op == "fetch":
            cycles = backend.fetch(size, depth)
        elif op == "evict":
            cycles = backend.evict(size, depth)
        else:
            cycles = backend.admit(size)
    except (FarMemoryUnavailableError, TransientNetworkError) as exc:
        return type(exc).__name__, str(exc)
    backend.metrics.cycles += cycles
    return "ok", cycles


def _state(backend):
    link = backend.link
    metrics = backend.metrics
    breaker = backend.breaker
    policy = backend.retry_policy
    return (
        vars(link.stats),
        vars(link.faults.stats),
        (metrics.drops, metrics.timeouts, metrics.retries, metrics.cycles),
        None if breaker is None else (
            breaker.state, breaker.consecutive_failures,
            breaker.rejections_while_open, breaker.trips, breaker.quiet,
        ),
        None if policy is None else policy.retries_used,
        backend.tracer.events,
    )


#: One message of each kind, repeated.
_MIXED = [("fetch", 64, 1), ("evict", 4096, 2), ("admit", 4096, 1)] * 12


class TestArmedBackendMatchesTheLoopEveryMessage:
    @given(fault_plans, retry_policies, breakers, messages)
    # A give-up leaves a closed breaker with a failure on record, which
    # the next success must clear.
    @example(FaultPlan(seed=3, drop_rate=0.5), None,
             {"failure_threshold": 3, "cooldown_rejections": 2}, _MIXED)
    # Every message lost: the breaker trips, rejects while open, probes.
    @example(FaultPlan(seed=1, drop_rate=1.0), None,
             {"failure_threshold": 1, "cooldown_rejections": 3}, _MIXED)
    # Retries that succeed after a loss, inside one message.
    @example(FaultPlan(seed=7, drop_rate=0.5, spike_rate=0.3, spike_cycles=5_000.0),
             {"max_attempts": 4, "retry_budget": None, "seed": 1},
             {"failure_threshold": 5, "cooldown_rejections": 2}, _MIXED)
    # No breaker: the policy alone retries, from the first loss on.
    @example(FaultPlan(seed=2, drop_rate=0.5, pause_windows=((4, 9),)),
             {"max_attempts": 3, "retry_budget": 4, "seed": 5}, None, _MIXED)
    @settings(max_examples=300, deadline=None)
    def test_same_cycles_errors_counters_and_breaker(self, plan, policy, breaker, ops):
        backend = _armed(RemoteBackend, plan, policy, breaker)
        reference = _armed(_LoopEveryMessage, plan, policy, breaker)
        for op, size, depth in ops:
            assert _send(backend, op, size, depth) == _send(reference, op, size, depth)
            assert _state(backend) == _state(reference)

    def test_a_lossy_link_leaves_the_quiet_state_and_returns(self):
        """Between messages the breaker is quiet, closed with a failure on
        record, or open; a half-open probe closes or re-trips it within
        its own message."""
        backend = _armed(
            RemoteBackend, FaultPlan(seed=3, drop_rate=0.5),
            {"max_attempts": 1}, {"failure_threshold": 2, "cooldown_rejections": 2},
        )
        seen = set()
        for _ in range(200):
            _send(backend, "fetch", 64, 1)
            breaker = backend.breaker
            seen.add((breaker.state, breaker.quiet))
        assert seen == {
            (BreakerState.CLOSED, True),
            (BreakerState.CLOSED, False),
            (BreakerState.OPEN, False),
        }
        assert backend.breaker.trips > 1
