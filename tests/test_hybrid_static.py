"""The static hybrid against a reference that drives its two tiers.

:class:`~repro.hybrid.runtime.HybridRuntime` splits one arena: bytes
below the split are TrackFM objects, the rest kernel pages, and an
object access the object tier cannot serve falls back to a page-tier
shadow of the object range.  The reference below builds the same two
tiers and does that routing by hand; hypothesis draws the arena, the
split, the access stream and how dark the object tier's far node is,
and every access must cost the same cycles (or raise the same
``PointerError``) on both, with the same metrics at the end.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.aifm.pool import PoolConfig
from repro.errors import DataIntegrityError, FarMemoryUnavailableError, PointerError
from repro.fastswap.runtime import FastswapConfig, FastswapRuntime
from repro.hybrid.runtime import HybridRuntime
from repro.machine.costs import AccessKind
from repro.net.faults import CircuitBreaker, FaultPlan, RetryPolicy
from repro.sim.metrics import Metrics
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import BASE_PAGE, KB

LOCAL = 8 * KB
HEAP = 64 * KB
OBJECT_SIZE = 256
SIZE = 8


class _Reference:
    """The two tiers, built and routed by hand."""

    def __init__(self, arena: int, split: int) -> None:
        page_local = max(BASE_PAGE, LOCAL // 2)
        self.trackfm = TrackFMRuntime(
            PoolConfig(
                object_size=OBJECT_SIZE,
                local_memory=max(OBJECT_SIZE, LOCAL - page_local),
                heap_size=HEAP,
            )
        )
        self.fastswap = FastswapRuntime(
            FastswapConfig(local_memory=page_local, heap_size=HEAP)
        )
        self.arena, self.split = arena, split
        self.objects = self.trackfm.tfm_malloc(split)
        self.pages = self.fastswap.allocate(arena - split)
        self.shadow = None

    def access(self, offset: int, kind: AccessKind) -> float:
        split = self.split
        if offset < 0 or offset + SIZE > self.arena or offset < split < offset + SIZE:
            raise PointerError("outside the arena or across the split")
        if offset >= split:
            return self.fastswap.access(self.pages + offset - split, kind, SIZE)
        try:
            return self.trackfm.access(self.objects + offset, kind, SIZE)
        except (FarMemoryUnavailableError, DataIntegrityError):
            if self.shadow is None:
                self.shadow = self.fastswap.allocate(split)
            self.fastswap.metrics.degraded_accesses += 1
            return self.fastswap.access(self.shadow + offset, kind, SIZE)


def _darken(backend, drop_rate: float, seed: int) -> None:
    """Lose ``drop_rate`` of the object tier's messages, giving up fast."""
    backend.link.faults = FaultPlan(seed=seed, drop_rate=drop_rate).schedule()
    backend.retry_policy = RetryPolicy(
        max_attempts=2, timeout_cycles=5_000.0, base_backoff_cycles=1_000.0
    )
    backend.breaker = CircuitBreaker(failure_threshold=3, cooldown_rejections=4)


@st.composite
def _runs(draw):
    arena = draw(st.integers(min_value=2 * SIZE, max_value=16 * KB))
    split = draw(st.integers(min_value=1, max_value=arena - 1))
    offsets = st.integers(min_value=0, max_value=arena - SIZE)
    kinds = st.sampled_from([AccessKind.READ, AccessKind.WRITE])
    stream = draw(st.lists(st.tuples(offsets, kinds), min_size=1, max_size=60))
    drop_rate = draw(st.sampled_from([0.0, 0.3, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return arena, split, stream, drop_rate, seed


class TestAgainstReference:
    @given(_runs())
    @settings(max_examples=80, deadline=None)
    def test_routes_and_falls_back_like_the_reference(self, run):
        arena, split, stream, drop_rate, seed = run
        rt = HybridRuntime(LOCAL, HEAP, arena=arena, split=split, object_size=OBJECT_SIZE)
        ref = _Reference(arena, split)
        if drop_rate:
            _darken(rt.trackfm.pool.backend, drop_rate, seed)
            _darken(ref.trackfm.pool.backend, drop_rate, seed)
        for offset, kind in stream:
            try:
                expected = ref.access(offset, kind)
            except PointerError:
                with pytest.raises(PointerError):
                    rt.access(offset, kind, SIZE)
                continue
            assert rt.access(offset, kind, SIZE) == expected
        assert rt.trackfm.metrics.as_dict() == ref.trackfm.metrics.as_dict()
        assert rt.fastswap.metrics.as_dict() == ref.fastswap.metrics.as_dict()
        assert rt.metrics.as_dict() == Metrics.aggregate(
            [ref.trackfm.metrics, ref.fastswap.metrics]
        ).as_dict()

    def test_a_dark_object_tier_is_served_by_the_page_tier(self):
        rt = HybridRuntime(LOCAL, HEAP, arena=2 * KB, split=1 * KB)
        _darken(rt.trackfm.pool.backend, 1.0, 0)
        for offset in range(0, 1 * KB, OBJECT_SIZE):
            rt.access(offset)
        assert rt.fastswap.metrics.degraded_accesses == 1 * KB // OBJECT_SIZE
        assert rt.trackfm.metrics.remote_fetches == 0
