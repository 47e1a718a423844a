"""Deterministic network fault injection and the resilience primitives.

The link/backends modules model a *healthy* fabric; production far
memory lives on one that drops messages, spikes, jitters and pauses
(AIFM's evaluation and the hybrid-data-plane line of work both hit
this).  This module supplies the failure half of the model plus the
machinery that survives it:

* :class:`FaultPlan` — a frozen, seeded description of a fault schedule
  (per-message drop probability, latency spikes, bounded jitter,
  remote-node pause windows).  Every decision is a pure function of
  ``(seed, message index)`` via a splitmix64 hash, so the same plan
  produces a bit-identical schedule on every run — no ``random`` module
  state, no wall clock;
* :class:`FaultSchedule` — the per-link materialization of a plan: it
  advances a message index, returns extra cycles (spike + jitter) for
  delivered messages and raises
  :class:`~repro.errors.TransientNetworkError` for lost ones;
* :class:`FaultyLink` — a :class:`~repro.net.link.NetworkLink` with a
  schedule attached (``FaultyLink.wrap`` decorates an existing link);
* :class:`RetryPolicy` — timeout accounting plus capped exponential
  backoff with seeded jitter and an optional lifetime retry budget;
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine, clocked in rejected requests so it needs no wall time;
* a process-wide *default plan* hook that the backend factories consult,
  which is how the ``--faults`` CLI knobs reach harness-built runtimes.

The healthy-path contract mirrors the tracer's: a link without faults
pays exactly one attribute check in ``transfer`` and a backend without a
policy or breaker takes a two-check fast path in ``fetch``/``evict``
(verified by ``benchmarks/bench_fault_overhead.py``).
"""

from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Tuple

from repro.errors import RuntimeConfigError, TransientNetworkError
from repro.hashing import splitmix64
from repro.net.link import NetworkLink

__all__ = [
    "CORRUPTION_KINDS",
    "FAULT_SPEC_KEYS",
    "FaultPlan",
    "FaultSchedule",
    "FaultStats",
    "FaultyLink",
    "RetryPolicy",
    "CircuitBreaker",
    "BreakerState",
    "parse_fault_spec",
    "default_fault_plan",
    "set_default_fault_plan",
    "installed_fault_plan",
]

_MASK64 = (1 << 64) - 1


def _unit(seed: int, index: int, salt: int) -> float:
    """Uniform [0, 1) derived purely from ``(seed, index, salt)``."""
    h = splitmix64((seed & _MASK64) ^ splitmix64((index << 8) ^ salt))
    return h / float(1 << 64)


#: Decision salts: independent uniforms per message for each fault kind.
_SALT_DROP = 0x1D
_SALT_SPIKE = 0x2E
_SALT_JITTER = 0x3F
#: Salt space for retry-backoff jitter (RetryPolicy).
_SALT_BACKOFF = 0x4A
#: Data-fault salts: payload corruption rolls run on their own counters.
_SALT_BITFLIP = 0x5B
_SALT_STALE = 0x6C
_SALT_TORN = 0x7D
_SALT_LOSTWB = 0x8E

#: The payload-corruption kinds a plan can inject (``repro.integrity``
#: classifies them: bitflip/stale_read are transmission faults repaired
#: by a re-fetch; torn_write/lost_writeback damage the remote copy and
#: need a journal re-drive).
CORRUPTION_KINDS = ("bitflip", "torn_write", "lost_writeback", "stale_read")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded fault schedule description (immutable; safe to share).

    ``pause_windows`` are half-open ``[start, end)`` *message-index*
    windows during which the remote node does not answer at all — every
    message rolled inside one is lost, which is how remote GC pauses and
    node crashes look from this side of the wire.
    """

    seed: int = 0
    #: Per-message loss probability.
    drop_rate: float = 0.0
    #: Per-message probability of a latency spike of ``spike_cycles``.
    spike_rate: float = 0.0
    spike_cycles: float = 0.0
    #: Uniform per-message jitter in ``[0, jitter_cycles)``.
    jitter_cycles: float = 0.0
    pause_windows: Tuple[Tuple[int, int], ...] = ()
    #: Data faults — per-*payload* corruption probabilities, rolled on
    #: separate counters from the message fates above so arming them
    #: never perturbs an existing loss/latency schedule.
    #: Fetch payloads: a flipped bit in flight / a stale version served.
    bitflip_rate: float = 0.0
    stale_read_rate: float = 0.0
    #: Writeback payloads: partially applied / acked but never applied.
    torn_write_rate: float = 0.0
    lost_writeback_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "drop_rate",
            "spike_rate",
            "bitflip_rate",
            "stale_read_rate",
            "torn_write_rate",
            "lost_writeback_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise RuntimeConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.spike_cycles < 0 or self.jitter_cycles < 0:
            raise RuntimeConfigError("spike/jitter cycles must be >= 0")
        for start, end in self.pause_windows:
            if start < 0 or end <= start:
                raise RuntimeConfigError(
                    f"pause window [{start}, {end}) must be non-empty and >= 0"
                )

    @property
    def is_noop(self) -> bool:
        """True when the plan can never perturb a message."""
        return (
            self.drop_rate == 0.0
            and (self.spike_rate == 0.0 or self.spike_cycles == 0.0)
            and self.jitter_cycles == 0.0
            and not self.pause_windows
            and not self.has_data_faults
        )

    @property
    def has_data_faults(self) -> bool:
        """True when the plan can corrupt a payload (vs just delay/lose it)."""
        return (
            self.bitflip_rate > 0.0
            or self.stale_read_rate > 0.0
            or self.torn_write_rate > 0.0
            or self.lost_writeback_rate > 0.0
        )

    def paused_at(self, index: int) -> bool:
        return any(start <= index < end for start, end in self.pause_windows)

    def decide(self, index: int) -> Tuple[Optional[str], float]:
        """The fate of message ``index``: ``(loss_kind | None, extra_cycles)``.

        Pure — two calls with the same index always agree, which is what
        makes schedules replayable and the chaos suite deterministic.
        """
        if self.paused_at(index):
            return "pause", 0.0
        if self.drop_rate > 0.0 and _unit(self.seed, index, _SALT_DROP) < self.drop_rate:
            return "drop", 0.0
        extra = 0.0
        if self.spike_rate > 0.0 and _unit(self.seed, index, _SALT_SPIKE) < self.spike_rate:
            extra += self.spike_cycles
        if self.jitter_cycles > 0.0:
            extra += _unit(self.seed, index, _SALT_JITTER) * self.jitter_cycles
        return None, extra

    def fetch_payload_fault(self, index: int) -> Optional[str]:
        """The fate of fetch payload ``index``: a corruption kind or None.

        Pure, like :meth:`decide` — data faults replay bit-for-bit.
        """
        if self.bitflip_rate > 0.0 and _unit(self.seed, index, _SALT_BITFLIP) < self.bitflip_rate:
            return "bitflip"
        if (
            self.stale_read_rate > 0.0
            and _unit(self.seed, index, _SALT_STALE) < self.stale_read_rate
        ):
            return "stale_read"
        return None

    def evict_payload_fault(self, index: int) -> Optional[str]:
        """The fate of writeback payload ``index``: a corruption kind or None."""
        if self.torn_write_rate > 0.0 and _unit(self.seed, index, _SALT_TORN) < self.torn_write_rate:
            return "torn_write"
        if (
            self.lost_writeback_rate > 0.0
            and _unit(self.seed, index, _SALT_LOSTWB) < self.lost_writeback_rate
        ):
            return "lost_writeback"
        return None

    def schedule(self) -> "FaultSchedule":
        """A fresh per-link schedule starting at message index 0."""
        return FaultSchedule(self)

    def reseeded(self, seed: int) -> "FaultPlan":
        """The same fault mix under a different seed."""
        return replace(self, seed=seed)

    def control_variant(self, channel_id: int, salt: int) -> "FaultPlan":
        """The same fault mix reseeded for one control-plane channel.

        Heartbeat probes (``repro.serve.replication``) ride the same
        lossy fabric as the data links but must roll independent fates:
        the variant mixes ``(seed, channel, salt)`` through splitmix64,
        and its schedules run their own message counters, so arming a
        control channel never perturbs an existing data-link replay.
        """
        return self.reseeded(
            splitmix64((self.seed & _MASK64) ^ (channel_id << 1) ^ (salt & _MASK64))
        )


@dataclass
class FaultStats:
    """What a schedule actually did to one link."""

    messages: int = 0
    drops: int = 0
    pauses: int = 0
    spikes: int = 0
    extra_cycles: float = 0.0
    #: Data faults injected (payload rolls, not message fates).
    bitflips: int = 0
    stale_reads: int = 0
    torn_writes: int = 0
    lost_writebacks: int = 0

    @property
    def losses(self) -> int:
        return self.drops + self.pauses

    @property
    def corruptions(self) -> int:
        return self.bitflips + self.stale_reads + self.torn_writes + self.lost_writebacks

    def reset(self) -> None:
        self.messages = 0
        self.drops = 0
        self.pauses = 0
        self.spikes = 0
        self.extra_cycles = 0.0
        self.bitflips = 0
        self.stale_reads = 0
        self.torn_writes = 0
        self.lost_writebacks = 0


class FaultSchedule:
    """A plan bound to one link: consumes message indices in order."""

    __slots__ = ("plan", "index", "fetch_payload_index", "evict_payload_index", "stats")

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.index = 0
        self.fetch_payload_index = 0
        self.evict_payload_index = 0
        self.stats = FaultStats()

    def roll(self, size_bytes: int) -> float:
        """Decide the next message's fate; returns extra delay cycles.

        Raises :class:`TransientNetworkError` when the message is lost
        (drop or pause window); the index still advances so a retry is a
        *new* message with its own roll.
        """
        del size_bytes  # losses are per message, not per byte
        index = self.index
        self.index = index + 1
        kind, extra = self.plan.decide(index)
        stats = self.stats
        stats.messages += 1
        if kind is not None:
            if kind == "pause":
                stats.pauses += 1
            else:
                stats.drops += 1
            raise TransientNetworkError(
                f"message {index} lost ({kind})", kind=kind, message_index=index
            )
        if extra:
            if self.plan.spike_cycles and extra >= self.plan.spike_cycles:
                stats.spikes += 1
            stats.extra_cycles += extra
        return extra

    def roll_fetch_payload(self) -> Optional[str]:
        """Corruption fate of the next *fetch* payload (None = intact).

        Runs on its own counter: re-fetches during repair consume new
        indices, so a repaired payload gets a fresh, independent roll.
        """
        index = self.fetch_payload_index
        self.fetch_payload_index = index + 1
        kind = self.plan.fetch_payload_fault(index)
        if kind == "bitflip":
            self.stats.bitflips += 1
        elif kind == "stale_read":
            self.stats.stale_reads += 1
        return kind

    def roll_evict_payload(self) -> Optional[str]:
        """Corruption fate of the next *writeback* payload (None = intact)."""
        index = self.evict_payload_index
        self.evict_payload_index = index + 1
        kind = self.plan.evict_payload_fault(index)
        if kind == "torn_write":
            self.stats.torn_writes += 1
        elif kind == "lost_writeback":
            self.stats.lost_writebacks += 1
        return kind


@dataclass
class FaultyLink(NetworkLink):
    """A :class:`NetworkLink` born with a fault schedule attached.

    Prefer :meth:`wrap` to decorate an already-configured link; the
    wrapped link shares the original's :class:`LinkStats` so byte
    accounting stays continuous across the swap.
    """

    plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.plan is not None and self.faults is None:
            self.faults = self.plan.schedule()

    @classmethod
    def wrap(cls, link: NetworkLink, plan: FaultPlan) -> "FaultyLink":
        """A faulted view of ``link`` (same costs, same stats object)."""
        return cls(
            latency_cycles=link.latency_cycles,
            bytes_per_cycle=link.bytes_per_cycle,
            per_message_cycles=link.per_message_cycles,
            stats=link.stats,
            plan=plan,
        )


# -- retry policy -------------------------------------------------------------


@dataclass
class RetryPolicy:
    """Timeout + capped exponential backoff with seeded jitter.

    ``max_attempts`` counts *all* tries including the first;
    ``retry_budget`` (when set) additionally caps the total number of
    retries the policy will ever grant across its lifetime — a blown
    budget fails fast even when per-request attempts remain.
    """

    max_attempts: int = 4
    #: Cycles charged per failed attempt (loss detection delay).
    timeout_cycles: float = 50_000.0
    base_backoff_cycles: float = 10_000.0
    backoff_multiplier: float = 2.0
    max_backoff_cycles: float = 200_000.0
    #: Jitter band: the jittered backoff lands in [base, base*(1+fraction)).
    jitter_fraction: float = 0.1
    retry_budget: Optional[int] = None
    seed: int = 0
    #: Lifetime retries granted so far (vs ``retry_budget``).
    retries_used: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise RuntimeConfigError("max_attempts must be >= 1")
        if self.timeout_cycles < 0 or self.base_backoff_cycles < 0:
            raise RuntimeConfigError("timeout/backoff cycles must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise RuntimeConfigError("backoff_multiplier must be >= 1")
        if self.max_backoff_cycles < 0:
            raise RuntimeConfigError("max_backoff_cycles must be >= 0")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise RuntimeConfigError("jitter_fraction must be in [0, 1]")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise RuntimeConfigError("retry_budget must be >= 0")

    def base_backoff(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt ``attempt`` (1-based).

        Monotone non-decreasing in ``attempt`` and capped at
        ``max_backoff_cycles`` — the two properties the chaos property
        suite pins.
        """
        if attempt < 1:
            raise RuntimeConfigError("attempt numbers are 1-based")
        raw = self.base_backoff_cycles * self.backoff_multiplier ** (attempt - 1)
        return min(raw, self.max_backoff_cycles)

    def backoff_cycles(self, attempt: int) -> float:
        """Jittered backoff: base plus a seeded slice of the jitter band."""
        base = self.base_backoff(attempt)
        u = _unit(self.seed, self.retries_used, _SALT_BACKOFF ^ attempt)
        return base * (1.0 + self.jitter_fraction * u)

    def should_retry(self, attempt: int) -> bool:
        """May failed attempt ``attempt`` be retried?"""
        if attempt >= self.max_attempts:
            return False
        if self.retry_budget is not None and self.retries_used >= self.retry_budget:
            return False
        return True

    def consume_retry(self) -> None:
        self.retries_used += 1


# -- circuit breaker ----------------------------------------------------------


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Closed → open → half-open, clocked in rejected requests.

    Simulated time only advances while requests flow, so the usual
    wall-clock cooldown would deadlock (an open breaker admits no
    requests, the clock never moves).  Instead the breaker counts the
    requests it *rejects* while open; after ``cooldown_rejections`` of
    them the next request is admitted as the half-open probe.
    """

    def __init__(
        self, failure_threshold: int = 5, cooldown_rejections: int = 8
    ) -> None:
        if failure_threshold < 1:
            raise RuntimeConfigError("failure_threshold must be >= 1")
        if cooldown_rejections < 1:
            raise RuntimeConfigError("cooldown_rejections must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_rejections = cooldown_rejections
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.rejections_while_open = 0
        #: Times the breaker transitioned into OPEN.
        self.trips = 0

    def allow(self) -> bool:
        """May the next request go out?  (Mutates: rejections count.)"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.HALF_OPEN:
            return True
        self.rejections_while_open += 1
        if self.rejections_while_open >= self.cooldown_rejections:
            self.state = BreakerState.HALF_OPEN
            return True
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self.state = BreakerState.CLOSED
            self.rejections_while_open = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._trip()
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self.state = BreakerState.OPEN
        self.rejections_while_open = 0
        self.trips += 1


# -- fault-spec parsing (the --faults CLI knob) -------------------------------


#: Every key ``parse_fault_spec`` accepts, in grammar order — kept as
#: data so the unknown-key error can enumerate them (and so tests pin
#: that the enumeration stays complete as kinds are added).
FAULT_SPEC_KEYS = (
    "seed",
    "drop",
    "spike",
    "jitter",
    "pause",
    "bitflip",
    "stale",
    "torn",
    "lostwb",
)


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a compact ``key=value`` fault spec into a :class:`FaultPlan`.

    Grammar (comma-separated, all parts optional)::

        seed=<int>,drop=<rate>,spike=<rate>:<cycles>,jitter=<cycles>,
        pause=<start>:<end>[;<start>:<end>...],
        bitflip=<rate>,stale=<rate>,torn=<rate>,lostwb=<rate>

    Example: ``"seed=3,drop=0.02,spike=0.05:20000,jitter=500,bitflip=0.01"``.
    """
    kwargs: dict = {}
    spec = spec.strip()
    if not spec:
        return FaultPlan()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise RuntimeConfigError(f"bad fault spec part {part!r} (want key=value)")
        key, _, value = part.partition("=")
        key = key.strip().lower()
        value = value.strip()
        try:
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key == "drop":
                kwargs["drop_rate"] = float(value)
            elif key == "spike":
                rate, _, cycles = value.partition(":")
                kwargs["spike_rate"] = float(rate)
                kwargs["spike_cycles"] = float(cycles) if cycles else 10_000.0
            elif key == "jitter":
                kwargs["jitter_cycles"] = float(value)
            elif key == "pause":
                windows = []
                for win in value.split(";"):
                    start, _, end = win.partition(":")
                    windows.append((int(start), int(end)))
                kwargs["pause_windows"] = tuple(windows)
            elif key == "bitflip":
                kwargs["bitflip_rate"] = float(value)
            elif key == "stale":
                kwargs["stale_read_rate"] = float(value)
            elif key == "torn":
                kwargs["torn_write_rate"] = float(value)
            elif key == "lostwb":
                kwargs["lost_writeback_rate"] = float(value)
            else:
                raise RuntimeConfigError(
                    f"unknown fault spec key {key!r}; "
                    f"valid keys: {', '.join(FAULT_SPEC_KEYS)}"
                )
        except ValueError as err:
            raise RuntimeConfigError(f"bad fault spec value {part!r}: {err}") from err
    return FaultPlan(**kwargs)


# -- process-wide default plan ------------------------------------------------

#: When set, ``make_tcp_backend``/``make_rdma_backend`` wrap their links
#: with this plan and attach a default RetryPolicy + CircuitBreaker —
#: the hook behind the ``--faults`` CLI knobs.
_DEFAULT_PLAN: Optional[FaultPlan] = None


def default_fault_plan() -> Optional[FaultPlan]:
    return _DEFAULT_PLAN


def set_default_fault_plan(plan: Optional[FaultPlan]) -> None:
    global _DEFAULT_PLAN
    _DEFAULT_PLAN = plan


@contextlib.contextmanager
def installed_fault_plan(plan: Optional[FaultPlan]) -> Iterator[None]:
    """Temporarily install ``plan`` as the process default."""
    previous = _DEFAULT_PLAN
    set_default_fault_plan(plan)
    try:
        yield
    finally:
        set_default_fault_plan(previous)
