"""Open-loop traffic: thousands of simulated clients, seeded end to end.

A *closed-loop* client waits for its previous response before issuing
the next request, so overload shows up as the client slowing down.
Production traffic is open-loop: arrivals keep coming at the offered
rate whether or not the servers keep up, which is what makes tail
latency explode past saturation — the regime the serving layer exists
to measure.

Each client is an independent Poisson-ish arrival process (exponential
inter-arrivals with a configured mean) issuing reads/writes over keys
drawn from :class:`repro.workloads.zipf.ZipfGenerator` — skewed
popularity is what creates per-shard hot spots.  Everything is drawn
from one seeded numpy generator, vectorized, and then merged into one
time-sorted schedule: the same :class:`TrafficConfig` produces a
bit-identical schedule on every run, which the serving baselines and
the determinism tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.errors import RuntimeConfigError
from repro.workloads.zipf import ZipfGenerator

#: Rows :meth:`Schedule.rows` converts per block.
ROWS_BLOCK = 4096


@dataclass(frozen=True)
class TrafficConfig:
    """The offered load: who sends what, when."""

    #: Simulated open-loop clients.
    clients: int
    #: Requests each client issues over the run.
    requests_per_client: int
    #: Distinct keys in the keyspace (Zipf ranks 0..n_keys-1).
    n_keys: int
    #: Zipf skew of key popularity (the paper's hashmap skew band).
    zipf_skew: float = 1.02
    #: Mean inter-arrival gap per client, in simulated cycles.
    mean_interarrival_cycles: float = 400_000.0
    #: Fraction of requests that are writes.
    write_fraction: float = 0.25
    #: Tenants; client ``c`` belongs to tenant ``c % tenants``.
    tenants: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clients < 1 or self.requests_per_client < 1:
            raise RuntimeConfigError("clients and requests_per_client must be >= 1")
        if self.n_keys < 1:
            raise RuntimeConfigError("n_keys must be >= 1")
        if self.mean_interarrival_cycles <= 0:
            raise RuntimeConfigError("mean_interarrival_cycles must be > 0")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise RuntimeConfigError("write_fraction must be in [0, 1]")
        if self.tenants < 1:
            raise RuntimeConfigError("tenants must be >= 1")

    @property
    def total_requests(self) -> int:
        return self.clients * self.requests_per_client


@dataclass(frozen=True)
class Schedule:
    """The materialized arrival schedule, time-sorted.

    Parallel numpy arrays, one row per request: ``times`` (float64
    cycles), ``clients``/``tenants``/``keys`` (int64) and ``writes``
    (bool).  Iterate with :meth:`rows`.
    """

    config: TrafficConfig
    times: np.ndarray = field(repr=False)
    clients: np.ndarray = field(repr=False)
    tenants: np.ndarray = field(repr=False)
    keys: np.ndarray = field(repr=False)
    writes: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.times)

    def rows(self):
        """``(time, client, tenant, key, is_write)`` rows in time order.

        Rows come from blocks of :data:`ROWS_BLOCK` converted to Python
        scalars in bulk (``tolist``), so iteration costs no per-row numpy
        indexing and its memory stays flat in the schedule's length.  The
        blocks' ``zip``s are chained, so a row enters no Python frame.
        """
        return chain.from_iterable(
            zip(
                self.times[lo:lo + ROWS_BLOCK].tolist(),
                self.clients[lo:lo + ROWS_BLOCK].tolist(),
                self.tenants[lo:lo + ROWS_BLOCK].tolist(),
                self.keys[lo:lo + ROWS_BLOCK].tolist(),
                self.writes[lo:lo + ROWS_BLOCK].tolist(),
            )
            for lo in range(0, len(self.times), ROWS_BLOCK)
        )

    def fingerprint(self) -> int:
        """A 64-bit digest of the whole schedule (determinism checks)."""
        acc = 0xCBF29CE484222325
        for arr in (
            np.round(self.times, 6).view(np.uint64),
            self.clients.view(np.uint64),
            self.keys.view(np.uint64),
            self.writes.astype(np.uint64),
        ):
            for chunk in np.bitwise_xor.reduce(arr, keepdims=True):
                acc = (acc ^ int(chunk)) * 0x100000001B3 & ((1 << 64) - 1)
        return acc


def generate_schedule(config: TrafficConfig) -> Schedule:
    """Materialize the deterministic arrival schedule for ``config``.

    Per client: inter-arrival gaps are exponential draws (open loop —
    the cumulative sums are the arrival times, independent of service).
    Keys come from one shared :class:`ZipfGenerator` stream; ties in
    arrival time are broken by ``(client, per-client index)`` so the
    global order is total and reproducible.
    """
    rng = np.random.default_rng(config.seed)
    n, rpc = config.clients, config.requests_per_client
    gaps = rng.exponential(config.mean_interarrival_cycles, size=(n, rpc))
    times = np.cumsum(gaps, axis=1).reshape(-1)
    client_ids = np.repeat(np.arange(n, dtype=np.int64), rpc)
    seq = np.tile(np.arange(rpc, dtype=np.int64), n)

    zipf = ZipfGenerator(config.n_keys, config.zipf_skew, seed=config.seed ^ 0x5EED)
    keys = zipf.sample(n * rpc)
    writes = rng.random(n * rpc) < config.write_fraction

    order = np.lexsort((seq, client_ids, times))
    return Schedule(
        config=config,
        times=times[order],
        clients=client_ids[order],
        tenants=(client_ids[order] % config.tenants),
        keys=keys[order],
        writes=writes[order],
    )
