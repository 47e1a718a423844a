"""Consistent-hash placement: keys onto far-node shards, via a ring.

The serving layer spreads one logical object pool across N far nodes.
Placement must (a) balance load, (b) be a pure function of the shard
set — two runs with the same shards place every key identically, which
the serving baselines pin bit-for-bit — and (c) move as few keys as
possible when the shard set changes, because every moved key is either
a migration (survivor → survivor) or a re-seed (lost shard → survivor)
paid for over the wire.

The classic construction delivers all three: each shard contributes
``vnodes`` points on a 64-bit ring (splitmix64 of ``(shard, replica)``
— no ``random`` module, no wall clock), a key is owned by the first
point clockwise from its own hash, and removing a shard only reassigns
keys whose successor point belonged to it.  The two movement properties
the Hypothesis suite pins are exact, not statistical:

* **leave**: keys not owned by the leaving shard keep their owner;
* **join**: keys that change owner all move *to* the joining shard.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import RuntimeConfigError
from repro.hashing import splitmix64

_MASK64 = (1 << 64) - 1


#: Domain separators: ring points and key hashes must never collide
#: structurally (a key equal to a point encoding is still placed fairly).
_POINT_SALT = 0x9
_KEY_SALT = 0xA5


def hash_key(key: int, seed: int = 0) -> int:
    """Position of ``key`` on the ring — pure in ``(key, seed)``."""
    return splitmix64((seed & _MASK64) ^ splitmix64((key << 8) | _KEY_SALT))


class HashRing:
    """A consistent-hash ring with virtual nodes.

    ``vnodes`` trades balance for memory/lookup cost: each shard owns
    ``vnodes`` arcs, so relative load imbalance shrinks like
    ``1/sqrt(vnodes)``.  128 is comfortably inside the balance bound
    the property suite enforces for 1–64 shards.
    """

    def __init__(
        self,
        shard_ids: Iterable[int] = (),
        vnodes: int = 128,
        seed: int = 0,
    ) -> None:
        if vnodes < 1:
            raise RuntimeConfigError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self.seed = seed
        self._shards: List[int] = []
        #: Sorted, parallel arrays: point positions and owning shards.
        self._points: List[int] = []
        self._owners: List[int] = []
        for sid in shard_ids:
            self.add_shard(sid)

    # -- membership --------------------------------------------------------

    @property
    def shard_ids(self) -> Tuple[int, ...]:
        return tuple(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: int) -> bool:
        return shard_id in self._shards

    def _point(self, shard_id: int, replica: int) -> int:
        h = splitmix64(
            (self.seed & _MASK64)
            ^ splitmix64(((shard_id << 20) | (replica << 4) | _POINT_SALT))
        )
        # Ties between distinct (shard, replica) points are broken by
        # packing their identity into the low bits: placement stays a
        # pure function of the shard set even under hash collisions.
        return (h << 32) | ((shard_id & 0xFFFF) << 16) | (replica & 0xFFFF)

    def add_shard(self, shard_id: int) -> None:
        if shard_id < 0 or shard_id > 0xFFFF:
            raise RuntimeConfigError(f"shard id {shard_id} outside [0, 65535]")
        if shard_id in self._shards:
            raise RuntimeConfigError(f"shard {shard_id} already on the ring")
        self._shards.append(shard_id)
        for replica in range(min(self.vnodes, 0xFFFF + 1)):
            point = self._point(shard_id, replica)
            at = bisect.bisect_left(self._points, point)
            self._points.insert(at, point)
            self._owners.insert(at, shard_id)

    def remove_shard(self, shard_id: int) -> None:
        if shard_id not in self._shards:
            raise RuntimeConfigError(f"shard {shard_id} not on the ring")
        self._shards.remove(shard_id)
        keep = [i for i, owner in enumerate(self._owners) if owner != shard_id]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    # -- placement ---------------------------------------------------------

    def place(self, key: int) -> int:
        """The shard owning ``key`` (first point clockwise of its hash)."""
        if not self._points:
            raise RuntimeConfigError("cannot place a key on an empty ring")
        # Key hashes occupy the same doubled-width space as points so
        # the clockwise-successor search is well defined.
        h = hash_key(key, self.seed) << 32
        at = bisect.bisect_right(self._points, h)
        if at == len(self._points):
            at = 0  # wrap: the first point owns the top arc
        return self._owners[at]

    def place_n(self, key: int, n: int) -> Tuple[int, ...]:
        """The replica set of ``key``: ``min(n, len(self))`` distinct shards.

        The clockwise successor walk — collect the owner of each point
        from the key's hash onward, skipping shards already collected —
        makes the set a pure function of the shard set, and gives the
        exact movement laws the replication layer leans on:

        * **leave**: a key whose set did not contain the leaver keeps
          its set; a key whose set did loses exactly that member and
          gains at most one replacement (the next distinct survivor);
        * **join**: the new set is a subset of the old set plus the
          joiner, and a set that does not adopt the joiner is unchanged.

        The first element is the key's *primary* — identical to
        :meth:`place`, so ``place_n(key, 1) == (place(key),)``.
        """
        if n < 1:
            raise RuntimeConfigError(f"replica count must be >= 1, got {n}")
        if not self._points:
            raise RuntimeConfigError("cannot place a key on an empty ring")
        want = min(n, len(self._shards))
        h = hash_key(key, self.seed) << 32
        start = bisect.bisect_right(self._points, h)
        owners = self._owners
        total = len(owners)
        replicas: List[int] = []
        for step in range(total):
            owner = owners[(start + step) % total]
            if owner not in replicas:
                replicas.append(owner)
                if len(replicas) == want:
                    break
        return tuple(replicas)

    def placement(self, keys: Sequence[int], n: int = 1) -> Dict[int, object]:
        """Bulk placement: ``{key: shard}``, or ``{key: replica set}``.

        With the default ``n=1`` this is exactly the historical
        ``{key: shard}`` map (bulk :meth:`place`); with ``n > 1`` each
        value is the :meth:`place_n` replica tuple.
        """
        if n == 1:
            return {key: self.place(key) for key in keys}
        return {key: self.place_n(key, n) for key in keys}

    # -- balance (arc-share view, used by the property suite) ---------------

    def arc_shares(self) -> Dict[int, float]:
        """Fraction of the ring each shard owns (sums to 1.0).

        The *expected* share of uniformly-hashed keys — a deterministic
        quantity, unlike a sampled placement, so balance bounds can be
        asserted exactly.
        """
        if not self._points:
            return {}
        shares: Dict[int, float] = {sid: 0.0 for sid in self._shards}
        span = float(1 << (64 + 32))
        prev = 0
        for point, owner in zip(self._points, self._owners):
            shares[owner] += (point - prev) / span
            prev = point
        # The wrap-around arc (last point → top) belongs to the first point.
        shares[self._owners[0]] += ((1 << (64 + 32)) - prev) / span
        return shares


def moved_keys(
    before: Dict[int, int], after: Dict[int, int]
) -> List[Tuple[int, int, int]]:
    """``(key, old_shard, new_shard)`` for every key whose owner changed."""
    return [
        (key, old, after[key])
        for key, old in before.items()
        if after[key] != old
    ]


def moved_replica_keys(
    before: Dict[int, Tuple[int, ...]], after: Dict[int, Tuple[int, ...]]
) -> List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]]:
    """``(key, old_set, new_set)`` for every key whose *replica set*
    changed as a set (reorderings within an unchanged set don't count —
    replica membership, not coordinator choice, is what costs a copy)."""
    return [
        (key, old, after[key])
        for key, old in before.items()
        if set(after[key]) != set(old)
    ]
