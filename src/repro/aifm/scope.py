"""DerefScope: the pin that keeps in-use objects out of the evacuator.

Listing 1 of the paper shows AIFM's programmer-facing ``DerefScope``; a
scope object "must be provided so that AIFM does not evacuate in-use
local memory."  TrackFM's guards enter an equivalent implicit scope for
the duration of a guarded access (§3.3 — the evacuator barrier cannot
converge while a thread is inside a guard).
"""

from __future__ import annotations

from typing import List

from repro.aifm.pool import ObjectPool
from repro.errors import EvacuationError


class DerefScope:
    """Context manager pinning every object dereferenced within it."""

    def __init__(self, pool: ObjectPool) -> None:
        self.pool = pool
        self._pinned: List[int] = []
        self._active = False

    def __enter__(self) -> "DerefScope":
        self._active = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def pin(self, obj_id: int) -> None:
        """Pin ``obj_id`` for this scope's lifetime."""
        if not self._active:
            raise EvacuationError("DerefScope used outside its with-block")
        self.pool.pin(obj_id)
        self._pinned.append(obj_id)

    def close(self) -> None:
        """Unpin everything (idempotent)."""
        for obj_id in self._pinned:
            self.pool.unpin(obj_id)
        self._pinned.clear()
        self._active = False

    @property
    def pinned_count(self) -> int:
        return len(self._pinned)
