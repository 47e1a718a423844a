"""Pointer-chasing graph traversal: BFS over a seeded random graph.

The far-memory arena holds a CSR adjacency (offsets + edge lists), a
per-node payload region, and a distance output region.  A breadth-first
search from node 0 walks the structure in the classic pointer-chasing
order: two offset reads per popped node, one read per outgoing edge,
one payload read per visit, one distance write per visit.  Unlike
STREAM's sequential pass, the edge targets are splitmix64-scattered, so
consecutive far accesses land in unrelated objects — the access pattern
prefetchers are worst at.

The graph is a ring (``i -> (i+1) mod n``, guaranteeing every node is
reachable) plus ``extra_edges`` seed-derived random edges per node.
Everything — structure, traversal order, and the result digest — is a
pure function of the constructor arguments, which is what lets the
ablation engine pin bit-identical metrics fingerprints and lets the
cross-runtime tests demand value equality on all four runtimes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.errors import WorkloadError
from repro.machine.costs import AccessKind
from repro.hashing import splitmix64

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: Bytes per CSR slot (offsets, edges, distances are 64-bit words).
WORD = 8


def _fnv_fold(acc: int, value: int) -> int:
    return ((acc ^ (value & _MASK64)) * _FNV_PRIME) & _MASK64


class GraphTraversalWorkload:
    """BFS over a seeded random graph laid out in one far arena."""

    name = "graph"

    def __init__(
        self,
        n_nodes: int = 192,
        extra_edges: int = 3,
        payload_bytes: int = 16,
        seed: int = 1,
    ) -> None:
        if n_nodes < 2:
            raise WorkloadError("graph needs at least 2 nodes")
        if extra_edges < 0:
            raise WorkloadError("extra_edges must be >= 0")
        if payload_bytes < WORD:
            raise WorkloadError(f"payload_bytes must be >= {WORD}")
        self.n_nodes = n_nodes
        self.extra_edges = extra_edges
        self.payload_bytes = payload_bytes
        self.seed = seed
        # CSR construction: ring edge first, then seeded extras.  The
        # stream of splitmix64 draws is indexed by (seed, node, slot) so
        # the structure never depends on Python hashing or dict order.
        offsets: List[int] = [0]
        edges: List[int] = []
        for u in range(n_nodes):
            edges.append((u + 1) % n_nodes)
            for slot in range(extra_edges):
                draw = splitmix64(
                    ((seed & _MASK64) << 1)
                    ^ splitmix64((u << 20) | (slot << 4) | 0x9)
                )
                edges.append(draw % n_nodes)
            offsets.append(len(edges))
        self.offsets = offsets
        self.edges = edges
        #: Region bases inside the arena, in bytes.
        self.offsets_base = 0
        self.edges_base = (n_nodes + 1) * WORD
        self.payload_base = self.edges_base + len(edges) * WORD
        self.dist_base = self.payload_base + n_nodes * payload_bytes
        self.arena_bytes = self.dist_base + n_nodes * WORD

    # -- the traversal (pure; shared by accesses() and value()) -------------

    def bfs(self) -> Tuple[List[int], Dict[int, int]]:
        """Visit order and distances of a BFS from node 0."""
        dist: Dict[int, int] = {0: 0}
        order: List[int] = []
        frontier = [0]
        while frontier:
            next_frontier: List[int] = []
            for u in frontier:
                order.append(u)
                for e in range(self.offsets[u], self.offsets[u + 1]):
                    v = self.edges[e]
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        next_frontier.append(v)
            frontier = next_frontier
        return order, dist

    def accesses(self) -> Iterator[Tuple[int, AccessKind]]:
        """The far-memory access stream of one BFS, in traversal order."""
        dist: Dict[int, int] = {0: 0}
        frontier = [0]
        while frontier:
            next_frontier: List[int] = []
            for u in frontier:
                yield self.offsets_base + u * WORD, AccessKind.READ
                yield self.offsets_base + (u + 1) * WORD, AccessKind.READ
                yield self.payload_base + u * self.payload_bytes, AccessKind.READ
                yield self.dist_base + u * WORD, AccessKind.WRITE
                for e in range(self.offsets[u], self.offsets[u + 1]):
                    yield self.edges_base + e * WORD, AccessKind.READ
                    v = self.edges[e]
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        next_frontier.append(v)
            frontier = next_frontier

    def value(self) -> int:
        """FNV digest over (visit order, distance) — the program result.

        Independent of which runtime replayed the access stream: the
        traversal is a pure function of the seeded structure.
        """
        order, dist = self.bfs()
        acc = _FNV_OFFSET
        for u in order:
            acc = _fnv_fold(acc, (u << 32) | dist[u])
        acc = _fnv_fold(acc, len(order))
        return acc
