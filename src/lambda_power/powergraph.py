"""Simple undirected graphs over bitmask adjacency rows; power graph builder.

Graphs are generic: the solver modules accept any simple graph, not only
power graphs. Vertices are 0-based; adjacency row v is an int whose bit u
says u and v are adjacent, so neighborhood intersections are single ANDs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import InternalError
from .groups import FiniteGroup, cyclic_subgroup

__all__ = [
    "Graph",
    "bits",
    "build_power_graph",
    "complement",
    "connected_components",
    "delete_vertex",
    "diameter_at_most_two",
]


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph. ``identity_vertex`` is set for power graphs."""

    adj: tuple[int, ...]
    identity_vertex: int | None = None
    descriptor: str | None = None

    def __post_init__(self):
        n = len(self.adj)
        for v, row in enumerate(self.adj):
            if row >> n:
                raise InternalError(f"adjacency row {v} mentions vertices >= {n}")
            if (row >> v) & 1:
                raise InternalError(f"vertex {v} is adjacent to itself")
            for u in bits(row):
                if not (self.adj[u] >> v) & 1:
                    raise InternalError(f"adjacency not symmetric at ({v}, {u})")

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.adj)) - 1

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        out = []
        for u, row in enumerate(self.adj):
            higher = row >> (u + 1)
            for offset in bits(higher):
                out.append((u, u + 1 + offset))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @cached_property
    def complement(self) -> Graph:
        """Same vertices, edges exactly where this graph has none; built once."""
        full = self.full_mask
        rows = tuple((full & ~row) & ~(1 << v) for v, row in enumerate(self.adj))
        return Graph(rows, identity_vertex=self.identity_vertex, descriptor=self.descriptor)

    @cached_property
    def distance_two(self) -> tuple[int, ...]:
        """Row v: the vertices at distance exactly two from v; built once."""
        rows = []
        for v, row in enumerate(self.adj):
            reach = 0
            for u in bits(row):
                reach |= self.adj[u]
            rows.append(reach & ~row & ~(1 << v))
        return tuple(rows)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]], *,
                   identity_vertex: int | None = None,
                   descriptor: str | None = None) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v}) for {n} vertices")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(tuple(rows), identity_vertex=identity_vertex, descriptor=descriptor)


def build_power_graph(g: FiniteGroup) -> Graph:
    """Graph on the group elements; x != y adjacent iff one is a power of the other."""
    n = g.order
    rows = [0] * n
    for x in range(n):
        members = cyclic_subgroup(g, x)
        for y in members:
            if y != x:
                rows[x] |= 1 << y
                rows[y] |= 1 << x
    graph = Graph(tuple(rows), identity_vertex=0, descriptor=g.descriptor.name)
    if n >= 2 and rows[0] != graph.full_mask ^ 1:
        raise InternalError("identity must be adjacent to every other element")
    return graph


def complement(graph: Graph) -> Graph:
    """Same vertices, edges exactly where the input has none (``graph.complement``)."""
    return graph.complement


def delete_vertex(graph: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Graph minus vertex v, plus the survivor map (new index -> old index)."""
    n = graph.n
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range for {n}-vertex graph")
    survivors = tuple(u for u in range(n) if u != v)
    low_mask = (1 << v) - 1
    rows = []
    for u in survivors:
        row = graph.adj[u] & ~(1 << v)
        rows.append((row & low_mask) | ((row >> (v + 1)) << v))
    identity = graph.identity_vertex
    if identity is not None:
        identity = None if identity == v else (identity if identity < v else identity - 1)
    return Graph(tuple(rows), identity_vertex=identity,
                 descriptor=graph.descriptor), survivors


def connected_components(graph: Graph) -> list[list[int]]:
    """Vertex sets of the connected components, largest first."""
    remaining = graph.full_mask
    components = []
    while remaining:
        seed = remaining & -remaining
        comp = 0
        frontier = seed
        while frontier:
            comp |= frontier
            reach = 0
            for v in bits(frontier):
                reach |= graph.adj[v]
            frontier = reach & ~comp
        components.append(sorted(bits(comp)))
        remaining &= ~comp
    components.sort(key=lambda c: (-len(c), c[0]))
    return components


def diameter_at_most_two(graph: Graph) -> bool:
    """True when every vertex reaches every other in at most two steps."""
    n = graph.n
    if n <= 1:
        return True
    full = graph.full_mask
    for v in range(n):
        cover = (1 << v) | graph.adj[v]
        for u in bits(graph.adj[v]):
            cover |= graph.adj[u]
        if cover != full:
            return False
    return True
