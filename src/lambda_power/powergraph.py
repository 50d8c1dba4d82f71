"""Simple undirected graphs over bitmask adjacency rows.

A graph is only its rows. The invariants accept any simple graph; the span
search takes graphs of diameter at most 2, as every power graph is.
Vertices are 0-based; adjacency row v is an int whose bit u says u and v are
adjacent, so neighborhood intersections are single ANDs. A group builds its
power graph once, from its checked cyclic-subgroup poset (`groups`), and
``build_power_graph`` hands it out. Rows passed to ``Graph(...)`` are
checked one edge at a time; the power graph, a complement and
``from_edges`` are valid by how they are built and skip that check.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import InternalError

if TYPE_CHECKING:
    from .groups import FiniteGroup

__all__ = [
    "Graph",
    "bits",
    "build_power_graph",
    "complement",
    "connected_components",
    "diameter_at_most_two",
]


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple graph, given by its adjacency rows, equal to another when the
    rows are; nothing rewrites ``adj`` after construction.

    ``Graph(rows)`` checks the rows: below n, loop-free, and symmetric, per
    edge; the first bad (v, u) is the lowest u of row v that does not see v.
    Rows valid by construction (the power graph, once its poset is checked,
    a complement and ``from_edges``) skip the check through ``_trusted``.
    ``_ordering``, when set, builds a cocomparability ordering of the graph
    for the path cover; a power graph's ``_complement_ordering`` is its
    complement's.
    """

    _ordering = None
    _complement_ordering = None

    def __init__(self, adj: tuple[int, ...]):
        self.adj = adj
        self.__post_init__()

    def __repr__(self) -> str:
        return f"Graph(adj={self.adj!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.adj,))

    def __post_init__(self):
        """The row check ``Graph(rows)`` runs."""
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
        """Same vertices, edges exactly where this graph has none; built once.

        This graph's rows passed the check, so the complement's pass it too:
        ``full & ~row`` stays below n, dropping bit v keeps it loop-free, and
        u is in row v iff u != v and v is not in row u, which is symmetric
        because this graph's rows are. So the check is not run again."""
        full = self.full_mask
        graph = Graph._trusted(tuple(full & ~row & ~(1 << v) for v, row in enumerate(self.adj)))
        graph._ordering = self._complement_ordering
        return graph

    @classmethod
    def _trusted(cls, adj: tuple[int, ...]) -> Graph:
        """A graph on rows already known to pass the construction check."""
        graph = object.__new__(cls)
        graph.adj = adj
        return graph

    @cached_property
    def distance_two(self) -> tuple[int, ...]:
        """Row v: the vertices at distance exactly two from v; built once. The
        complement's rows if a vertex dominates (on a power graph: the identity),
        else neighbour rows OR-ed in until nothing is left to add."""
        full = self.full_mask
        if any(row == full ^ (1 << v) for v, row in enumerate(self.adj)):
            return self.complement.adj
        rows = []
        for v, row in enumerate(self.adj):
            rest = full & ~row & ~(1 << v)
            reach = 0
            for u in bits(row):
                reach |= self.adj[u]
                if not rest & ~reach:
                    break
            rows.append(reach & rest)
        return tuple(rows)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v}) for {n} vertices")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph._trusted(tuple(rows))  # endpoints checked, symmetric as built


def build_power_graph(g: FiniteGroup) -> Graph:
    """The group's power graph (x != y adjacent iff one is a power of the other), built once."""
    return g._power_graph


def complement(graph: Graph) -> Graph:
    """Same vertices, edges exactly where the input has none (``graph.complement``)."""
    return graph.complement


def _masked_components(adj: tuple[int, ...], mask: int) -> list[list[int]]:
    """Vertex sets of the components of the subgraph on ``mask``, largest
    first; an isolated vertex is settled by one row test, with no search."""
    remaining = mask
    components = []
    while remaining:
        seed = remaining & -remaining
        if not adj[seed.bit_length() - 1] & mask:
            components.append([seed.bit_length() - 1])
            remaining ^= seed
            continue
        comp = 0
        frontier = seed
        while frontier:
            comp |= frontier
            reach = 0
            for v in bits(frontier):
                reach |= adj[v]
            frontier = reach & mask & ~comp
        components.append(sorted(bits(comp)))
        remaining &= ~comp
    components.sort(key=lambda c: (-len(c), c[0]))
    return components


def connected_components(graph: Graph) -> list[list[int]]:
    """Vertex sets of the connected components, largest first."""
    return _masked_components(graph.adj, graph.full_mask)


def diameter_at_most_two(graph: Graph) -> bool:
    """True when every vertex reaches every other in at most two steps, at
    once when a vertex dominates (on a power graph: the identity)."""
    full = graph.full_mask
    if any(row | 1 << v == full for v, row in enumerate(graph.adj)):
        return True
    return all((1 << v) | row | d2 == full
               for v, (row, d2) in enumerate(zip(graph.adj, graph.distance_two)))
