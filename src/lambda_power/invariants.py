"""Exact graph invariants: cliques, Hamilton paths, minimum path covers.

Everything here is deterministic: vertex scans ascend, branch orders are
fixed, and witnesses come out canonical for a given graph. Exact routines
refuse instances above the module limits instead of silently guessing: the
clique search above ``DEFAULT_CLIQUE_LIMIT`` vertices, the path-cover DP
above ``2**DEFAULT_DP_LIMIT`` states. The rotation heuristic is only ever
used to produce positive Hamilton-path certificates, never to conclude
absence.
A question about part of a graph runs on the graph's own rows over a vertex
set that no outside row reaches, and answers in the graph's own indices.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass
from typing import Iterable

from .errors import CapacityExceeded, InternalError
from .powergraph import Graph, _masked_components, bits, connected_components

DEFAULT_CLIQUE_LIMIT = 128
DEFAULT_DP_LIMIT = 24

__all__ = [
    "DEFAULT_CLIQUE_LIMIT",
    "DEFAULT_DP_LIMIT",
    "PathCover",
    "WitnessedValue",
    "clique_number",
    "cut_vertex_component_profile",
    "find_complement_p4",
    "hamilton_path",
    "independence_number",
    "path_cover_number",
]


@dataclass(frozen=True)
class WitnessedValue:
    """An exact invariant plus a witness certifying it."""

    value: int
    witness: tuple[int, ...]
    kind: str  # clique | independent-set | hamilton-path | path-cover | p4


@dataclass(frozen=True)
class PathCover:
    """Vertex-disjoint paths covering every vertex of the target graph."""

    paths: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.paths)


def clique_number(graph: Graph) -> WitnessedValue:
    """Maximum clique; the search runs once per graph, after the limit check."""
    n = graph.n
    if n > DEFAULT_CLIQUE_LIMIT:
        raise CapacityExceeded(
            f"exact clique search limited to {DEFAULT_CLIQUE_LIMIT} vertices, got {n}")
    best = graph._maximum_clique
    return WitnessedValue(best.bit_count(), tuple(bits(best)), "clique")


def _clique_search(graph: Graph) -> int:
    """Mask of a maximum clique: branch and bound with greedy-coloring upper bounds."""
    adj = graph.adj
    best_size = 0
    best_mask = 0

    def expand(size: int, mask: int, cand: int) -> None:
        nonlocal best_size, best_mask
        if size > best_size:
            best_size, best_mask = size, mask
        if not cand:
            return
        # Greedy coloring of the candidate set; the color index bounds the
        # largest clique extending into the remaining candidates.
        order: list[tuple[int, int]] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            q = rest
            while q:
                low = q & -q
                v = low.bit_length() - 1
                order.append((v, color))
                rest ^= low
                q = (q ^ low) & ~adj[v]
        for v, bound in reversed(order):
            if size + bound <= best_size:
                return
            self_bit = 1 << v
            expand(size + 1, mask | self_bit, cand & adj[v])
            cand &= ~self_bit

    expand(0, 0, graph.full_mask)
    return best_mask


def independence_number(graph: Graph) -> WitnessedValue:
    """Maximum independent set, computed as a clique of the complement."""
    found = clique_number(graph.complement)
    return WitnessedValue(found.value, found.witness, "independent-set")


def _rotation_heuristic(adj: tuple[int, ...], vertices: list[int],
                        deadline: float | None = None) -> list[int] | None:
    """Greedy path growth with rotation extension; positive answers only."""
    m = len(vertices)
    budget = 4 * m * m + 16
    ticks = 0
    for start in vertices:
        path = [start]
        inset = 1 << start
        steps = 0
        while len(path) < m and steps < budget:
            steps += 1
            ticks += 1
            if deadline is not None and (ticks & 1023) == 0 \
                    and time.monotonic() > deadline:
                raise CapacityExceeded("time budget exhausted during the Hamilton path heuristic")
            tail = path[-1]
            free = adj[tail] & ~inset
            if free:
                low = free & -free
                path.append(low.bit_length() - 1)
                inset |= low
                continue
            if adj[path[0]] & ~inset:
                path.reverse()
                continue
            # Rotate: tail adjacent to path[i] makes path[i+1] the new tail,
            # preferring a new tail that still has free neighbours.
            pivots = [i for i in range(len(path) - 2) if (adj[tail] >> path[i]) & 1]
            if not pivots:
                break
            i = next((i for i in pivots if adj[path[i + 1]] & ~inset), pivots[0])
            path[i + 1:] = reversed(path[i + 1:])
        if len(path) == m:
            return path
    return None


def _twin_classes(adj: tuple[int, ...],
                  vertices: Iterable[int]) -> tuple[list[list[int]], list[int]]:
    """Open-twin classes (equal adjacency rows) of the vertices, members
    ascending, and the quotient adjacency. Twins are never adjacent: no
    quotient row has its own bit.
    """
    number: dict[int, int] = {}
    members: list[list[int]] = []
    for v in vertices:
        row = adj[v]
        if row not in number:
            number[row] = len(members)
            members.append([])
        members[number[row]].append(v)
    qadj = []
    for cls in members:
        row = 0
        for u in bits(adj[cls[0]]):
            row |= 1 << number[adj[u]]
        qadj.append(row)
    return members, qadj


def _typecode(largest: int) -> str | None:
    """The narrowest unsigned ``array`` typecode holding ``largest``."""
    for code in "BHILQ":
        if largest.bit_length() <= 8 * array(code).itemsize:
            return code
    return None


def _quotient_cover(adj: tuple[int, ...], vertices: list[int],
                    deadline: float | None = None) -> list[list[int]]:
    """Minimum path cover of a connected subgraph on m >= 2 vertices, exact.

    Open twins are interchangeable in any path, so the DP runs over r, the
    members left per twin class, coded in mixed radix: ``best[r]`` is the
    fewest further paths once a path starts in r, ``ends[r]`` the classes it
    can start in to get there. After class c, r costs ``best[r]`` when c is
    adjacent to a class of ``ends[r]``, else ``best[r] + 1`` (a new path).
    Refuses, before allocating, when the states exceed ``2**DEFAULT_DP_LIMIT``.
    """
    m = len(vertices)
    members, qadj = _twin_classes(adj, vertices)
    q = len(members)
    weights = [len(cls) for cls in members]
    strides = []
    states = 1
    for w in weights:
        strides.append(states)
        states *= w + 1
    best_code, ends_code = _typecode(m), _typecode((1 << q) - 1)
    if (states - 1).bit_length() > DEFAULT_DP_LIMIT or ends_code is None:
        raise CapacityExceeded(
            f"path-cover DP over {q} twin classes of {m} vertices needs "
            f"2^{math.log2(states):.1f} states, over the limit 2^{DEFAULT_DP_LIMIT}"
        )
    best = array(best_code, [0]) * states
    ends = array(ends_code, [0]) * states
    # Nothing left: a path from any class ends at no cost. Every class of a
    # connected graph has a neighbour, so every class meets this mask.
    ends[0] = (1 << q) - 1
    r = [0] * q
    for code in range(1, states):
        i = 0
        while r[i] == weights[i]:
            r[i] = 0
            i += 1
        r[i] += 1
        if deadline is not None and (code & 4095) == 0 and time.monotonic() > deadline:
            raise CapacityExceeded("time budget exhausted during the path-cover DP")
        low, argmin, bit = m, 0, 1
        for j in range(q):
            if r[j]:
                prev = code - strides[j]
                cost = best[prev] + (0 if qadj[j] & ends[prev] else 1)
                if cost < low:
                    low, argmin = cost, bit
                elif cost == low:
                    argmin |= bit
            bit <<= 1
        best[code] = low
        ends[code] = argmin
    # Walk forward from r = w: extend into an optimal neighbouring class,
    # else open a new path in an optimal class.
    drawn = [0] * q
    paths: list[list[int]] = []
    code, cur = states - 1, None
    while code:
        options = ends[code] & qadj[cur] if cur is not None else 0
        if not options:
            options = ends[code]
            paths.append([])
        cur = (options & -options).bit_length() - 1
        paths[-1].append(members[cur][drawn[cur]])
        drawn[cur] += 1
        code -= strides[cur]
    return paths


def _cover_lower_bound(adj: tuple[int, ...], mask: int) -> tuple[int, int]:
    """A lower bound on the minimum path cover of the subgraph on ``mask``,
    and the vertex set S (a mask) that certifies it.

    Orient each of a cover's r paths: its arcs are a matching of
    |mask| - r edges of the bipartite double cover, so r >= |mask| - nu.
    S = N(X), for X Koenig's set: the left vertices that alternating paths
    reach from unmatched left vertices. Deleting S cuts r paths into at most
    r + |S| pieces, each inside one component of the rest, so
    r >= c(G[mask] - S) - |S|; and every component needs a path of its own.
    """
    mate_left, mate_right = [-1] * len(adj), [-1] * len(adj)
    matching = 0
    free_right = mask
    for v in bits(mask):  # greedy start
        cand = adj[v] & free_right
        if cand:
            low = cand & -cand
            u = low.bit_length() - 1
            mate_left[v], mate_right[u] = u, v
            free_right ^= low
            matching += 1
    # One breadth-first alternating search per unmatched left vertex. The
    # right vertices of a failed search lie on no later augmenting path, so
    # they stay dead.
    dead = 0
    for v in [v for v in bits(mask) if mate_left[v] < 0]:
        parent: dict[int, int] = {}
        seen, frontier, end = dead, [v], -1
        while frontier and end < 0:
            reached = []
            for x in frontier:
                new = adj[x] & mask & ~seen
                seen |= new
                for u in bits(new):
                    parent[u] = x
                    if mate_right[u] < 0:
                        end = u
                        break
                    reached.append(mate_right[u])
                if end >= 0:
                    break
            frontier = reached
        if end < 0:
            dead = seen
            continue
        while end >= 0:  # flip the path's edges back to v
            x = parent[end]
            prev = mate_left[x]
            mate_left[x], mate_right[end] = end, x
            end = prev
        matching += 1
    # Koenig's set X, grown from every unmatched left vertex at once; S = N(X).
    x_set = frontier = sum(1 << v for v in bits(mask) if mate_left[v] < 0)
    s_set = 0
    while frontier:
        reach = 0
        for x in bits(frontier):
            reach |= adj[x]
        new = reach & mask & ~s_set
        s_set |= new
        frontier = sum(1 << mate_right[u] for u in bits(new)) & ~x_set
        x_set |= frontier
    lb = max(len(_masked_components(adj, mask)),
             mask.bit_count() - matching,
             len(_masked_components(adj, mask & ~s_set)) - s_set.bit_count())
    return lb, s_set


def _cover_component(adj: tuple[int, ...], vertices: list[int],
                     deadline: float | None) -> list[list[int]]:
    """Minimum path cover of the connected subgraph on ``vertices`` (ascending,
    at least two, reached by no outside row): a Hamilton path from the
    heuristic (a valid certificate) if it finds one, else the DP's. The
    heuristic is skipped when the cover's lower bound is at least 2: no
    Hamilton path exists there, so it could only miss.
    """
    found = None
    if _cover_lower_bound(adj, sum(1 << v for v in vertices))[0] < 2:
        found = _rotation_heuristic(adj, vertices, deadline)
    paths = [found] if found is not None else _quotient_cover(adj, vertices, deadline)
    if not all((adj[a] >> b) & 1 for path in paths for a, b in zip(path, path[1:])):
        raise InternalError("path cover engine produced an invalid path")
    return paths


def _hamilton_path_on(adj: tuple[int, ...], mask: int,
                      deadline: float | None = None) -> tuple[int, ...] | None:
    """A Hamilton path of the subgraph on the vertices of ``mask``, which no
    outside row reaches, in the graph's own indices; None when absent.
    """
    vertices = list(bits(mask))
    if len(vertices) <= 1:
        return tuple(vertices)
    if len(_masked_components(adj, mask)) > 1:
        return None
    paths = _cover_component(adj, vertices, deadline)
    return tuple(paths[0]) if len(paths) == 1 else None


def hamilton_path(graph: Graph, *, deadline: float | None = None) -> tuple[int, ...] | None:
    """A Hamilton path of the graph, or None when provably absent.

    Raises CapacityExceeded (inconclusive) when the heuristic finds nothing
    and the quotient DP exceeds its state limit.
    """
    return _hamilton_path_on(graph.adj, graph.full_mask, deadline)


def path_cover_number(graph: Graph, *, deadline: float | None = None) -> PathCover:
    """A minimum path cover of the graph, exact.

    Isolated vertices each contribute a trivial path; every other component
    is settled by the heuristic or the quotient DP. On refusal the bounds
    are sound: each component needs at least its certified lower bound of
    paths (one for a singleton), and a connected component of m >= 2
    vertices at most m - 1 (one edge plus singletons).
    """
    paths: list[tuple[int, ...]] = []
    components = connected_components(graph)
    for comp in components:
        if len(comp) == 1:
            paths.append((comp[0],))
            continue
        try:
            found = _cover_component(graph.adj, comp, deadline)
        except CapacityExceeded as exc:
            raise CapacityExceeded(
                str(exc),
                lower_bound=sum(_cover_lower_bound(graph.adj, sum(1 << v for v in c))[0]
                                for c in components),
                upper_bound=sum(max(1, len(c) - 1) for c in components),
            ) from exc
        paths.extend(min(tuple(seq), tuple(reversed(seq))) for seq in found)
    paths.sort()
    return PathCover(tuple(paths))


def find_complement_p4(graph: Graph) -> tuple[int, int, int, int] | None:
    """Four distinct vertices with the three consecutive pairs nonadjacent.

    Equivalently a 3-edge walk on distinct vertices in the complement (not
    necessarily induced). Returns None when the complement has no such path.
    """
    n = graph.n
    if n < 4:
        return None
    comp = graph.complement.adj
    for a in range(n):
        for b in bits(comp[a]):
            for c in bits(comp[b] & ~(1 << a)):
                tail = comp[c] & ~(1 << a) & ~(1 << b)
                if tail:
                    d = (tail & -tail).bit_length() - 1
                    return (a, b, c, d)
    return None


def cut_vertex_component_profile(graph: Graph, v: int) -> list[int]:
    """Sizes of the components of graph - v, descending."""
    if not 0 <= v < graph.n:
        raise ValueError(f"vertex {v} out of range for {graph.n}-vertex graph")
    return [len(c) for c in _masked_components(graph.adj, graph.full_mask & ~(1 << v))]
