"""Exact graph invariants: cliques, Hamilton paths, minimum path covers.

Everything here is deterministic: vertex scans ascend, branch orders are
fixed, and witnesses come out canonical for a given graph. Exact routines
refuse instances above their configured limits instead of silently guessing;
the rotation heuristic is only ever used to produce positive Hamilton-path
certificates, never to conclude absence.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass

from .errors import CapacityExceeded, InternalError
from .powergraph import Graph, bits, complement, connected_components, delete_vertex

DEFAULT_CLIQUE_LIMIT = 128
DEFAULT_DP_LIMIT = 24

__all__ = [
    "DEFAULT_CLIQUE_LIMIT",
    "DEFAULT_DP_LIMIT",
    "PathCover",
    "WitnessedValue",
    "check_dp_limit",
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


def clique_number(graph: Graph, limit: int = DEFAULT_CLIQUE_LIMIT) -> WitnessedValue:
    """Maximum clique via branch and bound with greedy-coloring upper bounds."""
    n = graph.n
    if n > limit:
        raise CapacityExceeded(f"exact clique search limited to {limit} vertices, got {n}")
    if n == 0:
        return WitnessedValue(0, (), "clique")
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
    return WitnessedValue(best_size, tuple(bits(best_mask)), "clique")


def independence_number(graph: Graph, limit: int = DEFAULT_CLIQUE_LIMIT) -> WitnessedValue:
    """Maximum independent set, computed as a clique of the complement."""
    found = clique_number(complement(graph), limit=limit)
    return WitnessedValue(found.value, found.witness, "independent-set")


def _induced_adjacency(graph: Graph, vertices: list[int]) -> list[int]:
    position = {v: i for i, v in enumerate(vertices)}
    rows = []
    for v in vertices:
        row = 0
        for u in bits(graph.adj[v]):
            i = position.get(u)
            if i is not None:
                row |= 1 << i
        rows.append(row)
    return rows


def _rotation_heuristic(adj: list[int] | tuple[int, ...], m: int,
                        deadline: float | None = None) -> list[int] | None:
    """Greedy path growth with rotation extension; positive answers only."""
    budget = 4 * m * m + 16
    ticks = 0
    for start in range(m):
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


def _twin_classes(adj: list[int] | tuple[int, ...]) -> tuple[list[list[int]], list[int]]:
    """Open-twin classes (equal adjacency rows), members ascending, and the
    quotient adjacency. Twins are never adjacent: no quotient row has its own bit.
    """
    number: dict[int, int] = {}
    members: list[list[int]] = []
    for v, row in enumerate(adj):
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


def _quotient_cover(adj: list[int] | tuple[int, ...], m: int, dp_limit: int,
                    deadline: float | None = None) -> list[list[int]]:
    """Minimum path cover of a connected graph on m >= 2 vertices, exact.

    Open twins are interchangeable in any path, so the DP runs over r, the
    members left per twin class, coded in mixed radix: ``best[r]`` is the
    fewest further paths once a path starts in r, ``ends[r]`` the classes it
    can start in to get there. After class c, r costs ``best[r]`` when c is
    adjacent to a class of ``ends[r]``, else ``best[r] + 1`` (a new path).
    Refuses, before allocating, when the states exceed ``2**dp_limit``.
    """
    members, qadj = _twin_classes(adj)
    q = len(members)
    weights = [len(cls) for cls in members]
    strides = []
    states = 1
    for w in weights:
        strides.append(states)
        states *= w + 1
    best_code, ends_code = _typecode(m), _typecode((1 << q) - 1)
    if (states - 1).bit_length() > dp_limit or ends_code is None:
        raise CapacityExceeded(
            f"path-cover DP over {q} twin classes of {m} vertices needs "
            f"2^{math.log2(states):.1f} states, over the limit 2^{dp_limit}"
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


def _cover_component(adj: list[int] | tuple[int, ...], m: int, dp_limit: int,
                     use_heuristic: bool, deadline: float | None) -> list[list[int]]:
    """Minimum path cover of a connected graph on m >= 2 vertices: a Hamilton
    path from the heuristic (a valid certificate) if it finds one, else the DP's.
    """
    found = _rotation_heuristic(adj, m, deadline) if use_heuristic else None
    paths = [found] if found is not None else _quotient_cover(adj, m, dp_limit, deadline)
    if not all((adj[a] >> b) & 1 for path in paths for a, b in zip(path, path[1:])):
        raise InternalError("path cover engine produced an invalid path")
    return paths


def check_dp_limit(dp_limit: int) -> None:
    """Reject a negative DP limit before any work is done."""
    if dp_limit < 0:
        raise ValueError(f"dp_limit must be non-negative, got {dp_limit}")


def hamilton_path(graph: Graph, dp_limit: int = DEFAULT_DP_LIMIT,
                  use_heuristic: bool = True,
                  deadline: float | None = None) -> tuple[int, ...] | None:
    """A Hamilton path of the graph, or None when provably absent.

    Raises CapacityExceeded (inconclusive) when the heuristic finds nothing
    and the quotient DP exceeds its state limit.
    """
    check_dp_limit(dp_limit)
    n = graph.n
    if n == 0:
        return ()
    if n == 1:
        return (0,)
    if len(connected_components(graph)) > 1:
        return None
    paths = _cover_component(graph.adj, n, dp_limit, use_heuristic, deadline)
    return tuple(paths[0]) if len(paths) == 1 else None


def _canonical_path(seq: list[int]) -> tuple[int, ...]:
    forward = tuple(seq)
    backward = tuple(reversed(seq))
    return min(forward, backward)


def path_cover_number(graph: Graph, dp_limit: int = DEFAULT_DP_LIMIT,
                      use_heuristic: bool = True,
                      deadline: float | None = None) -> PathCover:
    """A minimum path cover of the graph, exact.

    Isolated vertices each contribute a trivial path; every other component
    is settled by the heuristic or the quotient DP. On refusal the bounds
    are sound: each component needs at least one path, and a connected
    component of m >= 2 vertices at most m - 1 (one edge plus singletons).
    """
    check_dp_limit(dp_limit)
    paths: list[tuple[int, ...]] = []
    components = connected_components(graph)
    for comp in components:
        m = len(comp)
        if m == 1:
            paths.append((comp[0],))
            continue
        local = _induced_adjacency(graph, comp)
        try:
            found = _cover_component(local, m, dp_limit, use_heuristic, deadline)
        except CapacityExceeded as exc:
            raise CapacityExceeded(
                str(exc),
                lower_bound=len(components),
                upper_bound=sum(max(1, len(c) - 1) for c in components),
            ) from exc
        paths.extend(_canonical_path([comp[i] for i in seq]) for seq in found)
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
    full = graph.full_mask
    comp = [full & ~graph.adj[v] & ~(1 << v) for v in range(n)]
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
    reduced, _ = delete_vertex(graph, v)
    return [len(c) for c in connected_components(reduced)]
