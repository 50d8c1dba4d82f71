"""Exact graph invariants: Hamilton paths and minimum path covers.

Everything here is deterministic: vertex scans ascend, branch orders are
fixed, and witnesses come out canonical for a given graph. A path cover is
settled per connected component. One maximum matching of the bipartite
double cover gives both a certified lower bound lb and a constructed cover;
when the cover has lb paths it is optimal. On a gap the cocomparability
cover runs, minimum given a cocomparability ordering, as a power graph's
complement has. A component still above lb is searched when it has at
most ``_SEARCH_LIMIT`` vertices and refused otherwise, never guessed.
A question about part of a graph runs on the graph's own rows over a vertex
set that no outside row reaches, and answers in the graph's own indices.
A power graph's clique and independence numbers need no search: its group
reads them off a chain and an antichain of its cyclic subgroups, with the
poset routines here, and checks each witness on the poset. The bound ledger reads two more
answers off the same poset: the dominating vertices and the components of
the graph less them, and whether the complement has a path on four
vertices.
``cut_vertex_component_profile`` and ``find_complement_p4`` answer both on
the graph itself, for the ``invariants`` command and as test references.
"""

from __future__ import annotations

from functools import reduce
from operator import itemgetter, or_
from typing import Callable, NamedTuple, Sequence

from .errors import CapacityExceeded, InternalError
from .powergraph import Graph, _masked_components, bits, connected_components

_SEARCH_LIMIT = 10
_Ordering = Callable[[], Sequence[int]] | None  # builds a cocomparability ordering

__all__ = [
    "PathCover",
    "WitnessedValue",
    "cut_vertex_component_profile",
    "find_complement_p4",
    "hamilton_path",
    "path_cover_number",
]


class WitnessedValue(NamedTuple):
    """An exact invariant plus a witness certifying it."""

    value: int
    witness: tuple[int, ...]
    kind: str  # clique | independent-set


class PathCover(NamedTuple):
    """Vertex-disjoint paths covering every vertex of the target graph."""

    paths: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.paths)


def _heaviest_chain(weights: Sequence[int], below: Sequence[int]) -> tuple[int, list[int]]:
    """A chain of greatest total weight in the strict order whose row
    ``below[i]`` has bit j iff j < i, transitively closed: the weight and the
    chain, top first. An element has fewer elements below it than anything
    above it, so ascending row size is a linear extension for the DP.
    """
    best, step = [0] * len(below), [-1] * len(below)
    for i in sorted(range(len(below)), key=list(map(int.bit_count, below)).__getitem__):
        for j in bits(below[i]):
            if best[j] > best[i]:
                best[i], step[i] = best[j], j
        best[i] += weights[i]
    top = max(range(len(below)), key=best.__getitem__)
    chain = [top]
    while step[chain[-1]] >= 0:
        chain.append(step[chain[-1]])
    return best[top], chain


def _widest_antichain(below: Sequence[int]) -> tuple[int, list[int]]:
    """A largest antichain of the strict order of ``_heaviest_chain``: its
    size and its elements, ascending.

    Matching i to some j < i, on the bipartite graph of the order, chains
    the elements into q - nu chains, and an antichain meets each chain once,
    so the width is at most q - nu (Dilworth, Fulkerson). Koenig's cover of
    a maximum matching misses both copies of exactly q - nu elements, and
    those are an antichain: i in X on the left puts every j < i in S.
    """
    mask = (1 << len(below)) - 1
    matching = _double_cover_matching(below, mask)
    x_set, s_set = _koenig_sets(below, mask, matching)
    return matching[0].count(-1), list(bits(x_set & ~s_set))


def _comparability_weights(weights: Sequence[int], below: Sequence[int]
                           ) -> tuple[int, list[tuple[int, list[int]]]]:
    """The comparability graph of the strict order of ``_heaviest_chain``,
    element i blown up to ``weights[i]`` vertices, split at its element 0
    and every element comparable to all the others: their total weight d,
    and the components of the rest, each its total weight and its elements,
    heaviest first.

    An element comparable to none is a component of its own; the rest are
    joined by one union per pair j < i, as few as the order is sparse, and
    the same pass counts each element's comparable pairs. An element other
    than 0 comparable to all joins every other, so only when one component
    is left are those looked for, and a second pass joins the rest."""
    rows = [row & ~1 for row in below]
    comparable = list(map(int.bit_count, rows))  # completed by the pass
    parts = _joined(weights, rows, comparable)
    if len(parts) > 1:
        return weights[0], parts
    q = len(rows)
    top = sum(1 << i for i in range(1, q) if comparable[i] == q - 2)
    if top == (1 << q) - 2:  # a chain: every element is comparable to all
        return sum(weights), []
    if top:
        rest = [0 if top >> i & 1 else row & ~top for i, row in enumerate(rows)]
        parts = _joined(weights, rest, comparable, top)
    return weights[0] + sum(map(weights.__getitem__, bits(top))), parts


def _joined(weights: Sequence[int], rows: list[int], comparable: list[int],
            skip: int = 0) -> list[tuple[int, list[int]]]:
    """The components of the comparability graph on the elements 1.. of the
    strict order ``rows`` outside ``skip``, whose rows are 0 and in no other
    row, as `_comparability_weights` returns them; ``comparable[j]`` gains
    one for each pair j < i joined."""
    lower = reduce(or_, rows, skip)  # the elements below another, and skip
    root = list(range(len(rows)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    parts, linked = [], []
    for i in range(1, len(rows)):
        row = rows[i]
        if row:
            top = find(i)
            for j in bits(row):
                root[find(j)] = top
                comparable[j] += 1
            linked.append(i)
        elif not lower >> i & 1:
            parts.append((weights[i], [i]))  # comparable to none
        elif not skip >> i & 1:
            linked.append(i)
    members: dict[int, list[int]] = {}
    for i in linked:
        members.setdefault(find(i), []).append(i)
    parts += [(sum(map(weights.__getitem__, part)), part) for part in members.values()]
    parts.sort(key=itemgetter(0), reverse=True)
    return parts


def _incomparability_has_p4(weights: Sequence[int], below: Sequence[int]) -> bool:
    """Whether the blow-up of the incomparability graph H of the strict order
    of ``_heaviest_chain`` less its element 0, element i an independent set
    of ``weights[i]`` vertices, has a path on four vertices (not necessarily
    induced).

    A connected graph has none exactly when it is a star or a triangle. So
    H's components must be, with at most as many edges as vertices; the
    comparable pairs, counted off ``below``, settle that nearly always.
    Otherwise each blown-up component of two or more classes is checked: a
    star is a tree (one edge fewer than vertices) with a vertex seeing all
    the others, a triangle three vertices and three edges.
    """
    rows, q = [row & ~1 for row in below], len(below) - 1
    if q * (q - 1) // 2 - sum(map(int.bit_count, rows)) > q:
        return True
    above = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in bits(row):
            above[j] |= 1 << i
    mask = (1 << len(rows)) - 2
    apart = [mask & ~row & ~up & ~(1 << i) for i, (row, up) in enumerate(zip(rows, above))]
    for members in _masked_components(apart, mask):
        size = sum(map(weights.__getitem__, members))
        degrees = [sum(map(weights.__getitem__, bits(apart[i]))) for i in members]
        edges = sum(weights[i] * d for i, d in zip(members, degrees)) // 2
        star = edges == size - 1 and size - 1 in degrees
        if len(members) > 1 and not (star or edges == size == 3):
            return True
    return False


def _double_cover_matching(adj: Sequence[int], mask: int) -> tuple[list[int], list[int]]:
    """A maximum matching of the bipartite double cover of the subgraph on
    ``mask``: ``succ[v] = u`` pairs left v with right u, read as the arc
    v -> u, and ``pred`` is its inverse; -1 where unmatched. Every vertex has
    at most one arc out and one in, so the arcs form paths and cycles. Left v
    sees the right vertices ``adj[v]``, so the rows need not be symmetric.
    """
    succ, pred = [-1] * len(adj), [-1] * len(adj)
    free_right = mask
    for v in bits(mask):  # greedy start
        cand = adj[v] & free_right
        if cand:
            low = cand & -cand
            u = low.bit_length() - 1
            succ[v], pred[u] = u, v
            free_right ^= low
    # One breadth-first alternating search per unmatched left vertex. The
    # right vertices of a failed search lie on no later augmenting path, so
    # they stay dead.
    dead = 0
    for v in [v for v in bits(mask) if succ[v] < 0]:
        if not adj[v] & mask & ~dead:
            continue  # fails at once, leaving the dead set as it is
        parent: dict[int, int] = {}
        seen, frontier, end = dead, [v], -1
        while frontier and end < 0:
            reached = []
            for x in frontier:
                new = adj[x] & mask & ~seen
                seen |= new
                for u in bits(new):
                    parent[u] = x
                    if pred[u] < 0:
                        end = u
                        break
                    reached.append(pred[u])
                if end >= 0:
                    break
            frontier = reached
        if end < 0:
            dead = seen
            continue
        while end >= 0:  # flip the path's edges back to v
            x = parent[end]
            prev = succ[x]
            succ[x], pred[end] = end, x
            end = prev
    return succ, pred


def _koenig_sets(adj: Sequence[int], mask: int,
                 matching: tuple[list[int], list[int]]) -> tuple[int, int]:
    """Koenig's set X of a maximum matching of the bipartite graph whose left
    vertex v sees the right vertices ``adj[v]``, both sides on ``mask``: the
    left vertices that alternating paths reach from unmatched left vertices.
    Returns X and S = N(X), as masks; (mask - X) on the left with S on the
    right is a minimum vertex cover.
    """
    succ, pred = matching
    x_set = frontier = sum(1 << v for v in bits(mask) if succ[v] < 0)
    s_set = 0
    while frontier:
        reach = 0
        for x in bits(frontier):
            reach |= adj[x]
        new = reach & mask & ~s_set
        s_set |= new
        frontier = sum(1 << pred[u] for u in bits(new)) & ~x_set
        x_set |= frontier
    return x_set, s_set


def _cover_lower_bound(adj: tuple[int, ...], mask: int,
                       matching: tuple[list[int], list[int]] | None = None,
                       components: int | None = None) -> tuple[int, int]:
    """A lower bound on the minimum path cover of the subgraph on ``mask``,
    and the vertex set S (a mask) that certifies it. ``matching`` is the
    subgraph's ``_double_cover_matching`` and ``components`` its number of
    components, each computed here when not given.

    Orient each of a cover's r paths: its arcs are a matching of
    |mask| - r edges of the bipartite double cover, so r >= |mask| - nu.
    S = N(X), for X Koenig's set. Deleting S cuts r paths into at most
    r + |S| pieces, each inside one component of the rest, so
    r >= c(G[mask] - S) - |S|, which is c(G[mask]) when S is empty; and
    every component needs a path of its own.
    """
    matching = matching or _double_cover_matching(adj, mask)
    x_set, s_set = _koenig_sets(adj, mask, matching)
    unmatched = mask.bit_count() - (len(adj) - matching[0].count(-1))  # all matched lie in mask
    lb = max(components or len(_masked_components(adj, mask)),
             unmatched,
             len(_masked_components(adj, mask & ~s_set)) - s_set.bit_count() if s_set else 0)
    return lb, s_set


def _constructed_cover(adj: tuple[int, ...], vertices: list[int],
                       matching: tuple[list[int], list[int]], target: int) -> list[list[int]]:
    """A path cover of the connected subgraph on ``vertices`` (ascending),
    built from its double-cover matching; it stops improving once it has
    ``target`` paths.

    The matching's arcs are oriented into paths and cycles. Each cycle is
    spliced into a path end that meets it, else merged with a later cycle it
    touches, else opened. Path ends that meet are then joined, and each end
    is rotated (Posa: a tail adjacent to p[k] makes p[k+1] the new tail) at
    most once per vertex of its path until it meets another path's end.
    Scans ascend and ties go to the lowest index.
    """
    succ, pred = matching
    paths: list[list[int] | None] = []
    cycles = []
    placed: set[int] = set()
    # Walk a path from each vertex without a predecessor, then a cycle from
    # each vertex still left.
    for v in [v for v in vertices if pred[v] < 0] + vertices:
        if v not in placed:
            chain = [v]
            while succ[chain[-1]] >= 0 and succ[chain[-1]] != v:
                chain.append(succ[chain[-1]])
            placed.update(chain)
            (paths if pred[v] < 0 else cycles).append(chain)
    owner: dict[int, int] = {}  # path end -> index of its path
    ends = 0

    def mark(i: int, on: bool) -> None:
        nonlocal ends
        path = paths[i]
        both = (1 << path[0]) | (1 << path[-1])
        if on:
            owner[path[0]] = owner[path[-1]] = i
            ends |= both
        else:
            ends &= ~both

    def append(path: list[int]) -> None:
        paths.append(path)
        mark(len(paths) - 1, True)

    for i in range(len(paths)):
        mark(i, True)
    cmasks = [sum(1 << v for v in cycle) for cycle in cycles]
    merged = 0  # cycles already merged into an earlier one
    for c, cycle in enumerate(cycles):
        if (merged >> c) & 1:
            continue
        cmask = cmasks[c]
        reach = 0
        for v in cycle:
            reach |= adj[v]
        if reach & ends:  # splice into the lowest path end that meets it
            end = ((reach & ends) & -(reach & ends)).bit_length() - 1
            i = owner[end]
            path = paths[i]
            mark(i, False)
            if path[-1] != end:
                path.reverse()
            low = adj[end] & cmask
            k = cycle.index((low & -low).bit_length() - 1)
            path += cycle[k:] + cycle[:k]
            mark(i, True)
            continue
        for d in range(c + 1, len(cycles)):
            meet = reach & cmasks[d]
            if meet and not (merged >> d) & 1:  # one path through both cycles
                b = (meet & -meet).bit_length() - 1
                low = adj[b] & cmask
                k = cycle.index((low & -low).bit_length() - 1)
                j = cycles[d].index(b)
                append(cycle[k + 1:] + cycle[:k + 1] + cycles[d][j:] + cycles[d][:j])
                merged |= 1 << d
                break
        else:
            append(cycle)

    count = len(paths)

    def join_tail(i: int) -> bool:
        """Join the tail of path i to the lowest other path end it meets."""
        nonlocal count
        path = paths[i]
        meet = adj[path[-1]] & ends & ~(1 << path[0])
        if not meet:
            return False
        end = (meet & -meet).bit_length() - 1
        j = owner[end]
        other = paths[j]
        mark(j, False)
        mark(i, False)
        if other[0] != end:
            other.reverse()
        path += other
        paths[j] = None
        mark(i, True)
        count -= 1
        return True

    def rotate_tail(i: int) -> bool:
        """Rotate path i's tail, each vertex at most once, until it meets
        another path's end; then join the two."""
        path = paths[i]
        if len(path) < 3:
            return False
        mark(i, False)
        inside = sum(1 << v for v in path)
        tried = 1 << path[-1]
        for _ in range(len(path)):
            pos = {v: k for k, v in enumerate(path)}
            pivots = [pos[v] for v in bits(adj[path[-1]] & inside & ~(1 << path[-2]))]
            meeting = [k for k in pivots if adj[path[k + 1]] & ends]
            fresh = [k for k in pivots if not (tried >> path[k + 1]) & 1]
            if not meeting and not fresh:
                break
            k = meeting[0] if meeting else min(fresh, key=lambda k: path[k + 1])
            path[k + 1:] = reversed(path[k + 1:])
            tried |= 1 << path[-1]
            if meeting:
                break
        mark(i, True)
        return join_tail(i)

    for rotating in (False, True):
        progress = True
        while progress and count > target:
            progress = False
            for i in range(len(paths)):
                for _ in range(2):  # the tail, then the head
                    while paths[i] is not None and count > target and join_tail(i):
                        progress = True
                    if paths[i] is None or count == target:
                        break
                    if rotating and rotate_tail(i):
                        progress = True
                    paths[i].reverse()
    return [path for path in paths if path is not None]


def _cocomparability_cover(adj: tuple[int, ...], vertices: list[int],
                           ordering: Sequence[int]) -> list[list[int]]:
    """A path cover of the subgraph on ``vertices``, which ``ordering`` lists
    among any others; minimum when ``ordering`` is a cocomparability ordering
    of the subgraph (Corneil, Dalton and Habib, SIAM J. Comput. 42, 2013).

    LDFS+ visits the rightmost vertex of greatest label (visited neighbours,
    latest first); paths start at the vertex left that LDFS visited last and
    step to the end's neighbour left that LDFS visited last. Twins (equal
    rows) share every label and are never adjacent, and moving one next to
    another keeps an ordering cocomparability, so each class is moved up to
    its first member and LDFS refines blocks of classes (in a power graph's
    complement, cyclic subgroups): about n q steps for q classes.
    """
    inside, mask = set(vertices), sum(1 << v for v in vertices)
    twins: dict[int, list[int]] = {}  # row -> its vertices, in ``ordering``'s order
    for v in filter(inside.__contains__, ordering):
        twins.setdefault(adj[v] & mask, []).append(v)
    members = list(twins.values())
    every, first = (1 << len(members)) - 1, {vs[0]: 1 << c for c, vs in enumerate(members)}
    firsts = sum(1 << v for v in first)
    near = [_gathered(adj[vs[0]] & firsts, firsts, first, every) for vs in members]
    # LDFS+ by partition refinement: the blocks hold equal labels, greatest
    # first, and a visit moves its class's neighbours ahead of the rest.
    visits: list[tuple[int, int]] = []  # LDFS order: each vertex and its class
    spots = [0] * len(members)  # per class: its places in LDFS order, a mask
    blocks = [every]
    while blocks:
        c = blocks[0].bit_length() - 1
        spots[c] |= 1 << len(visits)
        visits.append((members[c].pop(), c))
        if not members[c]:
            blocks[0] ^= 1 << c  # an empty block drops out of the refinement
        row = near[c]
        blocks = [b & row for b in blocks if b & row] + [b & ~row for b in blocks if b & ~row]
    left = (1 << len(visits)) - 1
    later = [_gathered(row, every, spots, left) for row in near]  # per class, by place
    paths: list[list[int]] = []
    reach = 0  # the end's neighbours left, by place
    while left:
        if not reach:
            paths.append([])
            reach = left
        p = reach.bit_length() - 1
        left ^= 1 << p
        v, c = visits[p]
        paths[-1].append(v)
        reach = later[c] & left
    return paths


def _gathered(row: int, universe: int, pieces: Sequence[int] | dict[int, int], whole: int) -> int:
    """The union of ``pieces[i]`` over the bits i of ``row``, read off the
    fewer of row's bits and the rest of ``universe``'s, whose pieces are
    disjoint with union ``whole``."""
    if 2 * row.bit_count() <= universe.bit_count():
        return reduce(or_, map(pieces.__getitem__, bits(row)), 0)
    return whole & ~reduce(or_, map(pieces.__getitem__, bits(universe & ~row)), 0)


def _searched_cover(adj: tuple[int, ...], vertices: list[int], **bounds: int) -> list[list[int]]:
    """A minimum path cover of the subgraph on ``vertices``, by a search over
    (covered set, last vertex). Above ``_SEARCH_LIMIT`` vertices it raises
    CapacityExceeded with ``bounds`` (``lower_bound``, ``upper_bound``)."""
    m = len(vertices)
    if m > _SEARCH_LIMIT:
        raise CapacityExceeded(
            f"no cover built for a {m}-vertex component meets its certified lower "
            f"bound, and the exact search takes at most {_SEARCH_LIMIT} vertices", **bounds)
    near = [sum(1 << j for j, u in enumerate(vertices) if adj[v] >> u & 1) for v in vertices]
    # best[s][j]: a cover of the set s by the fewest paths, the last ending at j
    best: list[dict[int, list[list[int]]]] = [{} for _ in range(1 << m)]
    for s in range(1, 1 << m):
        for j in bits(s):
            rest = best[s & ~(1 << j)]
            covers = [rest[i][:-1] + [rest[i][-1] + [vertices[j]]] for i in bits(s & near[j])]
            covers.append(min(rest.values(), key=len, default=[]) + [[vertices[j]]])
            best[s][j] = min(covers, key=len)
    return min(best[-1].values(), key=len)


def _built_cover(adj: tuple[int, ...], vertices: list[int], matching: tuple[list[int], list[int]],
                 lb: int, ordering: _Ordering) -> list[list[int]]:
    """The constructed cover of the connected subgraph on ``vertices`` with
    lower bound ``lb``; on a gap, the cocomparability cover from
    ``ordering()`` (else the vertex order) if it has fewer paths."""
    paths = _constructed_cover(adj, vertices, matching, lb)
    if len(paths) > lb:
        other = _cocomparability_cover(adj, vertices, ordering() if ordering else vertices)
        paths = min(paths, other, key=len)
    return paths


def _sandwich(adj: tuple[int, ...], vertices: list[int],
              ordering: _Ordering = None) -> tuple[int, list[list[int]]]:
    """The certified lower bound on the minimum path cover of the connected
    subgraph on ``vertices``, and `_built_cover` from the same matching."""
    mask = sum(1 << v for v in vertices)
    matching = _double_cover_matching(adj, mask)
    lb = _cover_lower_bound(adj, mask, matching, components=1)[0]
    return lb, _built_cover(adj, vertices, matching, lb, ordering)


def _checked_paths(adj: tuple[int, ...], paths: list[list[int]]) -> list[list[int]]:
    """The paths, once every step of each is checked to be an edge."""
    if not all((adj[a] >> b) & 1 for path in paths for a, b in zip(path, path[1:])):
        raise InternalError("path cover engine produced an invalid path")
    return paths


def _hamilton_path_on(adj: tuple[int, ...], mask: int,
                      ordering: _Ordering = None) -> tuple[int, ...] | None:
    """A Hamilton path of the subgraph on the vertices of ``mask``, which no
    outside row reaches, in the graph's own indices; None when absent.
    ``ordering`` is the graph's ``_ordering``."""
    vertices = list(bits(mask))
    if len(vertices) <= 1:
        return tuple(vertices)
    matching = _double_cover_matching(adj, mask)
    if _cover_lower_bound(adj, mask, matching)[0] > 1:
        return None  # certified: no single path covers it
    paths = _built_cover(adj, vertices, matching, 1, ordering)
    paths = _checked_paths(adj, paths if len(paths) == 1 else _searched_cover(adj, vertices))
    return tuple(paths[0]) if len(paths) == 1 else None


def hamilton_path(graph: Graph) -> tuple[int, ...] | None:
    """A Hamilton path of the graph, or None when provably absent.

    A certified lower bound of 2 or more answers None before any cover is
    built. Raises CapacityExceeded (inconclusive) when the bound is 1, no
    built cover is one path and the search refuses the graph.
    """
    return _hamilton_path_on(graph.adj, graph.full_mask, graph._ordering)


def path_cover_number(graph: Graph) -> PathCover:
    """A minimum path cover of the graph, exact.

    Each component's sandwich is computed once (`_sandwich`, with the
    graph's ``_ordering``; a trivial path for a singleton). Where the two
    meet the cover is optimal; elsewhere the search settles a component of
    at most ``_SEARCH_LIMIT`` vertices, or CapacityExceeded carries sound
    bounds: the sums over all components of the lower bounds and of the
    built covers, which are real covers.
    """
    adj, components = graph.adj, connected_components(graph)
    sandwiches = [(1, [comp]) if len(comp) == 1 else _sandwich(adj, comp, graph._ordering)
                  for comp in components]
    paths: list[tuple[int, ...]] = []
    for comp, (lb, found) in zip(components, sandwiches):
        if len(found) > lb:
            found = _searched_cover(adj, comp, lower_bound=sum(lb for lb, _ in sandwiches),
                                    upper_bound=sum(len(built) for _, built in sandwiches))
        paths.extend(min(tuple(seq), tuple(reversed(seq))) for seq in _checked_paths(adj, found))
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
