"""Independent brute-force references used to pin expected test values.

Nothing here shares code with the solvers: cliques come from subset
enumeration, Hamilton paths from pruned sequence enumeration, path covers
from explicit set-partition enumeration and spans from exhaustive label
assignment over breadth-first distances. The row check and the labeling
check are the per-edge and per-pair scans that the row-at-a-time kernels
of ``Graph`` and ``validate_l21`` must agree with. Group tables are
checked on every triple.

Two exact searches that once lived in the package are kept here as
references for graphs too large for brute force: the branch-and-bound
clique search (``clique_number``, ``independence_number``) and
iterative-deepening backtracking on the span (``lambda_backtrack``).
Backtracking takes only the set S of the package's path-cover lower bound
as a hint and recounts the bound from S itself; any S gives a sound bound,
so a wrong S can slow the search down but not change its answer.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import combinations, compress, count
from operator import itemgetter, ne
from typing import NamedTuple

from lambda_power.errors import CapacityExceeded, InternalError
from lambda_power.invariants import WitnessedValue, _cover_lower_bound
from lambda_power.labeling import Labeling
from lambda_power.powergraph import Graph, bits

DEFAULT_CLIQUE_LIMIT = 128
DEFAULT_BACKTRACK_LIMIT = 20


def adjacency_sets(graph: Graph) -> list[set[int]]:
    return [set(bits(row)) for row in graph.adj]


def bfs_distances(graph: Graph, start: int) -> list[int]:
    dist = [-1] * graph.n
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in bits(graph.adj[v]):
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def brute_max_clique(graph: Graph) -> int:
    n = graph.n
    best = 0
    adj = adjacency_sets(graph)
    for size in range(n, 0, -1):
        if size <= best:
            break
        for subset in combinations(range(n), size):
            if all(v in adj[u] for u, v in combinations(subset, 2)):
                best = size
                break
    return best


def brute_hamilton_exists(graph: Graph) -> bool:
    n = graph.n
    if n <= 1:
        return True
    adj = adjacency_sets(graph)

    def extend(seq: list[int], remaining: set[int]) -> bool:
        if not remaining:
            return True
        for v in sorted(remaining & adj[seq[-1]]):
            seq.append(v)
            remaining.remove(v)
            if extend(seq, remaining):
                return True
            seq.pop()
            remaining.add(v)
        return False

    for start in range(n):
        if extend([start], set(range(n)) - {start}):
            return True
    return False


def brute_path_cover_count(graph: Graph) -> int:
    """Minimum block count over all set partitions with path-orderable
    blocks, summed over the connected components: no path leaves one."""
    adj = adjacency_sets(graph)
    total, seen = 0, set()
    for start in range(graph.n):
        if start not in seen:
            component, frontier = {start}, [start]
            while frontier:
                new = adj[frontier.pop()] - component
                component |= new
                frontier.extend(new)
            seen |= component
            total += _brute_cover(sorted(component), adj)
    return total


def _brute_cover(vertices: list[int], adj: list[set[int]]) -> int:
    """Minimum block count over all set partitions of ``vertices`` whose
    blocks are path-orderable."""
    n = len(vertices)
    orderable: dict[frozenset[int], bool] = {}

    def block_ok(block: frozenset[int]) -> bool:
        cached = orderable.get(block)
        if cached is not None:
            return cached

        def order(seq: list[int], remaining: set[int]) -> bool:
            if not remaining:
                return True
            for v in sorted(remaining & adj[seq[-1]]):
                seq.append(v)
                remaining.remove(v)
                if order(seq, remaining):
                    return True
                seq.pop()
                remaining.add(v)
            return False

        ok = len(block) == 1 or any(
            order([start], set(block) - {start}) for start in block)
        orderable[block] = ok
        return ok

    best = n  # singletons always work

    def assign(i: int, blocks: list[set[int]]) -> None:
        nonlocal best
        if len(blocks) >= best and i < n:
            return
        if i == n:
            if all(block_ok(frozenset(b)) for b in blocks):
                best = min(best, len(blocks))
            return
        for block in blocks:
            block.add(vertices[i])
            assign(i + 1, blocks)
            block.remove(vertices[i])
        blocks.append({vertices[i]})
        assign(i + 1, blocks)
        blocks.pop()

    assign(0, [])
    return best


def check_l21(graph: Graph, labels: tuple[int, ...] | list[int]) -> bool:
    """Constraint check against breadth-first distances, not adjacency masks."""
    for u in range(graph.n):
        dist = bfs_distances(graph, u)
        for v in range(u + 1, graph.n):
            if dist[v] == 1 and abs(labels[u] - labels[v]) < 2:
                return False
            if dist[v] == 2 and labels[u] == labels[v]:
                return False
    return True


def brute_lambda(graph: Graph, max_span: int | None = None) -> int:
    """Smallest feasible span by exhaustive label assignment; tiny graphs only."""
    n = graph.n
    if n == 0:
        return 0
    pair_kind: dict[tuple[int, int], int] = {}
    for u in range(n):
        dist = bfs_distances(graph, u)
        for v in range(u + 1, n):
            if dist[v] in (1, 2):
                pair_kind[(u, v)] = dist[v]
    top = max_span if max_span is not None else 2 * n - 2

    def assign(v: int, labels: list[int], k: int) -> bool:
        if v == n:
            return True
        for lab in range(k + 1):
            ok = True
            for u in range(v):
                kind = pair_kind.get((u, v))
                if kind == 1 and abs(labels[u] - lab) < 2:
                    ok = False
                    break
                if kind == 2 and labels[u] == lab:
                    ok = False
                    break
            if ok:
                labels.append(lab)
                if assign(v + 1, labels, k):
                    return True
                labels.pop()
        return False

    for k in range(top + 1):
        if assign(0, [], k):
            return k
    raise AssertionError("no labeling found within the trivial upper bound")


def reference_row_check(rows: tuple[int, ...] | list[int]) -> str | None:
    """Per-edge scan of adjacency rows: the message of the first fault, or None."""
    n = len(rows)
    for v, row in enumerate(rows):
        if row >> n:
            return f"adjacency row {v} mentions vertices >= {n}"
        if (row >> v) & 1:
            return f"vertex {v} is adjacent to itself"
        for u in bits(row):
            if not (rows[u] >> v) & 1:
                return f"adjacency not symmetric at ({v}, {u})"
    return None


def reference_violations(graph: Graph, labels) -> list[tuple[int, int, str]]:
    """Pair scan over breadth-first distances: every adjacent pair u < v with
    labels closer than 2, then every distance-2 pair with equal labels."""
    dists = [bfs_distances(graph, u) for u in range(graph.n)]
    pairs = list(combinations(range(graph.n), 2))
    return ([(u, v, "adjacent-gap") for u, v in pairs
             if dists[u][v] == 1 and abs(labels[u] - labels[v]) < 2]
            + [(u, v, "distance2-equal") for u, v in pairs
               if dists[u][v] == 2 and labels[u] == labels[v]])


def power_walk(table) -> tuple[list[int], list[int]]:
    """Orders and inverses by walking x, x^2, ... for every element x; on a
    table that is no group's, a walk stops after n + 1 terms."""
    orders, inverses = [], []
    for x in range(len(table)):
        powers = [x]
        while powers[-1] != 0 and len(powers) <= len(table):
            powers.append(table[powers[-1]][x])
        orders.append(len(powers))
        inverses.append(powers[-2] if len(powers) > 1 else 0)
    return orders, inverses


def cyclic_subgroups_of(table) -> tuple[list[int], ...]:
    """The fields of a group's ``_cyclic_subgroups`` from its table: every <x>
    as a mask of its powers, the distinct ones numbered in order of their
    first generator; then per subgroup its generators, the generators of
    every subgroup containing it and the subgroups strictly inside it; and
    per element x the order of x, the size of <x>."""
    spans = []
    for x in range(len(table)):
        powers, y = {0}, x
        while y:
            powers.add(y)
            y = table[y][x]
        spans.append(sum(1 << y for y in powers))
    masks = list(dict.fromkeys(spans))
    number = list(map({mask: j for j, mask in enumerate(masks)}.__getitem__, spans))
    generators = [0] * len(masks)
    for x, j in enumerate(number):
        generators[j] |= 1 << x
    above = [sum(g for g, big in zip(generators, masks) if not mask & ~big) for mask in masks]
    inside = [sum(1 << j for j, small in enumerate(masks) if small != big and not small & ~big)
              for big in masks]
    return number, masks, generators, above, inside, tuple(map(int.bit_count, spans))


def composed_permutation_table(generators) -> tuple[tuple[int, ...], ...]:
    """Cayley table of the group generated by 1-based image tuples, indexed
    breadth-first from the identity, with every product composed directly."""
    identity = tuple(range(1, len(generators[0]) + 1))
    perms, index = [identity], {identity: 0}
    for current in perms:
        for gen in generators:
            composed = tuple(current[g - 1] for g in gen)
            if composed not in index:
                index[composed] = len(perms)
                perms.append(composed)
    return tuple(tuple(index[tuple(a[i - 1] for i in b)] for b in perms) for a in perms)


def pair_product_table(g_table, h_table) -> tuple[tuple[int, ...], ...]:
    """Cayley table of G x H entry by entry: pair (a, b) is a * |H| + b, and
    (a1, b1)(a2, b2) = g[a1][a2] * |H| + h[b1][b2]."""
    hn = len(h_table)
    return tuple(
        tuple(g_table[a1][a2] * hn + h_table[b1][b2]
              for a2 in range(len(g_table)) for b2 in range(hn))
        for a1 in range(len(g_table)) for b1 in range(hn)
    )


def is_group_table(table, inverses) -> bool:
    """Every row an int permutation of the indices, 0 the identity, inverses[x]
    a right inverse of x, and (ab)c = a(bc) on every triple."""
    n = len(table)
    indices = list(range(n))
    if not all(len(row) == n and all(type(v) is int for v in row) and sorted(row) == indices
               for row in table):
        return False
    return (all(table[0][x] == x == table[x][0] and table[x][inverses[x]] == 0
                for x in indices)
            and all(table[table[a][b]][c] == table[a][table[b][c]]
                    for a in indices for b in indices for c in indices))


class TableGroup(NamedTuple):
    """A raw Cayley table with the orders and inverses claimed for it."""

    order: int
    table: tuple
    orders: tuple
    inverses: tuple
    descriptor: object

    @classmethod
    def of(cls, group) -> TableGroup:
        """A built group's table, orders and inverses, to change and revalidate."""
        return cls(group.order, group.table, group.orders, group.inverses, group.descriptor)


def validated_group(table, descriptor) -> TableGroup:
    """A group on a raw table, refused by ``validate_table`` unless it is a
    group's. Orders and inverses come from ``power_walk``; an entry that is
    not an element index raises ``InternalError``."""
    try:
        orders, inverses = power_walk(table)
    except (IndexError, TypeError) as exc:
        raise _bad_entry(exc) from exc
    group = TableGroup(len(table), table, tuple(orders), tuple(inverses), descriptor)
    validate_table(group)
    return group


def validate_table(group) -> None:
    """The group laws element by element, then associativity from the closure
    tree that reads off a generating set A: every element y but e was first
    reached as y = xa with x reached before it and a in A.

    Two checks, about n^2 + |A|^2 n lookups in all:

    - tree rows: row xa is row x read through row a, for every tree edge;
    - commutation: row a read through column b is column b read through row
      a, that is a(zb) = (az)b, for all generators a, b and every z.

    Why they suffice. The generator rows are permutations and row e is the
    identity, so by induction along the tree every row is a permutation of
    range(n), a composition of generator rows; no negative or out-of-range
    entry survives. Each left multiplication then commutes with each right
    multiplication by a generator b: (xz)b = x(zb) for all x, z. The set of c
    with (xz)c = x(zc) for all x, z holds e and every generator, and is closed
    under products: (xz)(cb) = ((xz)c)b = (x(zc))b = x((zc)b) = x(z(cb)).
    Every element is a left-nested product of generators, so the table is
    associative, and with the identity and inverse laws it is a group. Every
    group table passes both checks.
    """
    n = group.order
    table = group.table
    for x in range(n):
        if table[0][x] != x or table[x][0] != x:
            raise InternalError(f"identity law fails at element {x}")
        if table[x][group.inverses[x]] != 0:
            raise InternalError(f"inverse law fails at element {x}")
        if group.orders[x] < 1 or n % group.orders[x] != 0:
            raise InternalError(f"order of element {x} violates Lagrange")
    if group.orders[0] != 1:
        raise InternalError("identity must have order 1")
    try:
        columns, edges = closure_tree(table, group.orders)
        through_row = {a: itemgetter(*table[a]) for a in columns}
        through_column = {b: itemgetter(*column) for b, column in columns.items()}
        if not (all(table[y] == through_row[a](table[x]) for x, a, y in edges)
                and all(through_column[b](table[a]) == through_row[a](columns[b])
                        for a in columns for b in columns)):
            raise InternalError(f"associativity fails at {first_non_associative(table)}")
    except (IndexError, TypeError) as exc:
        raise _bad_entry(exc) from exc


def _bad_entry(exc: Exception) -> InternalError:
    return InternalError(f"Cayley table holds an entry that is not an element index ({exc})")


def generating_set(table, orders) -> list[int]:
    """The generators of the closure tree that ``validate_table`` checks."""
    return list(closure_tree(table, orders)[0])


def closure_tree(table, orders) -> tuple[dict[int, tuple[int, ...]], list[tuple[int, int, int]]]:
    """Generators picked greedily until the identity's closure under right
    multiplication by them reaches every element: each is the unreached
    element of largest order, the smallest index on ties.

    Returns each generator's column, in the order picked, and the tree edges
    (x, a, xa), one for every element but e, each x reached before xa. Each
    generator row is checked to be a permutation. In a group each new
    generator at least doubles the closure, so a table that needs more than
    log2 n generators is refused.
    """
    n = len(table)
    everyone = frozenset(range(n))
    reached = bytearray(n)
    reached[0] = 1
    members = [0]
    columns: dict[int, tuple[int, ...]] = {}
    edges: list[tuple[int, int, int]] = []
    for a in sorted(range(n), key=orders.__getitem__, reverse=True):  # stable on ties
        if reached[a]:
            continue
        if len(columns) == n.bit_length() - 1:
            raise InternalError(f"Cayley table needs more than {len(columns)} generators, "
                                f"which no group of order {n} does")
        if frozenset(table[a]) != everyone:
            raise InternalError(f"row {a} of the Cayley table is not a permutation")
        columns[a] = tuple(map(itemgetter(a), table))
        newest = [(a, columns[a])]
        closed = len(members)  # the closure so far needs only the new column
        for i, x in enumerate(members):  # grows while it is walked
            for b, column in newest if i < closed else columns.items():
                y = column[x]
                if not reached[y]:
                    reached[y] = 1
                    members.append(y)
                    edges.append((x, b, y))
    return columns, edges


def first_non_associative(table) -> tuple[int, int, int]:
    """The first (a, b, c) with (ab)c != a(bc) in lexicographic order, on a
    table known to have one: row ab against row b read through row a."""
    for a in count():
        row = table[a]
        composed = (itemgetter(*table_b)(row) for table_b in table)
        b = next(compress(count(), map(ne, map(table.__getitem__, row), composed)), None)
        if b is not None:
            c = next(c for c in count() if table[row[b]][c] != row[table[b][c]])
            return a, b, c


def closure_table(generators) -> list[list[int]]:
    """The table that the closure of the identity under right multiplication
    by the given left-multiplication rows spans, entry by entry: row xa is
    (x(az) for every z). Rows never reached stay None."""
    n = len(generators[0])
    rows = [None] * n
    rows[0] = list(range(n))
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for gen in generators:
            y = rows[x][gen[0]]
            if rows[y] is None:
                rows[y] = [rows[x][gen[z]] for z in range(n)]
                queue.append(y)
    return rows


def permutation_rows(images) -> list[tuple[int, ...]]:
    """Each generator's left-multiplication row over the closure of the
    1-based images, breadth-first from the identity, every product composed
    as a tuple: (p * q)[i] = p[q[i]], and row x holds the index of x * z."""
    gens = [tuple(v - 1 for v in p) for p in images]
    identity = tuple(range(len(images[0]) if images else 1))
    elements, index = [identity], {identity: 0}
    for current in elements:
        for gen in gens:
            composed = tuple(current[i] for i in gen)
            if composed not in index:
                index[composed] = len(elements)
                elements.append(composed)
    return [tuple(index[tuple(gen[i] for i in z)] for z in elements) for gen in gens] or [(0,)]


def relabelled_rows(rows, relabel) -> list[tuple[int, ...]]:
    """Left-multiplication rows under the relabelling x -> relabel[x], which
    fixes 0: row'[relabel[x]] = relabel[row[x]]."""
    out = []
    for row in rows:
        moved = [0] * len(row)
        for x, y in enumerate(row):
            moved[relabel[x]] = relabel[y]
        out.append(tuple(moved))
    return out


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
    return Graph(tuple(rows)), survivors


def clique_number(graph: Graph) -> WitnessedValue:
    """Maximum clique of a general graph, refused above ``DEFAULT_CLIQUE_LIMIT``
    vertices; the limit bounds size, not time."""
    n = graph.n
    if n > DEFAULT_CLIQUE_LIMIT:
        raise CapacityExceeded(
            f"exact clique search limited to {DEFAULT_CLIQUE_LIMIT} vertices, got {n}")
    best = _clique_search(graph)
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


def scattering_count(graph: Graph, s: int) -> int:
    """max(c(G), c(G - S) - |S|), counted by breadth-first search: a lower
    bound on the minimum path cover of ``graph`` for any vertex mask S.

    Every component needs a path of its own, and deleting S cuts a cover of
    r paths into at most r + |S| pieces, each inside one component of G - S.
    """
    def count(keep: set[int]) -> int:
        components = 0
        while keep:
            components += 1
            queue = deque([keep.pop()])
            while queue:
                for u in bits(graph.adj[queue.popleft()]):
                    if u in keep:
                        keep.remove(u)
                        queue.append(u)
        return components

    return max(count(set(range(graph.n))),
               count(set(range(graph.n)) - set(bits(s))) - s.bit_count())


def double_cover_matching_size(graph: Graph) -> int:
    """The size of a maximum matching of the bipartite double cover (left v
    sees right u when uv is an edge), by Kuhn's augmenting paths."""
    owner = [-1] * graph.n  # right u -> its left partner

    def augment(v: int, seen: set[int]) -> bool:
        for u in bits(graph.adj[v]):
            if u not in seen:
                seen.add(u)
                if owner[u] < 0 or augment(owner[u], seen):
                    owner[u] = v
                    return True
        return False

    return sum(augment(v, set()) for v in range(graph.n))


def maximal_cyclic_sets(group) -> list[frozenset[int]]:
    """The cyclic subgroups, as element sets, that lie inside no other,
    largest first, ties by their sorted elements: set inclusion over one
    set per element, with no poset."""
    subgroups = set(map(frozenset, map(bits, group._cyclic_subgroups.masks)))
    maximal = [s for s in subgroups if not any(s < t for t in subgroups)]
    return sorted(maximal, key=lambda s: (-len(s), sorted(s)))


def decomposition_reference(maximal: list[frozenset[int]]) -> tuple[bool, bool]:
    """``decomposition_conditions`` over the maximal cyclic subgroups as sets:
    every two meet in the identity alone, and n_1 + t - 2 <= n_2 + ... + n_t."""
    sizes = [len(s) for s in maximal]
    return (all(a & b == {0} for a, b in combinations(maximal, 2)),
            len(sizes) >= 2 and sizes[0] + len(sizes) - 2 <= sum(sizes[1:]))


def _degree_order(graph: Graph) -> list[int]:
    """Vertices by descending degree, ties to the lower index."""
    return sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))


def _twin_predecessors(graph: Graph) -> list[int]:
    """prev_twin[v]: previous vertex in v's twin class by index, or -1.

    Two vertices with equal closed neighborhoods (mutually adjacent twins) or
    equal open neighborhoods (nonadjacent twins) can swap labels in any valid
    labeling, so forcing ascending labels within a class loses no solutions.
    No vertex has twins of both kinds, so no vertex is given two predecessors.
    """
    prev = [-1] * graph.n
    for closed in (False, True):
        last: dict[int, int] = {}
        for v, row in enumerate(graph.adj):
            key = row | (1 << v) if closed else row
            if key in last:
                prev[v] = last[key]
            last[key] = v
    return prev


def _span_feasible(graph: Graph, k: int, order: list[int], prev_twin: list[int],
                   deadline: float | None) -> list[int] | None:
    n = graph.n
    adj = graph.adj
    full = (1 << (k + 1)) - 1
    domains = [full] * n
    labels = [-1] * n
    used = 0
    ticks = 0

    def place(pos: int) -> bool:
        nonlocal used, ticks
        if pos == n:
            return True
        v = order[pos]
        cand = domains[v] & ~used
        twin = prev_twin[v]
        if twin >= 0 and labels[twin] >= 0:
            cand &= ~((1 << labels[twin]) - 1)  # no smaller than the earlier twin
        while cand:
            low = cand & -cand
            cand ^= low
            ticks += 1
            if deadline is not None and (ticks & 2047) == 0 \
                    and time.monotonic() > deadline:
                raise CapacityExceeded("time budget exhausted during span search")
            labels[v] = low.bit_length() - 1
            used |= low
            near = low | (low << 1) | (low >> 1)
            trail: list[tuple[int, int]] = []
            ok = True
            for u in bits(adj[v]):
                if labels[u] >= 0:
                    continue
                old = domains[u]
                new = old & ~near
                if new != old:
                    domains[u] = new
                    trail.append((u, old))
                    if not new:
                        ok = False
                        break
            if ok and place(pos + 1):
                return True
            for u, old in trail:
                domains[u] = old
            labels[v] = -1
            used &= ~low
        return False

    return list(labels) if place(0) else None


def lambda_backtrack(graph: Graph, *, deadline: float | None = None) -> Labeling:
    """Optimal labeling of a diameter <= 2 graph by iterative deepening on the span.

    Each deepening step either finds a labeling of that span or proves none
    exists, so the first labeling found has the lambda number as its span;
    the labeling 0, 2, ..., 2n - 2 always fits, so the deepening ends there.
    Graphs above ``DEFAULT_BACKTRACK_LIMIT`` vertices are refused. At
    diameter <= 2 every two vertices are within distance two, so labels are
    pairwise distinct; vertices are tried by descending degree, labels
    ascending, with forward checking on the neighbors.

    The deepening starts at the larger of 2*omega - 2 and n + r - 2, for r
    the ``scattering_count`` of the complement on the set S of the package's
    ``_cover_lower_bound``: each run of consecutive labels is a complement
    path, so a labeling needs at least r runs and r - 1 gaps.
    """
    n = graph.n
    if n == 0:
        raise ValueError("graph must have at least one vertex")
    if any(d < 0 or d > 2 for v in range(n) for d in bfs_distances(graph, v)):
        raise ValueError("backtracking requires a graph of diameter at most 2")
    if n > DEFAULT_BACKTRACK_LIMIT:
        raise CapacityExceeded(
            f"backtracking limited to {DEFAULT_BACKTRACK_LIMIT} vertices, got {n}")
    cut = _cover_lower_bound(graph.complement.adj, graph.full_mask)[1]
    lower = max(2 * clique_number(graph).value - 2,
                n + scattering_count(graph.complement, cut) - 2)
    order = _degree_order(graph)
    prev_twin = _twin_predecessors(graph)
    for k in range(lower, 2 * n - 1):
        found = _span_feasible(graph, k, order, prev_twin, deadline)
        if found is not None:
            if not check_l21(graph, found) or max(found) - min(found) != k:
                raise InternalError(f"span search returned an invalid labeling at span {k}")
            return Labeling(tuple(found))
    raise InternalError(f"no labeling found up to span {2 * n - 2}")
