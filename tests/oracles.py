"""Independent brute-force references used to pin expected test values.

Nothing here shares code with the solvers: cliques come from subset
enumeration, Hamilton paths from pruned sequence enumeration, path covers
from explicit set-partition enumeration and spans from exhaustive label
assignment over breadth-first distances. The row check and the labeling
check are the per-edge and per-pair scans that the row-at-a-time kernels
of ``Graph`` and ``validate_l21`` must agree with. Group tables are
checked on every triple.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from lambda_power.powergraph import Graph, bits


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
    """Minimum block count over all set partitions with path-orderable blocks."""
    n = graph.n
    if n == 0:
        return 0
    adj = adjacency_sets(graph)
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

    def assign(v: int, blocks: list[set[int]]) -> None:
        nonlocal best
        if len(blocks) >= best and v < n:
            return
        if v == n:
            if all(block_ok(frozenset(b)) for b in blocks):
                best = min(best, len(blocks))
            return
        for block in blocks:
            block.add(v)
            assign(v + 1, blocks)
            block.remove(v)
        blocks.append({v})
        assign(v + 1, blocks)
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
    """Orders and inverses by walking x, x^2, ... for every element x."""
    orders, inverses = [], []
    for x in range(len(table)):
        powers = [x]
        while powers[-1] != 0:
            powers.append(table[powers[-1]][x])
        orders.append(len(powers))
        inverses.append(powers[-2] if len(powers) > 1 else 0)
    return orders, inverses


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
