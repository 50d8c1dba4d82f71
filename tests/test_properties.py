"""Property-based checks of the solvers against the brute-force references."""

import contextlib
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from oracles import (
    bfs_distances,
    brute_hamilton_exists,
    brute_lambda,
    brute_max_clique,
    brute_path_cover_count,
    check_l21,
    composed_permutation_table,
    power_walk,
    reference_row_check,
    reference_violations,
)

from lambda_power import (
    CapacityExceeded,
    Graph,
    InternalError,
    Labeling,
    build_power_graph,
    clique_number,
    complement,
    connected_components,
    cut_vertex_component_profile,
    delete_vertex,
    diameter_at_most_two,
    hamilton_path,
    lambda_backtrack,
    path_cover_number,
    validate_l21,
)
from lambda_power.cli import builtin_corpus
from lambda_power.groups import _orders_and_inverses, from_permutations
from lambda_power import invariants
from lambda_power.invariants import _cover_lower_bound, _hamilton_path_on
from lambda_power.labeling import _scattering_count, _twin_predecessors


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [pair for i, pair in enumerate(pairs) if (mask >> i) & 1]
    return Graph.from_edges(n, edges)


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_complement_involution_and_edge_split(graph):
    comp = complement(graph)
    assert complement(comp).adj == graph.adj
    n = graph.n
    assert graph.edge_count() + comp.edge_count() == n * (n - 1) // 2


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_complement_is_built_once(graph):
    comp = complement(graph)
    assert complement(graph) is comp
    full = graph.full_mask
    assert comp.adj == tuple(full & ~row & ~(1 << v) for v, row in enumerate(graph.adj))


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_distance_two_rows_match_bfs(graph):
    for v in range(graph.n):
        dist = bfs_distances(graph, v)
        assert graph.distance_two[v] == sum(1 << u for u, d in enumerate(dist) if d == 2)


def random_rows(rng: random.Random, n: int) -> list[int]:
    """Symmetric, loop-free rows of a random graph with a random edge density."""
    density = rng.random()
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


@st.composite
def corrupted_rows(draw):
    # Widths to 200 take rows past one 30-bit and one 64-bit digit.
    n = draw(st.integers(min_value=1, max_value=200))
    rows = random_rows(random.Random(draw(st.integers(min_value=0, max_value=2**32))), n)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        v = draw(st.integers(min_value=0, max_value=n - 1))
        fault = draw(st.sampled_from(["asymmetric", "self-loop", "out-of-range"]))
        if fault == "asymmetric" and n >= 2:
            u = draw(st.integers(min_value=0, max_value=n - 2))
            rows[v] ^= 1 << (u + (u >= v))
        elif fault == "self-loop":
            rows[v] |= 1 << v
        elif fault == "out-of-range":
            rows[v] |= 1 << (n + draw(st.integers(min_value=0, max_value=70)))
    return rows


@settings(max_examples=300, deadline=None)
@given(corrupted_rows())
def test_graph_row_check_matches_per_edge_scan(rows):
    try:
        Graph(tuple(rows))
        message = None
    except InternalError as exc:
        message = str(exc)
    assert message == reference_row_check(rows)


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    rows = random_rows(random.Random(draw(st.integers(min_value=0, max_value=2**32))), n)
    # Few labels for many vertices, so equal and adjacent labels collide.
    top = draw(st.integers(min_value=0, max_value=n + 2))
    labels = draw(st.lists(st.integers(min_value=0, max_value=top), min_size=n, max_size=n))
    return Graph(tuple(rows)), labels


@settings(max_examples=200, deadline=None)
@given(labeled_graphs())
def test_validate_l21_matches_pair_scan(case):
    graph, labels = case
    report = validate_l21(graph, Labeling(tuple(labels)))
    found = [(x.u, x.v, x.kind) for x in report.violations]
    assert found == reference_violations(graph, labels)
    assert report.ok == (not found) == check_l21(graph, labels)


@settings(max_examples=120, deadline=None)
@given(graphs(max_n=12), st.data())
def test_distance_two_rows_match_bfs_with_a_dominating_vertex(graph, data):
    # The early stop fires once the dominating vertex's row is OR-ed in.
    n = graph.n + 1
    top = data.draw(st.integers(min_value=0, max_value=n - 1))
    old = [v for v in range(n) if v != top]  # old vertex i is new vertex old[i]
    graph = Graph.from_edges(n, [(old[u], old[v]) for u, v in graph.edges()]
                             + [(top, v) for v in old])
    for v in range(n):
        dist = bfs_distances(graph, v)
        assert graph.distance_two[v] == sum(1 << u for u, d in enumerate(dist) if d == 2)


@st.composite
def permutation_groups(draw):
    degree = draw(st.integers(min_value=1, max_value=5))
    images = st.permutations(range(1, degree + 1)).map(tuple)
    return from_permutations(draw(st.lists(images, min_size=1, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(permutation_groups(),
                 st.deferred(lambda: st.sampled_from([g for _, g in builtin_corpus(40)]))))
def test_orders_and_inverses_match_a_power_walk(group):
    orders, inverses = power_walk(group.table)
    assert _orders_and_inverses(group.table) == (tuple(orders), tuple(inverses))


@settings(max_examples=60, deadline=None)
@given(permutation_groups())
def test_permutation_table_matches_composition(group):
    assert group.table == composed_permutation_table(group.descriptor.params)


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_twin_predecessors_match_brute(graph):
    closed = [graph.adj[v] | (1 << v) for v in range(graph.n)]
    expected = []
    for v in range(graph.n):
        twins = [u for u in range(v)
                 if graph.adj[u] == graph.adj[v] or closed[u] == closed[v]]
        expected.append(twins[-1] if twins else -1)
    assert _twin_predecessors(graph) == expected


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_clique_matches_brute(graph):
    found = clique_number(graph)
    assert found.value == brute_max_clique(graph)
    for i, u in enumerate(found.witness):
        for v in found.witness[i + 1:]:
            assert graph.adjacent(u, v)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=7))
def test_hamilton_matches_brute(graph):
    try:
        path = hamilton_path(graph)
    except CapacityExceeded:
        return
    if path is not None:
        assert sorted(path) == list(range(graph.n))
        assert all(graph.adjacent(a, b) for a, b in zip(path, path[1:]))
    assert (path is not None) == brute_hamilton_exists(graph)


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_path_cover_matches_brute(graph):
    cover = path_cover_number(graph)
    seen = []
    for path in cover.paths:
        seen.extend(path)
        assert all(graph.adjacent(a, b) for a, b in zip(path, path[1:]))
    assert sorted(seen) == list(range(graph.n))
    assert cover.count == brute_path_cover_count(graph)
    assert cover.count >= len(connected_components(graph))


@st.composite
def twin_blow_ups(draw, max_n=10):
    """A quotient graph on at most 5 nodes, each blown up into 1-3 open twins."""
    q = draw(st.integers(min_value=1, max_value=5))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=q, max_size=q)
                 .filter(lambda ws: sum(ws) <= max_n))
    pairs = [(i, j) for i in range(q) for j in range(i + 1, q)]
    linked = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    node_of = draw(st.permutations([i for i, w in enumerate(sizes) for _ in range(w)]))
    quotient = {pair for pair, on in zip(pairs, linked) if on}
    n = len(node_of)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if tuple(sorted((node_of[u], node_of[v]))) in quotient]
    return Graph.from_edges(n, edges)


@settings(max_examples=60, deadline=None)
@given(twin_blow_ups())
def test_quotient_engine_matches_brute_on_twin_blow_ups(graph):
    with mock.patch.object(invariants, "_rotation_heuristic", return_value=None):
        cover = path_cover_number(graph)
        hamilton = hamilton_path(graph)
    seen = []
    for path in cover.paths:
        seen.extend(path)
        assert all(graph.adjacent(a, b) for a, b in zip(path, path[1:]))
    assert sorted(seen) == list(range(graph.n))
    assert cover.count == brute_path_cover_count(graph)
    assert (hamilton is not None) == brute_hamilton_exists(graph)
    if hamilton is not None:
        assert sorted(hamilton) == list(range(graph.n))
        assert all(graph.adjacent(a, b) for a, b in zip(hamilton, hamilton[1:]))


def assert_cover_bounds_below_brute(graph):
    lb, certificate = _cover_lower_bound(graph.adj, graph.full_mask)
    # the recount reads the complement of the graph it is given
    recount = _scattering_count(complement(graph), certificate)
    assert recount <= lb <= brute_path_cover_count(graph)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_cover_lower_bound_is_sound(graph):
    assert_cover_bounds_below_brute(graph)


@settings(max_examples=80, deadline=None)
@given(twin_blow_ups())
def test_cover_lower_bound_is_sound_on_twin_blow_ups(graph):
    assert_cover_bounds_below_brute(graph)


def test_cover_lower_bound_is_exact_on_the_corpus():
    for spec, group in builtin_corpus(48):
        target = complement(build_power_graph(group))
        lb = _cover_lower_bound(target.adj, target.full_mask)[0]
        assert lb == path_cover_number(target).count, spec


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=5))
def test_backtrack_matches_brute(graph):
    report = lambda_backtrack(graph)
    assert report.value == brute_lambda(graph)
    assert check_l21(graph, report.labeling.labels)
    assert report.labeling.span <= report.value


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=5))
def test_backtrack_matches_brute_given_a_dominating_vertex(graph):
    # diameter <= 2, so the search starts at the certified cover bound
    n = graph.n + 1
    graph = Graph.from_edges(n, [(u + 1, v + 1) for u, v in graph.edges()]
                             + [(0, v) for v in range(1, n)])
    report = lambda_backtrack(graph)
    assert report.value == brute_lambda(graph)
    assert check_l21(graph, report.labeling.labels)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=7))
def test_path_cover_is_canonical(graph):
    first = path_cover_number(graph)
    second = path_cover_number(graph)
    assert first.paths == second.paths
    assert list(first.paths) == sorted(first.paths)


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_diameter_matches_bfs(graph):
    far = any(d < 0 or d > 2 for v in range(graph.n) for d in bfs_distances(graph, v))
    assert diameter_at_most_two(graph) == (not far)


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_cut_vertex_profile_matches_deleted_copy(graph):
    for v in range(graph.n):
        reduced, _ = delete_vertex(graph, v)
        expected = [len(c) for c in connected_components(reduced)]
        assert cut_vertex_component_profile(graph, v) == expected


@settings(max_examples=120, deadline=None)
@given(graphs(), st.booleans())
def test_hamilton_path_over_a_vertex_set_matches_deleted_copy(graph, dp_only):
    # Vertex 0 made dominating is isolated in the complement, so vertices
    # 1..n-1 form a part of it that no outside row reaches.
    n = graph.n
    graph = Graph.from_edges(n, graph.edges() + [(0, v) for v in range(1, n)])
    reduced, survivors = delete_vertex(graph, 0)
    with mock.patch.object(invariants, "_rotation_heuristic",
                           return_value=None) if dp_only else contextlib.nullcontext():
        expected = hamilton_path(reduced.complement)
        found = _hamilton_path_on(graph.complement.adj, graph.full_mask & ~1)
    if expected is not None:
        expected = tuple(survivors[v] for v in expected)
    assert found == expected
