"""Property-based checks of the solvers against the brute-force references."""

from hypothesis import given, settings, strategies as st

from oracles import (
    brute_hamilton_exists,
    brute_lambda,
    brute_max_clique,
    brute_path_cover_count,
    check_l21,
)

from lambda_power import (
    CapacityExceeded,
    Graph,
    clique_number,
    complement,
    connected_components,
    hamilton_path,
    lambda_backtrack,
    path_cover_number,
)


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
    cover = path_cover_number(graph, use_heuristic=False)
    seen = []
    for path in cover.paths:
        seen.extend(path)
        assert all(graph.adjacent(a, b) for a, b in zip(path, path[1:]))
    assert sorted(seen) == list(range(graph.n))
    assert cover.count == brute_path_cover_count(graph)
    path = hamilton_path(graph, use_heuristic=False)
    assert (path is not None) == brute_hamilton_exists(graph)
    if path is not None:
        assert sorted(path) == list(range(graph.n))
        assert all(graph.adjacent(a, b) for a, b in zip(path, path[1:]))


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=5))
def test_backtrack_matches_brute(graph):
    report = lambda_backtrack(graph)
    assert report.value == brute_lambda(graph)
    assert check_l21(graph, report.labeling.labels)
    assert report.labeling.span <= report.value


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=7))
def test_path_cover_is_canonical(graph):
    first = path_cover_number(graph)
    second = path_cover_number(graph)
    assert first.paths == second.paths
    assert list(first.paths) == sorted(first.paths)
