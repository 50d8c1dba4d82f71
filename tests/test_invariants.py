"""Clique, independence, Hamilton path, path cover and structural probes."""

import time

import pytest

from oracles import brute_hamilton_exists, brute_max_clique, brute_path_cover_count

from lambda_power import (
    CapacityExceeded,
    Graph,
    build_power_graph,
    clique_number,
    complement,
    cut_vertex_component_profile,
    delete_vertex,
    direct_product,
    find_complement_p4,
    hamilton_path,
    independence_number,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
    path_cover_number,
)


def pg(group):
    return build_power_graph(group)


def assert_clique(graph, witness):
    for i, u in enumerate(witness):
        for v in witness[i + 1:]:
            assert graph.adjacent(u, v)


def assert_cover_valid(graph, cover):
    seen = []
    for path in cover.paths:
        seen.extend(path)
        for a, b in zip(path, path[1:]):
            assert graph.adjacent(a, b)
    assert sorted(seen) == list(range(graph.n))


def test_clique_z6():
    found = clique_number(pg(make_cyclic(6)))
    assert found.value == 5
    assert set(found.witness) == {0, 1, 2, 4, 5}
    assert_clique(pg(make_cyclic(6)), found.witness)


def test_clique_complete():
    assert clique_number(pg(make_cyclic(4))).value == 4


def test_clique_star():
    graph = pg(direct_product(make_cyclic(2), make_cyclic(2)))
    assert clique_number(graph).value == 2


def test_clique_matches_brute_force():
    for group in (make_cyclic(10), make_cyclic(12), make_dihedral(10),
                  make_generalized_quaternion(12)):
        graph = pg(group)
        assert clique_number(graph).value == brute_max_clique(graph)
        comp = complement(graph)
        assert clique_number(comp).value == brute_max_clique(comp)


def test_clique_capacity():
    with pytest.raises(CapacityExceeded):
        clique_number(pg(make_cyclic(20)), limit=10)


def test_independence_examples():
    assert independence_number(pg(make_cyclic(6))).value == 2
    star = pg(direct_product(make_cyclic(2), make_cyclic(2)))
    found = independence_number(star)
    assert found.value == 3
    assert set(found.witness) == {1, 2, 3}
    assert independence_number(pg(make_cyclic(9))).value == 1


def test_hamilton_on_punctured_dihedral_complement():
    graph = pg(make_dihedral(6))
    reduced, survivors = delete_vertex(graph, 0)
    path = hamilton_path(complement(reduced))
    assert path is not None
    assert sorted(path) == list(range(5))
    comp = complement(reduced)
    assert all(comp.adjacent(a, b) for a, b in zip(path, path[1:]))
    del survivors


def test_hamilton_trivial_cases():
    assert hamilton_path(Graph.from_edges(1, [])) == (0,)
    assert hamilton_path(Graph.from_edges(3, [])) is None


def test_hamilton_definitive_absence_within_limit():
    # star: no hamilton path once there are 3+ leaves
    star = Graph.from_edges(5, [(0, v) for v in range(1, 5)])
    assert hamilton_path(star) is None


def test_hamilton_agrees_with_brute_force():
    graphs = [
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]),
        complement(pg(make_generalized_quaternion(8))),
    ]
    for graph in graphs:
        try:
            path = hamilton_path(graph)
        except CapacityExceeded:
            continue
        assert (path is not None) == brute_hamilton_exists(graph)


def star(leaves, offset=0):
    return [(offset, offset + v) for v in range(1, leaves + 1)]


def spider(legs):
    """A center with ``legs`` paths of two edges: twin-free, no Hamilton path."""
    edges = []
    for i in range(1, legs + 1):
        edges += [(0, i), (i, legs + i)]
    return Graph.from_edges(2 * legs + 1, edges)


def test_hamilton_on_star_is_solved_through_twins():
    # K1,29: the leaves are twins, so the quotient has 2 classes and 60 states
    graph = Graph.from_edges(30, star(29))
    assert hamilton_path(graph, dp_limit=24) is None


def test_hamilton_capacity_when_heuristic_fails():
    # the heuristic misses, and 59 twin-free vertices exceed 2^24 DP states
    with pytest.raises(CapacityExceeded):
        hamilton_path(spider(29), dp_limit=24)


def test_path_cover_empty_graph_on_four():
    cover = path_cover_number(complement(pg(make_cyclic(4))))
    assert cover.count == 4
    assert cover.paths == ((0,), (1,), (2,), (3,))


def test_path_cover_z6_complement():
    cover = path_cover_number(complement(pg(make_cyclic(6))))
    assert cover.count == 4
    assert (2, 3, 4) in cover.paths


def test_path_cover_q8_complement():
    graph = complement(pg(make_generalized_quaternion(8)))
    cover = path_cover_number(graph)
    assert cover.count == 3
    assert_cover_valid(graph, cover)


def test_path_cover_matches_brute_force():
    for group in (make_cyclic(8), make_cyclic(10), make_dihedral(8),
                  make_generalized_quaternion(8),
                  direct_product(make_cyclic(2), make_cyclic(4))):
        graph = pg(group)
        for target in (graph, complement(graph)):
            cover = path_cover_number(target)
            assert_cover_valid(target, cover)
            assert cover.count == brute_path_cover_count(target)


def test_path_cover_at_least_component_count():
    from lambda_power import connected_components
    for group in (make_cyclic(12), make_dihedral(12)):
        graph = complement(pg(group))
        cover = path_cover_number(graph)
        assert cover.count >= len(connected_components(graph))


def test_path_cover_of_star_is_solved_through_twins():
    graph = Graph.from_edges(30, star(29))
    cover = path_cover_number(graph, dp_limit=24)
    assert cover.count == 28
    assert_cover_valid(graph, cover)


def test_path_cover_capacity():
    with pytest.raises(CapacityExceeded) as info:
        path_cover_number(spider(29), dp_limit=24)
    assert info.value.lower_bound is not None


def test_path_cover_refusal_bounds_are_sound():
    # a 13-vertex spider (cover 5, 2^13 states, refused) plus three K1,5
    # (cover 4 each, solved): counting each small star as one path would
    # give an upper bound of 13 + 3 = 16 below the true cover 17
    edges = spider(6).edges() + star(5, 13) + star(5, 19) + star(5, 25)
    with pytest.raises(CapacityExceeded) as info:
        path_cover_number(Graph.from_edges(31, edges), dp_limit=10)
    assert info.value.lower_bound <= 5 + 3 * 4 <= info.value.upper_bound


def test_deadline_reaches_the_heuristic():
    # Z2xZ2xZ5's complement: the heuristic misses after thousands of steps
    group = direct_product(direct_product(make_cyclic(2), make_cyclic(2)), make_cyclic(5))
    graph = complement(pg(group))
    with pytest.raises(CapacityExceeded, match="heuristic"):
        path_cover_number(graph, deadline=time.monotonic() - 1.0)


def test_negative_dp_limit_is_rejected():
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        path_cover_number(graph, dp_limit=-5)
    with pytest.raises(ValueError):
        hamilton_path(graph, dp_limit=-1)


def test_path_cover_deterministic():
    graph = complement(pg(make_cyclic(12)))
    first = path_cover_number(graph)
    second = path_cover_number(graph)
    assert first.paths == second.paths


def test_find_complement_p4_in_elementary_abelian():
    g = direct_product(direct_product(make_cyclic(2), make_cyclic(2)), make_cyclic(2))
    graph = pg(g)
    found = find_complement_p4(graph)
    assert found is not None
    a, b, c, d = found
    assert len({a, b, c, d}) == 4
    assert not graph.adjacent(a, b)
    assert not graph.adjacent(b, c)
    assert not graph.adjacent(c, d)


def test_find_complement_p4_none_in_complete():
    assert find_complement_p4(pg(make_cyclic(8))) is None


def test_find_complement_p4_none_in_z6():
    assert find_complement_p4(pg(make_cyclic(6))) is None


def test_find_complement_p4_exhaustive_small():
    # none exactly when the complement has no 4-vertex path
    from itertools import permutations
    for group in (make_cyclic(6), make_cyclic(8), make_cyclic(10),
                  make_dihedral(6), make_generalized_quaternion(8)):
        graph = pg(group)
        comp = complement(graph)
        exists = any(
            all(comp.adjacent(seq[i], seq[i + 1]) for i in range(3))
            for seq in permutations(range(graph.n), 4)
        )
        assert (find_complement_p4(graph) is not None) == exists


def test_cut_profile_dihedral():
    profile = cut_vertex_component_profile(pg(make_dihedral(6)), 0)
    assert profile == [2, 1, 1, 1]
    assert profile[0] <= sum(profile[1:])


def test_cut_profile_complete():
    profile = cut_vertex_component_profile(pg(make_cyclic(4)), 0)
    assert profile == [3]
    assert not profile[0] <= sum(profile[1:])


def test_cut_profile_q8():
    assert cut_vertex_component_profile(pg(make_generalized_quaternion(8)), 0) == [7]
