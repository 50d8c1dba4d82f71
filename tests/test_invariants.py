"""Clique, independence, Hamilton path, path cover and structural probes."""

import inspect
import time
from itertools import combinations

import pytest

import oracles
from oracles import (
    brute_hamilton_exists,
    brute_max_clique,
    brute_path_cover_count,
    clique_number,
    delete_vertex,
    independence_number,
)

from lambda_power import cli, groups, invariants, labeling, oracle, powergraph
from lambda_power import (
    CapacityExceeded,
    Graph,
    InternalError,
    build_power_graph,
    complement,
    cut_vertex_component_profile,
    direct_product,
    find_complement_p4,
    hamilton_path,
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
        clique_number(pg(make_cyclic(oracles.DEFAULT_CLIQUE_LIMIT + 1)))


def test_independence_examples():
    assert independence_number(pg(make_cyclic(6))).value == 2
    star = pg(direct_product(make_cyclic(2), make_cyclic(2)))
    found = independence_number(star)
    assert found.value == 3
    assert set(found.witness) == {1, 2, 3}
    assert independence_number(pg(make_cyclic(9))).value == 1


def poset_groups():
    """Every corpus group to order 64, Z, D and Q to 128, A5 and S5."""
    yield from (g for _, g in cli.builtin_corpus(64))
    for n in range(65, 129):
        yield make_cyclic(n)
        if n % 2 == 0:
            yield make_dihedral(n)
        if n % 4 == 0:
            yield make_generalized_quaternion(n)
    yield cli.group_from_text("A5")
    yield groups.from_permutations([(2, 3, 4, 5, 1), (2, 1)])


def test_poset_clique_and_independence_match_the_graph_searches():
    checked = 0
    for group in poset_groups():
        graph = pg(group)
        clique, independent = group.power_graph_clique, group.power_graph_independent_set
        assert clique.value == clique_number(graph).value, group.descriptor.name
        assert independent.value == independence_number(graph).value, group.descriptor.name
        assert_clique(graph, clique.witness)
        assert_clique(complement(graph), independent.witness)
        checked += 1
    assert checked > 250


def test_poset_clique_witness_refuses_a_wrong_weight(monkeypatch):
    heaviest = groups._heaviest_chain

    def heavier_identity(weights, below):
        return heaviest([weights[0] + 1, *weights[1:]], below)

    monkeypatch.setattr(groups, "_heaviest_chain", heavier_identity)
    with pytest.raises(InternalError, match="clique witness of 9 vertices"):
        make_cyclic(12).power_graph_clique


def test_poset_clique_witness_refuses_a_chain_that_is_not_nested(monkeypatch):
    # D10's last two subgroups are two reflections {e, r}: two vertices, as
    # claimed, but not adjacent
    group = make_dihedral(10)
    q = len(group._poset.inside)
    monkeypatch.setattr(groups, "_heaviest_chain", lambda weights, below: (2, [q - 1, q - 2]))
    with pytest.raises(InternalError, match="clique witness of 2 vertices"):
        group.power_graph_clique


def test_poset_independent_set_witness_refuses_a_lost_containment(monkeypatch):
    widest = groups._widest_antichain
    monkeypatch.setattr(groups, "_widest_antichain", lambda below: widest([0] * len(below)))
    with pytest.raises(InternalError, match="independent-set witness"):
        make_dihedral(10).power_graph_independent_set


def test_heaviest_chain_and_widest_antichain_on_a_small_order():
    # 0 < 1 < 3, 0 < 2 < 3, 0 < 4: the heaviest chain takes the heavier
    # middle element; the widest antichain is {1, 2, 4}.
    below = [0, 0b1, 0b1, 0b111, 0b1]
    assert invariants._heaviest_chain([1, 2, 5, 1, 7], below) == (8, [4, 0])
    assert invariants._heaviest_chain([1, 2, 5, 1, 1], below) == (7, [3, 2, 0])
    assert invariants._widest_antichain(below) == (3, [1, 2, 4])


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
    # K1,29: the double cover matches only 2 of the 30 vertices, so the
    # certified lower bound 28 answers
    graph = Graph.from_edges(30, star(29))
    assert hamilton_path(graph) is None


def test_hamilton_capacity_when_heuristic_fails():
    # the built covers (28 paths) miss the lower bound 1, and the exact
    # search takes at most 10 of the 59 vertices
    with pytest.raises(CapacityExceeded):
        hamilton_path(spider(29))


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
    cover = path_cover_number(graph)
    assert cover.count == 28
    assert_cover_valid(graph, cover)


def test_path_cover_capacity():
    with pytest.raises(CapacityExceeded) as info:
        path_cover_number(spider(29))
    assert info.value.lower_bound is not None


def test_path_cover_refusal_bounds_are_sound(monkeypatch):
    # a 13-vertex spider (cover 5, past the search, refused) plus three K1,5
    # (cover 4 each, solved): counting each small star as one path would
    # give an upper bound of 13 + 3 = 16 below the true cover 17
    monkeypatch.setattr(invariants, "_cocomparability_cover",
                        lambda adj, vertices, ordering: [[v] for v in vertices])
    edges = spider(6).edges() + star(5, 13) + star(5, 19) + star(5, 25)
    with pytest.raises(CapacityExceeded) as info:
        path_cover_number(Graph.from_edges(31, edges))
    assert info.value.lower_bound <= 5 + 3 * 4 <= info.value.upper_bound


def bipartite_48():
    """40 twin-free vertices A hanging off 8 vertices B: a path alternates
    between the sides, so at least 40 - 8 = 32 paths, and the path
    A B A ... B A through all of B plus 31 singletons is such a cover."""
    sides = [(0,)] + [(i, i + 1) for i in range(7)] + [(7,)]
    sides += [trio for trio in combinations(range(8), 3)][:31]
    return [(8 + a, b) for a, side in enumerate(sides) for b in side]


def test_path_cover_refusal_reports_the_certified_lower_bound():
    # the 48-vertex graph's constructed cover meets its bound 32, so the
    # disjoint spider(29) is what is refused; the refusal reports the
    # certified 32 + 1, not one per component
    edges = bipartite_48() + [(48 + u, 48 + v) for u, v in spider(29).edges()]
    with pytest.raises(CapacityExceeded) as info:
        path_cover_number(Graph.from_edges(48 + 59, edges))
    assert info.value.lower_bound == 32 + 1 <= info.value.upper_bound


def test_path_cover_refusal_reports_the_constructed_upper_bound():
    # spider(29): lower bound 1, and the cover built from the matching is a
    # real one of 28 paths, the minimum (Sigma (m - 1) would give 58)
    with pytest.raises(CapacityExceeded) as info:
        path_cover_number(spider(29))
    assert (info.value.lower_bound, info.value.upper_bound) == (1, 28)


def test_constructed_cover_settles_without_a_search(monkeypatch):
    # with no fallback, these are answered by a constructed cover that
    # meets the certified lower bound (Z48's complement: 17 isolated
    # vertices and a Hamilton path of the rest)
    def refuse(*args):
        raise AssertionError("the fallback ran where the constructed cover meets the bound")

    monkeypatch.setattr(invariants, "_cocomparability_cover", refuse)
    z2z2z5 = direct_product(direct_product(make_cyclic(2), make_cyclic(2)), make_cyclic(5))
    for graph, count in ((complement(pg(make_cyclic(48))), 17 + 1),
                         (complement(pg(z2z2z5)), 3),
                         (Graph.from_edges(48, bipartite_48()), 32)):
        cover = path_cover_number(graph)
        assert cover.count == count
        assert_cover_valid(graph, cover)


@pytest.mark.parametrize("order, count", [(384, 130), (768, 258)], ids=["Z384", "Z768"])
def test_cover_gap_is_closed_by_the_cocomparability_cover(monkeypatch, order, count):
    # the constructed cover misses the certified lower bound on one
    # component, and the cocomparability cover from the poset's linear
    # extension meets it (the closed-form cover: 130 for Z384, 258 for Z768)
    calls = []
    fallback = invariants._cocomparability_cover

    def counted(adj, vertices, ordering):
        calls.append(len(vertices))
        return fallback(adj, vertices, ordering)

    monkeypatch.setattr(invariants, "_cocomparability_cover", counted)
    graph = complement(pg(make_cyclic(order)))
    started = time.monotonic()
    cover = path_cover_number(graph)
    assert time.monotonic() - started < 5.0
    assert cover.count == count and len(calls) == 1
    assert_cover_valid(graph, cover)


LOOSE_TREE = [(0, 9), (1, 3), (2, 8), (3, 13), (4, 9), (5, 9), (6, 8), (7, 15), (8, 15),
              (9, 1), (10, 13), (11, 0), (12, 5), (13, 6), (14, 13)]


def test_gap_past_the_search_limit_is_refused():
    # a 16-vertex tree (found by random search) with cover lower bound 4 and
    # minimum cover 6: no built cover can meet the bound, and the exact
    # search takes at most 10 vertices, so a general graph's gap this large
    # is refused with sound bounds
    graph = Graph.from_edges(16, LOOSE_TREE)
    assert invariants._cover_lower_bound(graph.adj, graph.full_mask)[0] == 4
    with pytest.raises(CapacityExceeded, match="exact search takes at most 10") as info:
        path_cover_number(graph)
    assert info.value.lower_bound == 4 and info.value.upper_bound >= 6


def test_hamilton_is_settled_by_the_lower_bound():
    # lower bound 4 proves there is no Hamilton path, so neither a cover
    # nor the search runs, and the 16 vertices are not refused
    graph = Graph.from_edges(16, LOOSE_TREE)
    assert hamilton_path(graph) is None


def test_negative_dp_limit_is_rejected():
    # the DP cap is a module constant: a call that still passes dp_limit is
    # refused when its arguments are bound, before the body runs
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(TypeError):
        path_cover_number(graph, dp_limit=-5)
    with pytest.raises(TypeError):
        hamilton_path(graph, dp_limit=-1)


def test_no_public_function_takes_a_limit_keyword():
    # the limits are module constants, and a cover gap always goes to the
    # one fallback
    knobs = {"dp_limit", "use_heuristic", "span_budget", "limit", "max_order", "deadline"}
    checked = 0
    for module in (cli, groups, invariants, labeling, oracle, powergraph):
        for name, value in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(value):
                continue
            checked += 1
            assert not knobs & set(inspect.signature(value).parameters), name
    assert checked > 40


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
