"""Power graph construction, complement, deletion and components."""

import contextlib
import io

import pytest

from oracles import delete_vertex

from lambda_power import (
    Graph,
    bound_ledger,
    build_power_graph,
    check_lower_equality,
    complement,
    connected_components,
    diameter_at_most_two,
    direct_product,
    lambda_exact,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
    validate_l21,
)
from lambda_power.cli import build_group, main, parse_group_spec


def pg(group):
    return build_power_graph(group)


def count_graph_builds(monkeypatch) -> list:
    """Record every ``Graph`` constructed from now on, checked or not (a
    complement skips the check)."""
    built = []
    check, trusted = Graph.__post_init__, Graph._trusted.__func__

    def counting(self):
        built.append(self)
        check(self)

    def counting_trusted(cls, adj):
        built.append(trusted(cls, adj))
        return built[-1]

    monkeypatch.setattr(Graph, "__post_init__", counting)
    monkeypatch.setattr(Graph, "_trusted", classmethod(counting_trusted))
    return built


def test_graph_builds_per_question(monkeypatch):
    # The pinned D12 reads its ledger off the poset and its witness passes
    # the distinct-labels check with adjacency read off the poset, so no
    # graph is built. The lower-equality check builds the power graph and
    # its cached complement: questions about part of the graph run on these
    # rows instead of on re-indexed copies.
    group = make_dihedral(12)
    built = count_graph_builds(monkeypatch)
    lambda_exact(group)
    assert built == []
    group = make_dihedral(6)
    built.clear()
    check_lower_equality(group, 6)
    assert len(built) == 2


def test_lambda_exact_on_d1024_builds_no_graph(monkeypatch):
    # the ledger and the family witness's check both read the poset
    group = make_dihedral(1024)
    built = count_graph_builds(monkeypatch)
    report = lambda_exact(group)
    assert report.exact and report.value == 1024 and report.method == "ledger"
    assert built == [] and "_power_graph" not in group.__dict__


@pytest.mark.parametrize("spec, value", [
    ("D10000", 10000), ("Q8192", 8193), ("x".join(["Z2"] * 13), 8192)])
def test_large_pinned_groups_build_no_graph(monkeypatch, spec, value):
    # the witness is read off the poset; a graph built afterwards accepts it
    group = build_group(parse_group_spec(spec))
    built = count_graph_builds(monkeypatch)
    report = lambda_exact(group)
    assert report.exact and report.value == value and report.method == "ledger"
    assert built == []
    assert validate_l21(pg(group), report.labeling).ok


# Z8 walks <0>, <1>, <2>, <4> in that order: number = [0, 1, 2, 1, 3, 1, 2, 1]
# and inside = [{}, {0, 2, 3}, {0, 3}, {0}].
@pytest.mark.parametrize("field, corrupt, message", [
    ("number", lambda rows: rows.__setitem__(1, 2), "do not partition"),
    ("inside", lambda rows: rows.__setitem__(2, rows[2] | 1 << 2), "no strict order"),
    ("inside", lambda rows: rows.__setitem__(1, rows[1] & ~1), "no strict order"),  # not transitive
    ("inside", lambda rows: rows.__setitem__(3, rows[3] | 1 << 2), "no strict order"),  # a cycle
    ("inside", lambda rows: rows.__setitem__(0, 1), "no strict order"),  # <0> inside itself
    ("masks", lambda rows: rows.__setitem__(2, rows[2] & ~(1 << 4)), "not its generators"),
    ("masks", lambda rows: rows.__setitem__(3, rows[3] & ~1), "not its generators"),  # row {0}
    ("above", lambda rows: rows.__setitem__(3, rows[3] & ~(1 << 1)), "row above"),
    ("above", lambda rows: rows.__setitem__(0, rows[0] & ~(1 << 4)), "row above"),  # <0>'s
], ids=["partition", "reflexive", "intransitive", "cyclic", "first-row", "masks",
        "masks-over-first-row", "above", "above-first-row"])
def test_corrupted_poset_is_refused_before_any_graph_is_built(monkeypatch, field, corrupt,
                                                              message):
    from lambda_power import InternalError
    group = make_cyclic(8)
    sub = group._cyclic_subgroups
    assert sub.number == [0, 1, 2, 1, 3, 1, 2, 1]
    assert sub.inside == [0, 0b1101, 0b1001, 0b1]
    rows = list(getattr(sub, field))
    corrupt(rows)
    corrupted = sub._replace(**{field: rows})
    built = count_graph_builds(monkeypatch)
    for ask in (build_power_graph, bound_ledger, lambda_exact):
        group = make_cyclic(8)
        group.__dict__["_cyclic_subgroups"] = corrupted
        with pytest.raises(InternalError, match=message):
            ask(group)
    assert built == []


def test_power_graph_is_built_once_per_group():
    group = make_dihedral(10)
    graph = build_power_graph(group)
    assert build_power_graph(group) is graph
    assert build_power_graph(make_dihedral(10)) is not graph


def test_power_graph_shared_by_solver_and_oracle(monkeypatch):
    # lambda_exact and the lower-equality check read one power graph and
    # one complement of it.
    group = make_dihedral(12)
    built = count_graph_builds(monkeypatch)
    report = lambda_exact(group)
    check_lower_equality(group, report.value)
    assert len(built) == 2


def test_enumerate_builds_two_graphs_per_row(monkeypatch):
    built = count_graph_builds(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["enumerate", "--max-order", "12"]) == 0
    rows = out.getvalue().splitlines()[1:]
    assert rows and len(built) == 2 * len(rows)


def test_z6_adjacency():
    graph = pg(make_cyclic(6))
    assert not graph.adjacent(2, 3)
    assert not graph.adjacent(3, 4)
    assert graph.adjacent(2, 4)
    assert all(graph.adjacent(0, v) for v in range(1, 6))


def test_prime_power_cyclic_is_complete():
    for n in (2, 3, 4, 8, 9, 16):
        graph = pg(make_cyclic(n))
        assert graph.edge_count() == n * (n - 1) // 2


def test_klein_four_is_star():
    graph = pg(direct_product(make_cyclic(2), make_cyclic(2)))
    assert sorted(graph.degree(v) for v in range(4)) == [1, 1, 1, 3]
    assert graph.degree(0) == 3


def test_complement_of_complete_is_empty():
    graph = complement(pg(make_cyclic(4)))
    assert graph.edge_count() == 0


def test_complement_involution():
    graph = pg(make_dihedral(6))
    assert complement(complement(graph)).adj == graph.adj


def test_z6_complement_edges():
    graph = complement(pg(make_cyclic(6)))
    assert graph.edges() == [(2, 3), (3, 4)]


def test_identity_isolated_in_complement():
    for group in (make_cyclic(6), make_dihedral(8), make_generalized_quaternion(8)):
        comp = complement(pg(group))
        assert comp.degree(0) == 0


def test_edge_count_identity():
    for group in (make_cyclic(12), make_dihedral(10), make_generalized_quaternion(12)):
        graph = pg(group)
        n = graph.n
        assert graph.edge_count() + complement(graph).edge_count() == n * (n - 1) // 2


def test_delete_identity_from_klein_star():
    graph = pg(direct_product(make_cyclic(2), make_cyclic(2)))
    reduced, survivors = delete_vertex(graph, 0)
    assert reduced.edge_count() == 0
    assert survivors == (1, 2, 3)


def test_delete_vertex_from_complete():
    reduced, _ = delete_vertex(pg(make_cyclic(4)), 2)
    assert reduced.n == 3
    assert reduced.edge_count() == 3


def test_delete_vertex_survivor_indices():
    graph = pg(make_dihedral(6))
    reduced, survivors = delete_vertex(graph, 0)
    comps = connected_components(reduced)
    assert [len(c) for c in comps] == [2, 1, 1, 1]
    # the one nontrivial component is the rotations, in original indices 1, 2
    assert sorted(survivors[v] for v in comps[0]) == [1, 2]


def test_delete_vertex_range_check():
    with pytest.raises(ValueError):
        delete_vertex(pg(make_cyclic(4)), 4)


def test_components_connected_graph():
    assert len(connected_components(pg(make_cyclic(12)))) == 1


def test_q8_minus_identity_stays_connected():
    graph = pg(make_generalized_quaternion(8))
    reduced, _ = delete_vertex(graph, 0)
    assert [len(c) for c in connected_components(reduced)] == [7]


def test_dihedral_minus_identity_component_count():
    for k in (3, 4, 5, 6):
        graph = pg(make_dihedral(2 * k))
        reduced, _ = delete_vertex(graph, 0)
        assert len(connected_components(reduced)) == k + 1


def test_diameter_at_most_two():
    assert diameter_at_most_two(pg(make_cyclic(12)))
    assert diameter_at_most_two(pg(make_dihedral(10)))
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert not diameter_at_most_two(path4)
    assert diameter_at_most_two(Graph.from_edges(1, []))


def test_graph_validation():
    from lambda_power import InternalError
    with pytest.raises(InternalError):
        Graph((0b10, 0b00))  # asymmetric
    with pytest.raises(InternalError):
        Graph((0b01,))  # self-loop


def test_graph_has_value_equality_and_a_field_repr():
    from lambda_power import InternalError
    graph = Graph((2, 1))
    assert repr(graph) == "Graph(adj=(2, 1))"
    assert graph == Graph(adj=(2, 1)) == Graph.from_edges(2, [(0, 1)])
    assert hash(graph) == hash(Graph((2, 1))) == hash(Graph.from_edges(2, [(0, 1)]))
    assert graph != Graph((0, 0)) and graph != (2, 1)
    with pytest.raises(InternalError, match=r"not symmetric at \(0, 1\)"):
        Graph((2, 0))


def test_from_edges_rejects_bad_edge():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
