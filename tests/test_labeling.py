"""Labeling validation, exact span solvers and the constructive labelings."""

import pytest

from oracles import brute_lambda, check_l21

from lambda_power import (
    Bound,
    CapacityExceeded,
    Graph,
    Labeling,
    PartitionCertificate,
    bound_ledger,
    build_power_graph,
    construct_dihedral_labeling,
    construct_partition_labeling,
    construct_quaternion_labeling,
    construct_zpqn_labeling,
    direct_product,
    from_permutations,
    lambda_backtrack,
    lambda_exact,
    lambda_via_path_cover,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
    permutation_from_cycles,
    validate_l21,
)
from lambda_power.errors import VerificationError


def pg(group):
    return build_power_graph(group)


def klein():
    return direct_product(make_cyclic(2), make_cyclic(2))


def test_validate_dihedral_labeling():
    labeling = construct_dihedral_labeling(3)
    report = validate_l21(pg(make_dihedral(6)), labeling)
    assert report.ok
    assert labeling.span == 6


def test_validate_rejects_equal_adjacent():
    graph = Graph.from_edges(2, [(0, 1)])
    report = validate_l21(graph, Labeling((0, 0)))
    assert not report.ok
    assert report.violations[0].kind == "adjacent-gap"


def test_validate_flags_distance_two():
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    report = validate_l21(path3, Labeling((0, 2, 0)))
    assert not report.ok
    assert any(v.kind == "distance2-equal" for v in report.violations)


def test_validate_quaternion_labeling():
    labeling = construct_quaternion_labeling(2)
    report = validate_l21(pg(make_generalized_quaternion(8)), labeling)
    assert report.ok
    assert labeling.span == 9


def test_validate_length_mismatch():
    with pytest.raises(ValueError):
        validate_l21(Graph.from_edges(2, [(0, 1)]), Labeling((0,)))


def test_backtrack_complete_four():
    assert lambda_backtrack(pg(make_cyclic(4))).value == 6


def test_backtrack_path_three():
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    report = lambda_backtrack(graph)
    assert report.value == 3
    assert check_l21(graph, report.labeling.labels)


def test_backtrack_klein():
    assert lambda_backtrack(pg(klein())).value == 4


def test_backtrack_matches_brute_on_small_graphs():
    graphs = [
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        Graph.from_edges(4, []),
        pg(make_cyclic(5)),
    ]
    for graph in graphs:
        report = lambda_backtrack(graph)
        assert report.value == brute_lambda(graph)
        assert check_l21(graph, report.labeling.labels)


def test_backtrack_capacity():
    with pytest.raises(CapacityExceeded):
        lambda_backtrack(pg(make_cyclic(21)), limit=20)


def test_backtrack_span_budget():
    with pytest.raises(CapacityExceeded) as info:
        lambda_backtrack(pg(make_cyclic(4)), span_budget=5)
    assert info.value.lower_bound == 6


def test_path_cover_method_z6():
    report = lambda_via_path_cover(pg(make_cyclic(6)))
    assert report.value == 8
    assert report.labeling.span == 8


def test_path_cover_method_d6():
    assert lambda_via_path_cover(pg(make_dihedral(6))).value == 6


def test_path_cover_method_q8():
    assert lambda_via_path_cover(pg(make_generalized_quaternion(8))).value == 9


def test_path_cover_method_requires_diameter_two():
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError):
        lambda_via_path_cover(path4)


def test_path_cover_witness_is_injective():
    for group in (make_cyclic(12), make_dihedral(10)):
        report = lambda_via_path_cover(pg(group))
        labels = report.labeling.labels
        assert len(set(labels)) == len(labels)


def test_partition_labeling_z6():
    graph = pg(make_cyclic(6))
    cert = PartitionCertificate(
        clique=(2, 4, 0, 1, 5),
        a_parts=((3,),),
        c_parts=((2, 4), (0, 1, 5)),
    )
    labeling = construct_partition_labeling(graph, cert)
    assert labeling.span == 8
    assert validate_l21(graph, labeling).ok


def test_partition_labeling_complete_graph():
    graph = pg(make_cyclic(4))
    cert = PartitionCertificate(
        clique=(0, 1, 2, 3), a_parts=(), c_parts=((0, 1, 2, 3),))
    labeling = construct_partition_labeling(graph, cert)
    assert labeling.span == 6
    assert sorted(labeling.labels) == [2, 4, 6, 8]


def test_partition_labeling_z15():
    labeling = construct_zpqn_labeling(3, 5, 1)
    assert labeling.span == 24


def test_partition_labeling_rejects_oversized_block():
    graph = pg(make_cyclic(6))
    cert = PartitionCertificate(
        clique=(2, 0, 1, 5),
        a_parts=((3, 4),),
        c_parts=((2,), (0, 1, 5)),
    )
    with pytest.raises(ValueError):
        construct_partition_labeling(graph, cert)


def test_partition_labeling_rejects_adjacent_block():
    graph = pg(make_cyclic(6))
    cert = PartitionCertificate(
        clique=(0, 1, 5, 4),
        a_parts=((2, 3),),
        c_parts=((0, 1, 5), (4,)),
    )
    with pytest.raises(ValueError):
        construct_partition_labeling(graph, cert)


def test_partition_labeling_rejects_non_clique():
    graph = pg(make_cyclic(6))
    cert = PartitionCertificate(
        clique=(2, 3, 0, 1, 5),
        a_parts=((4,),),
        c_parts=((2, 3), (0, 1, 5)),
    )
    with pytest.raises(ValueError):
        construct_partition_labeling(graph, cert)


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_dihedral_construction(k):
    labeling = construct_dihedral_labeling(k)
    assert labeling.span == 2 * k
    assert validate_l21(pg(make_dihedral(2 * k)), labeling).ok


def test_dihedral_construction_matches_path_cover():
    assert construct_dihedral_labeling(5).span == \
        lambda_via_path_cover(pg(make_dihedral(10))).value


def test_dihedral_construction_rejects_small():
    with pytest.raises(ValueError):
        construct_dihedral_labeling(2)


@pytest.mark.parametrize("k,span", [(2, 9), (3, 12), (4, 17), (5, 20), (6, 24), (8, 33)])
def test_quaternion_construction(k, span):
    labeling = construct_quaternion_labeling(k)
    assert labeling.span == span
    assert validate_l21(pg(make_generalized_quaternion(4 * k)), labeling).ok


def test_quaternion_construction_rejects_small():
    with pytest.raises(ValueError):
        construct_quaternion_labeling(1)


@pytest.mark.parametrize("p,q,n,span", [
    (2, 3, 1, 8), (3, 2, 1, 8), (3, 2, 2, 16), (2, 3, 2, 28),
    (3, 2, 3, 32), (2, 5, 1, 16), (5, 2, 1, 16), (2, 3, 3, 88),
])
def test_zpqn_construction(p, q, n, span):
    labeling = construct_zpqn_labeling(p, q, n)
    assert labeling.span == span
    assert validate_l21(pg(make_cyclic(p * q ** n)), labeling).ok


def test_zpqn_rejects_bad_parameters():
    with pytest.raises(ValueError):
        construct_zpqn_labeling(4, 2, 1)
    with pytest.raises(ValueError):
        construct_zpqn_labeling(3, 3, 2)
    with pytest.raises(ValueError):
        construct_zpqn_labeling(2, 3, 0)


def test_bound_ledger_z6():
    g = make_cyclic(6)
    bounds = {(b.kind, b.source): b.value for b in bound_ledger(g)}
    assert bounds[("lower", "clique")] == 8
    assert bounds[("lower", "order")] == 6
    assert bounds[("upper", "independence")] == 9
    assert bounds[("upper", "not-complete")] == 8


def test_bound_ledger_klein_pins_via_decomposition():
    bounds = bound_ledger(klein())
    uppers = {b.source: b.value for b in bounds if b.kind == "upper"}
    assert uppers["cyclic-decomposition"] == 4
    lowers = max(b.value for b in bounds if b.kind == "lower")
    assert lowers == 4


def test_bound_ledger_dihedral_cut_vertex():
    bounds = bound_ledger(make_dihedral(6))
    uppers = {b.source: b.value for b in bounds if b.kind == "upper"}
    assert uppers["cut-vertex"] == 6


def test_bound_ledger_a5():
    g = from_permutations([permutation_from_cycles([(1, 2, 3, 4, 5)]),
                           permutation_from_cycles([(1, 2, 3)])])
    bounds = bound_ledger(g)
    lower = max(b.value for b in bounds if b.kind == "lower")
    upper = min(b.value for b in bounds if b.kind == "upper")
    assert lower == upper == 60


def test_bound_ledger_entries_are_bounds():
    for g in (make_cyclic(12), make_dihedral(10), make_generalized_quaternion(12)):
        value = lambda_exact(g).value
        for bound in bound_ledger(g):
            assert isinstance(bound, Bound)
            if bound.kind == "lower":
                assert bound.value <= value
            else:
                assert value <= bound.value


def test_lambda_exact_families():
    assert lambda_exact(make_dihedral(12)).value == 12
    assert lambda_exact(make_generalized_quaternion(12)).value == 12
    z2cubed = direct_product(klein(), make_cyclic(2))
    assert lambda_exact(z2cubed).value == 8


def test_lambda_exact_report_contents():
    report = lambda_exact(make_cyclic(6))
    assert report.exact
    assert report.method == "ledger"
    assert report.labeling is not None
    assert report.labeling.span == 8
    assert report.oracle.value == 8
    assert report.agreement is True
    assert report.order == 6
    assert report.group == "Z6"


def test_lambda_exact_verify_mode():
    for g in (make_cyclic(6), make_dihedral(8), make_generalized_quaternion(8)):
        report = lambda_exact(g, verify=True)
        assert len(report.methods_run) >= 2


def test_lambda_exact_without_witness():
    report = lambda_exact(make_cyclic(6), with_witness=False)
    assert report.exact
    assert report.labeling is None


def test_lambda_exact_witness_always_validates():
    for g in (make_cyclic(9), make_cyclic(12), make_dihedral(14),
              make_generalized_quaternion(16), klein()):
        report = lambda_exact(g)
        graph = pg(g)
        assert validate_l21(graph, report.labeling).ok
        assert report.labeling.span == report.value


def test_lambda_exact_forced_methods_agree():
    g = make_cyclic(12)
    values = {method: lambda_exact(g, method=method).value
              for method in ("auto", "pathcover", "backtrack")}
    assert len(set(values.values())) == 1


def test_lambda_exact_trivial_group():
    report = lambda_exact(make_cyclic(1))
    assert report.value == 0
    assert report.exact


def test_lambda_exact_unpinned_ledger_method_is_inexact():
    report = lambda_exact(make_generalized_quaternion(8), method="ledger")
    assert not report.exact
    assert report.value is None
    assert report.bounds


@pytest.mark.parametrize("n, span", [(30, 40), (36, 52), (40, 64), (42, 60), (44, 80), (45, 72)])
def test_cyclic_spans_settled_by_the_path_cover(n, span):
    # each value meets the clique lower bound, so the validated witness certifies it
    g = make_cyclic(n)
    report = lambda_exact(g)
    assert report.exact and report.value == span
    clique = next(b for b in report.bounds if b.source == "clique")
    assert clique.value == span
    assert validate_l21(pg(g), report.labeling).ok


@pytest.mark.parametrize("p", [5, 7])
def test_klein_times_prime_span(p):
    # In the complement of the power graph of Z2xZ2xZp (n = 4p) the identity is
    # isolated and the p - 1 elements of order p are adjacent only to the 3
    # involutions. In a path cover those p - 1 vertices need 2(p - 1) path
    # edges but the involutions offer at most 6, so at least 2(p - 1) - 6
    # path ends sit on them; when all 6 are used the involutions are
    # saturated and the 3(p - 1) elements of order 2p need a path of their
    # own. Either way the non-identity vertices need p - 3 paths, the cover
    # p - 2, and the span is n + (p - 2) - 2 = 5p - 4.
    g = direct_product(klein(), make_cyclic(p))
    report = lambda_exact(g)
    assert report.exact and report.value == 5 * p - 4
    assert validate_l21(pg(g), report.labeling).ok


def test_negative_dp_limit_is_rejected_before_any_work():
    with pytest.raises(ValueError):
        lambda_exact(make_cyclic(6), dp_limit=-1)
    with pytest.raises(ValueError):
        lambda_via_path_cover(pg(make_cyclic(6)), dp_limit=-1)


def test_verification_error_type_exists():
    # VerificationError carries the disagreeing values mapping
    err = VerificationError("boom", values={"a": 1, "b": 2})
    assert err.values == {"a": 1, "b": 2}
