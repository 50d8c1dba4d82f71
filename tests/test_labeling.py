"""Labeling validation, exact span solvers and the constructive labelings."""

import random
from collections import Counter

import pytest

import oracles
from oracles import brute_lambda, check_l21, lambda_backtrack

from lambda_power import (
    Bound,
    CapacityExceeded,
    Graph,
    Labeling,
    LowerCertificate,
    PartitionCertificate,
    bound_ledger,
    check_certificate,
    build_power_graph,
    construct_dihedral_labeling,
    construct_partition_labeling,
    construct_quaternion_labeling,
    construct_zpqn_labeling,
    direct_product,
    from_permutations,
    lambda_exact,
    lambda_via_path_cover,
    lower_certificate,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
    maximal_cyclic_subgroups,
    permutation_from_cycles,
    predict_lambda,
    validate_l21,
)
from lambda_power import invariants
from lambda_power import labeling as labeling_module
from lambda_power.cli import build_group, builtin_corpus, parse_group_spec
from lambda_power.errors import InternalError, VerificationError
from lambda_power.groups import GroupDescriptor, _build, _generators, from_descriptor
from lambda_power.oracle import decomposition_conditions
from lambda_power.powergraph import bits


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
    assert lambda_backtrack(pg(make_cyclic(4))).span == 6


def test_backtrack_path_three():
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    labeling = lambda_backtrack(graph)
    assert labeling.span == 3
    assert check_l21(graph, labeling.labels)


def test_backtrack_klein():
    assert lambda_backtrack(pg(klein())).span == 4


def test_backtrack_matches_brute_on_small_graphs():
    graphs = [
        Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        pg(make_cyclic(5)),
    ]
    for graph in graphs:
        labeling = lambda_backtrack(graph)
        assert labeling.span == brute_lambda(graph)
        assert check_l21(graph, labeling.labels)


@pytest.mark.parametrize("graph", [Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
                                   Graph.from_edges(4, [])], ids=["P4", "edgeless"])
def test_backtrack_requires_diameter_two(graph):
    with pytest.raises(ValueError, match="diameter at most 2"):
        lambda_backtrack(graph)


def test_backtrack_trusts_only_the_recounted_cover_bound(monkeypatch):
    real = oracles._cover_lower_bound

    def inflated(adj, mask):
        lb, certificate = real(adj, mask)
        return lb + 5, certificate

    monkeypatch.setattr(oracles, "_cover_lower_bound", inflated)
    for group in (make_cyclic(6), make_dihedral(12), make_generalized_quaternion(12),
                  direct_product(direct_product(make_cyclic(2), make_cyclic(2)),
                                 make_cyclic(5))):
        graph = pg(group)
        assert lambda_backtrack(graph).span == lambda_via_path_cover(graph).span


@pytest.mark.parametrize("spec", ["Q16", "Z2xZ2xZ4", "Z4xZ4"])
def test_verify_certifies_where_backtracking_timed_out_before(spec):
    report = lambda_exact(build_group(parse_group_spec(spec)), verify=True)
    assert "certificate" in report.methods_run
    assert len(report.methods_run) >= 2


def test_backtrack_capacity():
    with pytest.raises(CapacityExceeded):
        lambda_backtrack(pg(make_cyclic(oracles.DEFAULT_BACKTRACK_LIMIT + 1)))


def test_backtrack_deepening_reaches_twice_n_minus_two():
    # Z4's power graph is K4: its clique bound starts the deepening at
    # 2n - 2 = 6, the last span it tries
    assert lambda_backtrack(pg(make_cyclic(4))).span == 6


def test_backtrack_past_twice_n_minus_two_is_an_internal_error(monkeypatch):
    # the labeling 0, 2, ..., 2n - 2 always fits, so only a bug gets here
    monkeypatch.setattr(oracles, "_span_feasible", lambda *args: None)
    with pytest.raises(InternalError, match="up to span 6"):
        lambda_backtrack(pg(make_cyclic(4)))


PINNED_LARGE = ("D512", "D1024", "Q512", "Q1024", "Z729", "x".join(["Z2"] * 9),
                "x".join(["Z3"] * 5), "perm:(1 2 3 4 5 6);(1 2)")


def certified(spec):
    """The power graph of ``spec``, its path-cover witness and its certificate."""
    g = build_group(parse_group_spec(spec))
    graph = pg(g)
    return graph, lambda_via_path_cover(graph), lower_certificate(g)


def test_certified_bound_is_the_span_on_the_corpus_and_the_large_pinned_groups():
    groups = [g for _, g in builtin_corpus(100)]
    groups += [build_group(parse_group_spec(spec)) for spec in PINNED_LARGE]
    for g in groups:
        report = lambda_exact(g, verify=True)
        assert report.exact and "certificate" in report.methods_run, g.descriptor.name
        assert not any(note.startswith("verification incomplete") for note in report.notes)
        # the ledger's family witness, where one is laid, is certified too
        auto = lambda_exact(g)
        cert = lower_certificate(g)
        assert check_certificate(pg(g), auto.labeling, cert) == auto.value == report.value


@pytest.mark.parametrize("spec", ["Z2xZ2xZ5", "Z2xZ4xZ11", "Z3xZ3xZ11", "Z2xZ2xZ25"])
def test_certificate_rejects_a_vertex_dropped_from_the_cut(spec):
    # on these only the scattering term c(G' - S) - |S| reaches the span
    graph, witness, cert = certified(spec)
    assert check_certificate(graph, witness, cert) == witness.span
    assert check_certificate(graph, witness, cert._replace(cut=())) < witness.span
    for v in cert.cut:
        dropped = cert._replace(cut=tuple(u for u in cert.cut if u != v))
        assert check_certificate(graph, witness, dropped) < witness.span


@pytest.mark.parametrize("spec", ["Z2xZ2xZ5", "Z12", "Q16", "D10", "Z2xZ2xZ2"])
def test_certificate_rejects_a_witness_label_shifted_by_one(spec):
    # a shift is accepted only where it leaves an L(2,1)-labeling of the
    # same span, which is then optimal too
    graph, witness, cert = certified(spec)
    rejected = 0
    for v in range(graph.n):
        for delta in (-1, 1):
            labels = list(witness.labels)
            labels[v] += delta
            shifted = Labeling(tuple(labels))
            accepted = check_certificate(graph, shifted, cert) == shifted.span
            assert accepted == (validate_l21(graph, shifted).ok
                                and shifted.span == witness.span), (v, delta)
            rejected += not accepted
    assert rejected >= graph.n


def test_certificate_rejects_a_clique_with_a_non_edge():
    graph, witness, cert = certified("Z12")  # 2 * omega - 2 = 16 is the span
    assert check_certificate(graph, witness, cert) == witness.span == 16
    stranger = next(v for v in range(graph.n) if v not in cert.clique
                    and not all(graph.adjacent(v, u) for u in cert.clique[1:]))
    assert check_certificate(graph, witness,
                             cert._replace(clique=(stranger, *cert.clique[1:]))) is None
    assert check_certificate(graph, witness, cert._replace(clique=(graph.n,))) is None
    assert check_certificate(graph, witness, cert._replace(cut=(-1,))) is None


def test_certificate_rejects_a_graph_with_no_dominating_vertex():
    # the 5-cycle has diameter 2 and this labeling is valid, but no vertex
    # dominates, so the rows alone do not show every pair within distance two
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    labeling = Labeling((0, 2, 4, 1, 3))
    assert validate_l21(c5, labeling).ok
    assert check_certificate(c5, labeling, LowerCertificate((), ())) is None
    # a hub makes it a wheel, whose complement has the hub on its own: two
    # components, so the bound is 6 and this labeling is optimal
    wheel = Graph.from_edges(6, c5.edges() + [(v, 5) for v in range(5)])
    assert check_certificate(wheel, Labeling((0, 2, 4, 1, 3, 6)),
                             LowerCertificate((), ())) == 6


def test_verify_notes_a_certified_bound_below_the_span(monkeypatch):
    real = labeling_module.lower_certificate
    monkeypatch.setattr(labeling_module, "lower_certificate",
                        lambda g: real(g)._replace(cut=()))
    report = lambda_exact(build_group(parse_group_spec("Z2xZ2xZ5")), verify=True)
    assert report.exact and report.value == 21
    assert report.methods_run == ("path-cover",)
    assert "verification incomplete: certified lower bound 20 below witness span 21" \
        in report.notes


@pytest.mark.parametrize("answer", [None, 9], ids=["rejected", "above-the-span"])
def test_verify_refuses_a_certified_bound_above_the_span(monkeypatch, answer):
    monkeypatch.setattr(labeling_module, "check_certificate", lambda *args: answer)
    with pytest.raises(InternalError, match="certificate checker gives"):
        lambda_exact(make_cyclic(6), verify=True)


def test_verify_checks_the_certificate_on_the_one_path_cover(monkeypatch):
    # nothing is solved twice: one path cover, whose witness is certified;
    # without verify no certificate is computed at all
    calls = Counter()
    for name in ("lambda_via_path_cover", "lower_certificate", "check_certificate"):
        def counted(*args, _name=name, _fn=getattr(labeling_module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(labeling_module, name, counted)
    for spec in ("Z2xZ2xZ5", "D12", "Q20"):
        g = build_group(parse_group_spec(spec))
        calls.clear()
        lambda_exact(g)
        lambda_exact(g, method="pathcover")
        assert calls["lower_certificate"] == calls["check_certificate"] == 0
        calls.clear()
        report = lambda_exact(g, verify=True)
        assert calls == {"lambda_via_path_cover": 1, "lower_certificate": 1,
                         "check_certificate": 1}
        assert "certificate" in report.methods_run


def test_backtrack_is_no_longer_a_method():
    with pytest.raises(ValueError, match="unknown method 'backtrack'"):
        lambda_exact(make_cyclic(6), method="backtrack")


def test_path_cover_method_z6():
    assert lambda_via_path_cover(pg(make_cyclic(6))).span == 8


def test_path_cover_method_d6():
    assert lambda_via_path_cover(pg(make_dihedral(6))).span == 6


def test_path_cover_method_q8():
    assert lambda_via_path_cover(pg(make_generalized_quaternion(8))).span == 9


def test_path_cover_method_requires_diameter_two():
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError):
        lambda_via_path_cover(path4)


def test_path_cover_witness_is_injective():
    for group in (make_cyclic(12), make_dihedral(10)):
        labels = lambda_via_path_cover(pg(group)).labels
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
        lambda_via_path_cover(pg(make_dihedral(10))).span


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


def test_bound_ledger_runs_no_clique_search(monkeypatch):
    # the general clique search on D12xQ8's complement runs for over a
    # minute; the poset of cyclic subgroups gives alpha = 39 at once
    def refuse(graph):
        raise AssertionError("the bound ledger searched a graph for a clique")

    monkeypatch.setattr(oracles, "_clique_search", refuse)
    g = build_group(parse_group_spec("D12xQ8"))
    entries = {b.source: b.value for b in bound_ledger(g)}
    assert entries["clique"] == 2 * 9 - 2
    assert entries["independence"] == 2 * 96 - 39 - 1


@pytest.mark.parametrize("spec, omega, alpha", [
    pytest.param("D256", 128, 129, id="D256"),
    pytest.param("Z3xZ3xZ3xZ3xZ3", 3, 121, id="Z3xZ3xZ3xZ3xZ3"),
    pytest.param("Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2", 2, 255, id="Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2"),
])
def test_bound_ledger_is_exact_above_the_clique_limit(spec, omega, alpha):
    # the poset of cyclic subgroups gives both entries exactly at any order,
    # past the limit of the general-graph clique search
    g = build_group(parse_group_spec(spec))
    n = g.order
    assert n > oracles.DEFAULT_CLIQUE_LIMIT
    bounds = bound_ledger(g)
    assert all(b.exact and b.note == "" for b in bounds)
    entries = {b.source: b for b in bounds}
    assert (entries["clique"].kind, entries["clique"].value) == ("lower", 2 * omega - 2)
    assert (entries["independence"].kind, entries["independence"].value) == (
        "upper", 2 * n - alpha - 1)
    value = predict_lambda(g).value
    assert all(b.value <= value for b in bounds if b.kind == "lower")
    assert all(value <= b.value for b in bounds if b.kind == "upper")
    report = lambda_exact(g)
    assert report.exact and report.value == value
    assert validate_l21(pg(g), report.labeling).ok
    assert report.labeling.span == value


# Corpus <= 100 and Z101..Z399, D102..D398, Q104..Q396: 778 groups.
LEDGER_SPECS = ([spec for spec, _ in builtin_corpus(100)] + [f"Z{n}" for n in range(101, 400)]
                + [f"D{m}" for m in range(102, 399, 2)] + [f"Q{m}" for m in range(104, 397, 4)])


def poset_weights(g):
    sub = g._cyclic_subgroups
    return list(map(int.bit_count, sub.generators)), sub.inside


def test_poset_ledger_matches_the_graph_views():
    # the dominating set and the profile the ledger reads off the poset,
    # against the graph's dominating vertices and the components of the
    # graph less them; the P4 verdict against the complement's scan; the
    # decomposition's masks against set inclusion over element sets
    assert len(LEDGER_SPECS) == 778
    for spec in LEDGER_SPECS + list(PINNED_LARGE):
        g = build_group(parse_group_spec(spec))
        graph = pg(g)
        weights, inside = poset_weights(g)
        dominating = sum(1 << v for v, row in enumerate(graph.adj)
                         if row | 1 << v == graph.full_mask)
        rest = invariants._masked_components(graph.adj, graph.full_mask & ~dominating)
        d, parts = invariants._comparability_weights(weights, inside)
        assert d == dominating.bit_count(), spec
        assert [weight for weight, _ in parts] == list(map(len, rest)), spec
        assert sorted(sorted(x for i in members for x in bits(g._poset.generators[i]))
                      for _, members in parts) == sorted(rest), spec
        assert invariants._incomparability_has_p4(weights, inside) == (
            invariants.find_complement_p4(graph) is not None), spec
        maximal = oracles.maximal_cyclic_sets(g)
        assert maximal_cyclic_subgroups(g).subgroups == tuple(maximal), spec
        assert decomposition_conditions(g) == oracles.decomposition_reference(maximal), spec


@pytest.mark.parametrize("spec", ["Z15", "Q8"])
def test_only_the_weights_find_the_complement_p4(spec):
    # Z15's incomparable <3> and <5> are one edge of the quotient, but blow
    # up to K(4, 2); Q8's <i>, <j>, <k> a triangle blown up to K(2, 2, 2)
    g = build_group(parse_group_spec(spec))
    weights, inside = poset_weights(g)
    assert invariants.find_complement_p4(pg(g)) is not None
    assert invariants._incomparability_has_p4(weights, inside)
    assert not invariants._incomparability_has_p4([1] * len(weights), inside)
    assert {b.source for b in bound_ledger(g)} >= {"complement-p4"}


def test_lambda_exact_witness_under_every_method_and_verify_setting():
    # every exact report carries a witness of its value; every inexact one
    # is bounds-only with none
    for _, g in builtin_corpus(12):
        graph = pg(g)
        for method in ("auto", "ledger", "pathcover"):
            for verify in (False, True):
                report = lambda_exact(g, method=method, verify=verify)
                if report.exact:
                    assert validate_l21(graph, report.labeling).ok
                    assert report.labeling.span == report.value
                else:
                    assert report.method == "bounds-only"
                    assert report.labeling is None


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
              for method in ("auto", "pathcover")}
    values["backtrack"] = lambda_backtrack(pg(g)).span
    assert len(set(values.values())) == 1


def test_lambda_exact_trivial_group():
    report = lambda_exact(make_cyclic(1))
    assert report.value == 0
    assert report.exact


def test_lambda_exact_unpinned_ledger_method_is_inexact():
    report = lambda_exact(make_generalized_quaternion(12), method="ledger")
    assert not report.exact
    assert report.value is None
    assert report.bounds


def test_lambda_exact_ledger_method_says_why_it_is_inexact():
    report = lambda_exact(make_cyclic(30), method="ledger")
    assert not report.exact and report.method == "bounds-only"
    assert report.notes == ("ledger: bounds do not meet (lower 40, upper 55)",)


def test_pinned_ledger_values_meet_the_path_cover_and_poset_witnesses_validate():
    # 361 of the 778 groups are pinned; each value is the path cover's, and
    # each witness read off the poset validates on the graph
    pinned = 0
    for spec in LEDGER_SPECS:
        g = build_group(parse_group_spec(spec))
        bounds = bound_ledger(g)
        lower = max(b.value for b in bounds if b.kind == "lower")
        if lower != min(b.value for b in bounds if b.kind == "upper"):
            continue
        pinned += 1
        graph = pg(g)
        assert lambda_via_path_cover(graph).span == lower, spec
        witness = labeling_module._poset_witness(g)
        assert witness is not None and witness.span == lower, spec
        assert validate_l21(graph, witness).ok, spec
    assert pinned == 361


def test_dominating_bound_is_below_the_brute_force_cover():
    # n + d - 1 <= n + r - 2, r the complement's minimum path cover
    checked = 0
    for spec, g in builtin_corpus(16):
        for bound in bound_ledger(g):
            if bound.source == "dominating":
                r = oracles.brute_path_cover_count(pg(g).complement)
                assert bound.value <= g.order + r - 2, spec
                checked += 1
    assert checked == 7


@pytest.mark.parametrize("family, order", [("cyclic", 12), ("dihedral", 12),
                                           ("quaternion", 12), ("dihedral", 1024),
                                           ("quaternion", 1024)])
def test_relabelled_family_group_gets_a_valid_witness(family, order):
    # rows laid out by a shuffled index: the group walks its powers instead
    # of reading the poset off the divisors, and the family's labels, written
    # for the constructor's layout, are not used
    descriptor = GroupDescriptor.atom(family, order)
    shuffle = [0] + random.Random(order).sample(range(1, order), order - 1)
    g = _build(oracles.relabelled_rows(_generators(descriptor), shuffle), descriptor)
    assert not g._in_constructor_layout
    report, reference = lambda_exact(g), lambda_exact(from_descriptor(descriptor))
    fields = ("value", "exact", "bounds", "oracle", "agreement")
    assert report.exact
    assert [getattr(report, f) for f in fields] == [getattr(reference, f) for f in fields]
    assert validate_l21(pg(g), report.labeling).ok


# Cyclic groups whose constructed cover misses the certified lower bound on a
# component, with their spans: the cocomparability cover closes each gap.
FORMER_GAPS = {144: 196, 280: 396, 384: 512, 432: 592, 462: 620, 495: 740, 525: 780,
               560: 780, 576: 772, 585: 888, 588: 768, 693: 1100, 700: 1020, 756: 972,
               768: 1024, 770: 1105, 810: 1080, 858: 1224, 864: 1168, 910: 1320}


def test_cyclic_groups_to_order_1000_are_exact():
    for n in range(2, 1001):
        report = lambda_exact(make_cyclic(n))
        assert report.exact, (n, report.notes)
        assert report.value == FORMER_GAPS.get(n, report.value), n


def test_former_cover_gaps_are_certified():
    for n, span in FORMER_GAPS.items():
        report = lambda_exact(make_cyclic(n), verify=True)
        assert report.exact and report.value == span, n
        assert "certificate" in report.methods_run and not report.notes, n


def test_relabelled_corpus_groups_are_exact():
    # rows under five seeded shuffles of the indices: the poset, its linear
    # extension and the power graph come from the power walk, not the layout
    corpus = [g for _, g in builtin_corpus(100) if g.order > 20]
    runs = 0
    for seed in range(5):
        for g in corpus:
            shuffle = [0] + random.Random(1000 * seed + g.order).sample(range(1, g.order),
                                                                      g.order - 1)
            h = _build(oracles.relabelled_rows(g._generators, shuffle), g.descriptor)
            report = lambda_exact(h)
            assert report.exact, (seed, g.descriptor.name, report.notes)
            runs += 1
    assert runs == 1070


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
    # dp_limit is no longer a keyword, so an old call fails at binding
    with pytest.raises(TypeError):
        lambda_exact(make_cyclic(6), dp_limit=-1)
    with pytest.raises(TypeError):
        lambda_via_path_cover(pg(make_cyclic(6)), dp_limit=-1)


def test_verification_error_type_exists():
    # VerificationError carries the disagreeing values mapping
    err = VerificationError("boom", values={"a": 1, "b": 2})
    assert err.values == {"a": 1, "b": 2}


def test_lambda_exact_never_raises_capacity(monkeypatch):
    # Every solver and witness refusal is caught: with no cover but the
    # singletons built and no time left, each method and verify setting
    # still ends in a report.
    def singletons(adj, vertices, *rest):
        return [[v] for v in vertices]

    monkeypatch.setattr(invariants, "_constructed_cover", singletons)
    monkeypatch.setattr(invariants, "_cocomparability_cover", singletons)
    groups = [g for _, g in builtin_corpus(10)]
    groups += [build_group(parse_group_spec(s)) for s in ("D64", "Z2x" * 5 + "Z2", "Z72")]
    for g in groups:
        for method in ("auto", "ledger", "pathcover"):
            for verify in (False, True):
                report = lambda_exact(g, method=method, verify=verify, budget_ms=0)
                assert report.order == g.order
                assert report.exact == (report.value is not None)


def test_a_budget_spent_before_the_search_gives_its_reason():
    report = lambda_exact(make_cyclic(30), budget_ms=0)
    assert not report.exact and report.method == "bounds-only"
    assert report.methods_run == ()
    assert report.notes == ("path-cover unavailable: time budget exhausted before the search",)


def test_negative_budget_is_rejected_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lambda_exact started on a negative budget")

    monkeypatch.setattr(labeling_module, "build_power_graph", refuse)
    monkeypatch.setattr(labeling_module, "bound_ledger", refuse)
    with pytest.raises(ValueError, match="budget_ms must be at least 0, got -1"):
        lambda_exact(make_cyclic(30), budget_ms=-1)


def test_z72_is_exact_without_a_search(monkeypatch):
    # Z72 once took a 2^22.9-state DP with no budget; its constructed cover
    # meets the certified lower bound, so no fallback runs
    def refuse(*args, **kwargs):
        raise AssertionError("a path-cover search ran on Z72")

    monkeypatch.setattr(invariants, "_cocomparability_cover", refuse)
    report = lambda_exact(make_cyclic(72))
    assert report.exact and report.value == 100
    assert validate_l21(pg(make_cyclic(72)), report.labeling).ok


@pytest.mark.parametrize("make, order", [(make_dihedral, 12), (make_cyclic, 6)],
                         ids=["D12", "Z6"])
def test_lambda_exact_builds_and_validates_once(monkeypatch, make, order):
    # Both are pinned by the ledger and take a family witness, which must be
    # checked on the group's own poset rather than on a rebuilt group. Count
    # the graphs constructed: none, as the ledger reads the poset and the
    # witness is accepted once, with adjacency read off the poset.
    group = make(order)
    calls = Counter()
    for name in ("make_cyclic", "make_dihedral", "make_generalized_quaternion",
                 "validate_l21", "_accepted_on_poset"):
        def counted(*args, _name=name, _fn=getattr(labeling_module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(labeling_module, name, counted)
    check, trusted = Graph.__post_init__, Graph._trusted.__func__

    def constructed(graph):
        calls["Graph"] += 1
        check(graph)

    def constructed_trusted(cls, adj):  # the complement skips the check
        calls["Graph"] += 1
        return trusted(cls, adj)

    monkeypatch.setattr(Graph, "__post_init__", constructed)
    monkeypatch.setattr(Graph, "_trusted", classmethod(constructed_trusted))
    report = lambda_exact(group)
    assert report.method == "ledger" and report.labeling is not None
    assert calls == {"_accepted_on_poset": 1}
