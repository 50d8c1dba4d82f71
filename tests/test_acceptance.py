"""Acceptance suite: every release criterion, one pass/fail line each.

All span values are exact integers, so every comparison is equality. The
shared corpus sweep is computed once per session and reused across criteria.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import time

import pytest

from oracles import brute_path_cover_count, delete_vertex, independence_number, lambda_backtrack

from lambda_power import (
    build_power_graph,
    check_lower_equality,
    check_upper_classification,
    classify_alpha2,
    complement,
    construct_dihedral_labeling,
    construct_quaternion_labeling,
    construct_zpqn_labeling,
    find_complement_p4,
    lambda_exact,
    lambda_via_path_cover,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
    maximal_cyclic_subgroups,
    path_cover_number,
    validate_l21,
)
from lambda_power.cli import builtin_corpus, group_from_text
from lambda_power.labeling import bound_ledger
from lambda_power.oracle import decomposition_conditions, is_cyclic_prime_power


def report_line(number, ok, label):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {number}: {label}"


@pytest.fixture(scope="module")
def corpus20():
    sweep = {}
    for spec, group in builtin_corpus(20):
        sweep[spec] = (group, lambda_exact(group))
    return sweep


def test_criterion_01_dihedral_family(corpus20):
    started = time.monotonic()
    ok = True
    for k in range(3, 9):
        group = make_dihedral(2 * k)
        value = lambda_exact(group).value
        labeling = construct_dihedral_labeling(k)
        valid = validate_l21(build_power_graph(group), labeling).ok
        ok = ok and value == 2 * k and labeling.span == 2 * k and valid
    elapsed = time.monotonic() - started
    report_line(1, ok and elapsed < 5.0,
                f"dihedral spans 2k for k=3..8 with validated constructions ({elapsed:.1f}s)")


def test_criterion_02_quaternion_family():
    started = time.monotonic()
    expected = {2: 9, 3: 12, 4: 17, 5: 20}
    ok = True
    for k, want in expected.items():
        group = make_generalized_quaternion(4 * k)
        value = lambda_exact(group).value
        labeling = construct_quaternion_labeling(k)
        valid = validate_l21(build_power_graph(group), labeling).ok
        ok = ok and value == want and labeling.span == want and valid
    elapsed = time.monotonic() - started
    report_line(2, ok and elapsed < 20.0,
                f"quaternion spans 9/12/17/20 with validated constructions ({elapsed:.1f}s)")


def test_criterion_03_two_prime_cyclic(corpus20):
    expected = {"Z6": 8, "Z10": 16, "Z12": 16, "Z14": 24, "Z15": 24,
                "Z18": 28, "Z20": 32}
    ok = True
    for spec, want in expected.items():
        group, report = corpus20[spec]
        solver = lambda_via_path_cover(build_power_graph(group)).span
        oracle = report.oracle.value
        ok = ok and solver == want and oracle == want and report.value == want
    special12 = construct_zpqn_labeling(3, 2, 2)
    special24 = construct_zpqn_labeling(3, 2, 3)
    ok = ok and special12.span == 16 and special24.span == 32
    ok = ok and validate_l21(build_power_graph(make_cyclic(12)), special12).ok
    ok = ok and validate_l21(build_power_graph(make_cyclic(24)), special24).ok
    report_line(3, ok, "two-prime cyclic formula matches the solver; "
                       "interleaved constructions validate on Z12 and Z24")


def test_criterion_04_elementary_abelian():
    expected = {"Z2xZ2": 4, "Z2xZ2xZ2": 8, "Z2xZ2xZ2xZ2": 16, "Z3xZ3": 9}
    ok = True
    for spec, want in expected.items():
        graph = build_power_graph(group_from_text(spec))
        ok = ok and lambda_via_path_cover(graph).span == want
    report_line(4, ok, "elementary abelian spans equal the group order")


def test_criterion_05_prime_power_cyclic():
    expected = {4: 6, 8: 14, 9: 16}
    ok = True
    for n, want in expected.items():
        graph = build_power_graph(make_cyclic(n))
        ok = ok and lambda_via_path_cover(graph).span == want
        ok = ok and lambda_backtrack(graph).span == want
    report_line(5, ok, "prime-power cyclic spans 2n-2 by both solver methods")


def test_criterion_06_order_lower_bound_equality(corpus20):
    ok = True
    for spec, (group, report) in corpus20.items():
        n = group.order
        if report.value < n:
            ok = False
            break
        check = check_lower_equality(group, report.value)
        if check.ok is not True:
            ok = False
            break
        if check.witness is not None:
            graph = build_power_graph(group)
            reduced, survivors = delete_vertex(graph, 0)
            comp = complement(reduced)
            positions = {old: new for new, old in enumerate(survivors)}
            local = [positions[v] for v in check.witness]
            if sorted(check.witness) != list(range(1, n)) or not all(
                    comp.adjacent(a, b) for a, b in zip(local, local[1:])):
                ok = False
                break
    report_line(6, ok, "span >= order everywhere; equality iff the punctured "
                       "complement is traceable, witnesses verified (order <= 20)")


def test_criterion_07_upper_bound_classification(corpus20):
    ok = True
    equality = set()
    for spec, (group, report) in corpus20.items():
        if group.order > 16 or is_cyclic_prime_power(group):
            continue
        n = group.order
        if report.value > 2 * n - 4 or not check_upper_classification(group, report.value).ok:
            ok = False
            break
        if report.value == 2 * n - 4:
            equality.add(spec)
    ok = ok and equality == {"Z2xZ2", "Z6", "Z10", "Z14"}
    report_line(7, ok, "span <= 2n-4 for non-complete power graphs (order <= 16), "
                       "equality exactly on Z2xZ2, Z6, Z10, Z14")


def test_criterion_08_independence_two_classification():
    ok = True
    alpha2 = set()
    for spec, group in builtin_corpus(30):
        alpha = independence_number(build_power_graph(group)).value
        if classify_alpha2(group) != (alpha == 2):
            ok = False
            break
        if alpha == 2:
            alpha2.add(spec)
    expected = {f"Z{n}" for n in (6, 10, 12, 14, 15, 18, 20, 21, 22, 24, 26, 28)}
    ok = ok and alpha2 == expected
    report_line(8, ok, "independence number is 2 exactly for the two-prime "
                       "cyclic members of the order <= 30 corpus")


def test_criterion_09_cross_solver_equivalence(corpus20):
    ok = True
    for spec, (group, _) in corpus20.items():
        if group.order > 14:
            continue
        graph = build_power_graph(group)
        if lambda_backtrack(graph).span != lambda_via_path_cover(graph).span:
            ok = False
            break
    for spec, (group, _) in corpus20.items():
        if group.order > 10:
            continue
        graph = build_power_graph(group)
        for target in (graph, complement(graph)):
            if path_cover_number(target).count != brute_path_cover_count(target):
                ok = False
                break
    report_line(9, ok, "backtracking equals path-cover (<= 14 vertices); "
                       "path cover equals the partition-enumeration oracle (<= 10)")


def test_criterion_10_path_cover_consistency(corpus20):
    ok = True
    for spec, (group, report) in corpus20.items():
        cover = path_cover_number(complement(build_power_graph(group)))
        if cover.count >= 2 and report.value != group.order + cover.count - 2:
            ok = False
            break
        if cover.count == 1 and report.value != group.order - 1:
            ok = False
            break
    report_line(10, ok, "span equals order + cover - 2 whenever the complement "
                        "needs at least two paths")


def test_criterion_11_alternating_group_pinned():
    started = time.monotonic()
    group = group_from_text("A5")
    ok = group.order == 60
    trivially_meeting, balanced = decomposition_conditions(group)
    ok = ok and trivially_meeting and balanced
    decomposition = maximal_cyclic_subgroups(group)
    ok = ok and decomposition.sizes[0] == 5 and set(decomposition.sizes) == {5, 3, 2}
    report = lambda_exact(group, with_witness=False)
    ok = ok and report.value == 60 and report.exact and report.method == "ledger"
    elapsed = time.monotonic() - started
    report_line(11, ok and elapsed < 10.0,
                f"A5 builds from generators and pins span 60 by the ledger "
                f"with no exact search ({elapsed:.1f}s)")


def test_criterion_12_bound_sandwich(corpus20):
    ok = True
    for spec, (group, report) in corpus20.items():
        graph = build_power_graph(group)
        n = group.order
        omega = max(b.value for b in bound_ledger(group) if b.source == "clique")
        alpha = independence_number(graph).value
        lower = max(n, omega)  # omega entry already holds 2*clique-2
        if not lower <= report.value <= 2 * n - alpha - 1:
            ok = False
            break
        if find_complement_p4(graph) is not None and report.value > 2 * n - 5:
            ok = False
            break
    report_line(12, ok, "max(order, 2*clique-2) <= span <= 2n-alpha-1, and the "
                        "complement-path bound holds when a P4 exists")


def test_full_suite_runtime_headroom(corpus20):
    # the shared sweep is the dominant cost; it must leave headroom in the
    # five-minute budget
    assert len(corpus20) >= 40
