"""Group constructors, element algebra and maximal cyclic decompositions."""

import re

import pytest

from oracles import (
    TableGroup,
    closure_table,
    closure_tree,
    composed_permutation_table,
    cyclic_subgroups_of,
    generating_set,
    permutation_rows,
    power_walk,
    validate_table,
    validated_group,
)

from lambda_power import (
    CapacityExceeded,
    Graph,
    InternalError,
    cyclic_subgroup,
    direct_product,
    element_order,
    from_permutations,
    is_P_group,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
    maximal_cyclic_subgroups,
    permutation_from_cycles,
)
from lambda_power import cli, groups
from lambda_power.cli import builtin_corpus, group_from_text, parse_group_spec
from lambda_power.groups import GroupDescriptor, from_descriptor
from lambda_power.labeling import lambda_exact

A5_IMAGES = [permutation_from_cycles([(1, 2, 3, 4, 5)]),
             permutation_from_cycles([(1, 2, 3)])]


def test_make_cyclic_trivial():
    g = make_cyclic(1)
    assert g.order == 1
    assert g.orders == (1,)


def test_make_cyclic_orders():
    g = make_cyclic(6)
    assert g.orders == (1, 6, 3, 2, 3, 6)


def test_make_cyclic_unique_involution():
    g = make_cyclic(4)
    assert [x for x in range(4) if g.orders[x] == 2] == [2]


def test_make_cyclic_rejects_zero():
    with pytest.raises(ValueError):
        make_cyclic(0)


def test_dihedral_structure():
    d6 = make_dihedral(6)
    assert sum(1 for o in d6.orders if o == 2) == 3
    assert sum(1 for o in d6.orders if o == 3) == 2


def test_groups_compare_and_hash_by_order_inverses_and_descriptor():
    first, second = make_dihedral(12), make_dihedral(12)
    assert first is not second and first == second and hash(first) == hash(second)
    assert first != make_cyclic(12) and first != make_dihedral(14)
    text = repr(first)
    assert text.startswith("FiniteGroup(order=12, inverses=")
    assert text.endswith("descriptor=GroupDescriptor(family='dihedral', params=(12,), "
                         "name='D12'))")
    assert "_generators" not in text and "_tree" not in text


def test_dihedral_eight_involutions():
    d8 = make_dihedral(8)
    assert sum(1 for o in d8.orders if o == 2) == 5  # 4 reflections + a^2


def test_dihedral_reflection_inverts_rotation():
    d6 = make_dihedral(6)
    a, b = 1, 3  # a^1 and the first reflection
    assert d6.mul(d6.mul(b, a), b) == d6.inverses[a]


@pytest.mark.parametrize("m", [5, 7, 4, 2])
def test_dihedral_rejects_bad_order(m):
    with pytest.raises(ValueError):
        make_dihedral(m)


def test_quaternion_unique_involution():
    q8 = make_generalized_quaternion(8)
    assert [x for x in range(8) if q8.orders[x] == 2] == [2]  # x^2


def test_quaternion_outside_elements_order_four():
    q12 = make_generalized_quaternion(12)
    assert all(q12.orders[x] == 4 for x in range(6, 12))


def test_quaternion_inverse_of_xy():
    q8 = make_generalized_quaternion(8)
    # index 5 is x*y; its inverse is x^(2n-1)*y = x^3*y at index 7 (n = 2)
    assert q8.inverses[5] == 7


@pytest.mark.parametrize("m", [4, 6, 10, 9])
def test_quaternion_rejects_bad_order(m):
    with pytest.raises(ValueError):
        make_generalized_quaternion(m)


def test_klein_four_group():
    g = direct_product(make_cyclic(2), make_cyclic(2))
    assert g.orders == (1, 2, 2, 2)


def test_coprime_product_is_cyclic():
    g = direct_product(make_cyclic(2), make_cyclic(3))
    assert sorted(g.orders) == sorted(make_cyclic(6).orders)
    assert max(g.orders) == 6


def test_elementary_abelian_nine():
    g = direct_product(make_cyclic(3), make_cyclic(3))
    assert sum(1 for o in g.orders if o == 3) == 8


def test_product_order_is_lcm():
    import math
    g = make_cyclic(4)
    h = make_cyclic(6)
    gh = direct_product(g, h)
    for a in range(4):
        for b in range(6):
            assert gh.orders[a * 6 + b] == math.lcm(g.orders[a], h.orders[b])


def test_product_capacity():
    with pytest.raises(CapacityExceeded):
        direct_product(make_cyclic(200), make_cyclic(200))


def recording_builds(monkeypatch) -> list:
    """Record the descriptor name of every table built from now on."""
    built, build = [], groups._build

    def recording(generators, descriptor):
        built.append(descriptor.name)
        return build(generators, descriptor)

    monkeypatch.setattr(groups, "_build", recording)
    return built


def test_oversized_product_is_refused_before_any_product_table(monkeypatch):
    built = recording_builds(monkeypatch)
    monkeypatch.setattr(groups, "DEFAULT_MAX_ORDER", 50)
    with pytest.raises(CapacityExceeded, match="group order 72 exceeds the configured maximum 50"):
        from_descriptor(parse_group_spec("Z6xZ6xZ2"))
    assert built == []  # no atom table and no partial product either


def test_product_spec_validates_one_table_per_group(monkeypatch):
    built = recording_builds(monkeypatch)
    group = from_descriptor(parse_group_spec("Z2xZ3xZ2"))
    assert built == ["Z2xZ3xZ2"]
    assert group.descriptor == parse_group_spec("Z2xZ3xZ2")


def test_from_permutations_a5():
    g = from_permutations(A5_IMAGES)
    assert g.order == 60


def test_from_permutations_empty():
    g = from_permutations([])
    assert g.order == 1


def test_from_permutations_transposition():
    g = from_permutations([permutation_from_cycles([(1, 2)])])
    assert g.order == 2


def test_from_permutations_rejects_malformed():
    with pytest.raises(ValueError):
        from_permutations([(1, 1, 3)])


def test_from_permutations_capacity():
    # S8 has 40320 elements; the closure stops at the 10000th
    s8 = [permutation_from_cycles([(1, 2, 3, 4, 5, 6, 7, 8)]),
          permutation_from_cycles([(1, 2)])]
    with pytest.raises(CapacityExceeded, match="10000"):
        from_permutations(s8)


def test_element_order_examples():
    assert element_order(make_cyclic(6), 2) == 3
    q8 = make_generalized_quaternion(8)
    assert element_order(q8, 2) == 2
    d6 = make_dihedral(6)
    assert all(element_order(d6, x) == 2 for x in range(3, 6))


def test_element_order_range_check():
    with pytest.raises(ValueError):
        element_order(make_cyclic(6), 6)


def test_cyclic_subgroup_examples():
    z6 = make_cyclic(6)
    assert cyclic_subgroup(z6, 2) == {0, 2, 4}
    assert cyclic_subgroup(z6, 0) == {0}
    assert cyclic_subgroup(z6, 1) == set(range(6))


def test_cyclic_subgroup_size_and_nesting():
    for g in (make_cyclic(12), make_dihedral(10), make_generalized_quaternion(12)):
        for x in range(g.order):
            sub = cyclic_subgroup(g, x)
            assert len(sub) == element_order(g, x)
            for y in sub:
                assert cyclic_subgroup(g, y) <= sub


def test_maximal_cyclic_d6():
    decomposition = maximal_cyclic_subgroups(make_dihedral(6))
    assert decomposition.sizes == (3, 2, 2, 2)
    assert decomposition.pairwise_trivial


def test_maximal_cyclic_q8():
    decomposition = maximal_cyclic_subgroups(make_generalized_quaternion(8))
    assert decomposition.sizes == (4, 4, 4)
    assert not decomposition.pairwise_trivial
    for i in range(3):
        for j in range(i + 1, 3):
            assert len(decomposition.subgroups[i] & decomposition.subgroups[j]) == 2


def test_maximal_cyclic_cyclic_group():
    decomposition = maximal_cyclic_subgroups(make_cyclic(6))
    assert decomposition.sizes == (6,)


def test_maximal_cyclic_covers_and_is_antichain():
    for g in (make_cyclic(12), make_dihedral(12), make_generalized_quaternion(16),
              direct_product(make_cyclic(2), make_cyclic(4))):
        decomposition = maximal_cyclic_subgroups(g)
        covered = set()
        for sub in decomposition.subgroups:
            covered |= sub
        assert covered == set(range(g.order))
        subs = decomposition.subgroups
        assert not any(subs[i] <= subs[j]
                       for i in range(len(subs)) for j in range(len(subs)) if i != j)


def test_is_p_group():
    assert is_P_group(direct_product(make_cyclic(2), make_cyclic(2)))
    assert not is_P_group(make_cyclic(4))
    assert is_P_group(from_permutations(A5_IMAGES))
    assert is_P_group(make_cyclic(5))
    assert not is_P_group(make_cyclic(6))
    assert not is_P_group(make_cyclic(9))


def test_is_p_group_tests_each_distinct_order_once(monkeypatch):
    tested, is_prime = [], groups.is_prime

    def counting(m):
        tested.append(m)
        return is_prime(m)

    monkeypatch.setattr(groups, "is_prime", counting)
    assert is_P_group(from_permutations(A5_IMAGES))  # 59 elements of orders 2, 3 and 5
    assert sorted(tested) == [2, 3, 5]


def test_group_axioms_exhaustively():
    groups = [make_cyclic(8), make_dihedral(10), make_generalized_quaternion(12),
              direct_product(make_cyclic(3), make_cyclic(3)),
              from_permutations(A5_IMAGES)]
    for g in groups:
        n = g.order
        table = g.table
        for x in range(n):
            assert table[0][x] == x and table[x][0] == x
            assert table[x][g.inverses[x]] == 0
            assert n % g.orders[x] == 0
        if n <= 64:
            assert all(table[table[a][b]][c] == table[a][table[b][c]]
                       for a in range(n) for b in range(n) for c in range(n))


def index_two_product(n: int, shift: int, u: int, v: int) -> int:
    """x^i at index i and x^i y at n + i, with y x^j = x^-j y and y^2 = x^shift."""
    (ur, ui), (vr, vi) = divmod(u, n), divmod(v, n)
    if not ur:
        return vr * n + (ui + vi) % n  # x^i x^j (y) = x^(i+j) (y)
    if not vr:
        return n + (ui - vi) % n  # x^i y x^j = x^(i-j) y
    return (ui - vi + shift) % n  # x^i y x^j y = x^(i-j+shift)


def test_tables_match_their_closure_definitions():
    for n in range(1, 201):
        assert make_cyclic(n).table == tuple(
            tuple((a + b) % n for b in range(n)) for a in range(n))
    for m in range(6, 201, 2):
        k = m // 2
        assert make_dihedral(m).table == tuple(
            tuple(index_two_product(k, 0, u, v) for v in range(m)) for u in range(m))
    for m in range(8, 201, 4):
        k = m // 2
        assert make_generalized_quaternion(m).table == tuple(
            tuple(index_two_product(k, m // 4, u, v) for v in range(m)) for u in range(m))


@pytest.mark.parametrize("degree", [3, 4, 5])
def test_symmetric_group_tables_match_composition(degree):
    images = [permutation_from_cycles([tuple(range(1, degree + 1))]),
              permutation_from_cycles([(1, 2)], degree)]
    group = from_permutations(images)
    assert group.order == [1, 1, 2, 6, 24, 120][degree]
    assert group.table == composed_permutation_table(group.descriptor.params)


def test_a5_table_matches_composition():
    group = from_permutations(A5_IMAGES)
    assert group.table == composed_permutation_table(group.descriptor.params)


def test_table_whose_powers_never_reach_the_identity_is_refused():
    # x * x = x: the power walk stops after n + 1 terms and validation fails.
    with pytest.raises(InternalError):
        validated_group(((0, 1), (1, 1)), GroupDescriptor.atom("cyclic", 2))


def broken(group, **changes):
    """The group's table, orders and inverses, some replaced, validated as if freshly built."""
    validate_table(TableGroup.of(group)._replace(**changes))


def with_row(table, x, row):
    return table[:x] + (tuple(row),) + table[x + 1:]


def test_validation_refuses_a_broken_identity_law():
    z3 = make_cyclic(3)
    swapped = (z3.table[1], z3.table[0], z3.table[2])
    with pytest.raises(InternalError, match="identity law fails at element 0"):
        broken(z3, table=swapped)


def test_validation_refuses_a_broken_inverse_law():
    with pytest.raises(InternalError, match="inverse law fails at element 1"):
        broken(make_cyclic(3), inverses=(0, 1, 2))


def test_validation_refuses_an_order_that_violates_lagrange():
    with pytest.raises(InternalError, match="order of element 1 violates Lagrange"):
        broken(make_cyclic(6), orders=(1, 4, 3, 2, 3, 6))
    with pytest.raises(InternalError, match="identity must have order 1"):
        broken(make_cyclic(6), orders=(2, 6, 3, 2, 3, 6))


def test_validation_refuses_a_row_that_is_not_a_permutation():
    z4 = make_cyclic(4)
    with pytest.raises(InternalError, match="row 1 of the Cayley table is not a permutation"):
        broken(z4, table=with_row(z4.table, 1, (1, 2, 2, 0)))


# Swapping entries j and k of row x of Z6 keeps a Latin square with the
# identity, inverses and orders of Z6, but breaks associativity. For row 1
# the first bad triple is (1, 1, 2), where a search in (a, c, b) order would
# find (1, 3, 1); for rows 4 and 5 it lies in row 1, before the broken row.
@pytest.mark.parametrize("x, j, k", [(1, 1, 4), (4, 1, 3), (5, 2, 4)])
def test_exhaustive_validation_names_the_first_non_associative_triple(x, j, k):
    z6 = make_cyclic(6)
    row = list(z6.table[x])
    row[j], row[k] = row[k], row[j]
    table = with_row(z6.table, x, row)
    first = next((a, b, c) for a in range(6) for b in range(6) for c in range(6)
                 if table[table[a][b]][c] != table[a][table[b][c]])
    with pytest.raises(InternalError, match=re.escape(f"associativity fails at {first}") + "$"):
        broken(z6, table=table)


def test_validation_refuses_a_non_associative_latin_square_of_order_100():
    # Z50 x Z2 with (a, s)(b, t) = (a + b, s + t + [a = b != 0]) at index 2a + s:
    # a Latin square with identity 0, but [a = b != 0] is not a cocycle, so
    # (ab)c != a(bc) on about 7% of all triples.
    def index(a, s):
        return 2 * (a % 50) + s % 2

    table = tuple(tuple(index(a + b, s + t + (a == b != 0)) for b in range(50) for t in range(2))
                  for a in range(50) for s in range(2))
    inverses = tuple(index(-a, s + (a == 25)) for a in range(50) for s in range(2))
    z100 = from_descriptor(parse_group_spec("Z50xZ2"))
    assert z100.order > 64
    with pytest.raises(InternalError, match="associativity fails at"):
        broken(z100, table=table, inverses=inverses)


def test_a_swap_in_a_non_generator_row_of_d1024_is_refused():
    # Row 3 of D1024 (the rotation a^3, inverse a^509 at index 509) is no
    # generator. Swapping its entries 5 and 600 keeps the identity, inverse
    # and Lagrange laws and breaks 8,176 of the 1024^3 triples, so 10,000
    # random triples would all miss them with probability about 0.93.
    d1024 = make_dihedral(1024)
    assert 3 not in generating_set(d1024.table, d1024.orders)
    row = list(d1024.table[3])
    row[5], row[600] = row[600], row[5]
    table = with_row(d1024.table, 3, row)
    n = d1024.order
    first = next((a, b, c) for a in range(n) for b in range(n) for c in range(n)
                 if table[table[a][b]][c] != table[a][table[b][c]])
    assert first == (1, 2, 5)
    with pytest.raises(InternalError, match=re.escape(f"associativity fails at {first}") + "$"):
        broken(d1024, table=table)


def test_light_test_runs_on_every_generator():
    # Z2^3 with entries 2 and 5 of row 6 and entries 3 and 4 of row 7 swapped:
    # (x1)y = x(1y) still holds for all x and y, so only the later generators
    # 2 and 4 expose the table.
    z2_3 = from_descriptor(parse_group_spec("Z2xZ2xZ2"))
    assert generating_set(z2_3.table, z2_3.orders) == [1, 2, 4]
    table = with_row(z2_3.table, 6, (6, 7, 3, 5, 2, 4, 0, 1))
    table = with_row(table, 7, (7, 6, 5, 3, 4, 2, 1, 0))
    assert all(table[table[x][1]][y] == table[x][table[1][y]] for x in range(8) for y in range(8))
    with pytest.raises(InternalError, match=re.escape("associativity fails at (1, 6, 2)") + "$"):
        broken(z2_3, table=table)


def test_only_generator_commutation_refuses_this_table():
    # An order-6 table with the identity, inverse and Lagrange laws whose every
    # row off the generators 1 and 4 is its tree parent's row read through a
    # generator row; but 1(2 * 4) != (1 * 2)4, so commutation refuses it.
    table = ((0, 1, 2, 3, 4, 5), (1, 2, 0, 4, 3, 5), (2, 0, 1, 3, 4, 5),
             (3, 2, 4, 0, 5, 1), (4, 1, 3, 2, 5, 0), (5, 1, 2, 3, 0, 4))
    orders, inverses = power_walk(table)
    columns, edges = closure_tree(table, orders)
    assert list(columns) == [1, 4]
    assert all(table[y] == tuple(table[x][z] for z in table[a]) for x, a, y in edges)
    z6 = make_cyclic(6)
    with pytest.raises(InternalError, match=re.escape("associativity fails at (1, 2, 3)") + "$"):
        broken(z6, table=table, orders=orders, inverses=inverses)


class CountingTable(tuple):
    """A Cayley table that counts the rows read from it by index."""

    reads = 0

    def __getitem__(self, x):
        self.reads += 1
        return super().__getitem__(x)


@pytest.mark.parametrize("spec", ["x".join(["Z2"] * 9), "D1024"])
def test_validation_reads_a_bounded_number_of_rows_per_element(spec):
    # Three rows per element for the identity, inverse and Lagrange laws, two
    # per closure-tree edge (one edge per element), and a few per generator
    # and generator pair. Light's test read n more rows for each of the k
    # generators: 12n for Z2^9, where 5n + k^2 + 2k stays under 6n.
    group = group_from_text(spec)
    n, k = group.order, len(generating_set(group.table, group.orders))
    table = CountingTable(group.table)
    validate_table(TableGroup.of(group)._replace(table=table))
    assert table.reads <= 5 * n + k * k + 2 * k < 6 * n


@pytest.mark.parametrize("column", [1, 3])  # the generator's column, and another
@pytest.mark.parametrize("entry", [6, -1, 4, None])  # out of range, negative, repeated, no int
def test_a_bad_entry_in_a_non_generator_row_is_refused(entry, column):
    z6 = make_cyclic(6)
    assert generating_set(z6.table, z6.orders) == [1]
    row = list(z6.table[2])  # (2, 3, 4, 5, 0, 1): columns 0 and 4 hold the laws
    row[column] = entry
    table = with_row(z6.table, 2, row)
    with pytest.raises(InternalError):
        broken(z6, table=table)
    with pytest.raises(InternalError):
        validated_group(table, z6.descriptor)


@pytest.mark.parametrize("spec, count", [
    ("Z2", 1), ("Z12", 1), ("Z729", 1), ("Z1024", 1),
    ("D6", 2), ("D1024", 2), ("Q8", 2), ("Q1024", 2), ("perm:(1 2 3 4 5 6);(1 2)", 2),
    ("x".join(["Z2"] * 9), 9),
])
def test_greedy_generating_set_sizes(spec, count):
    group = group_from_text(spec)
    assert len(generating_set(group.table, group.orders)) == count


# the specs of the benchmark's pinned-large workload
PINNED_LARGE = ("D512", "D1024", "Q512", "Q1024", "Z729", "x".join(["Z2"] * 9),
                "x".join(["Z3"] * 5), "perm:(1 2 3 4 5 6);(1 2)")


def test_greedy_generating_set_needs_at_most_log2_n_generators():
    groups_checked = builtin_corpus(48) + [(spec, group_from_text(spec)) for spec in PINNED_LARGE]
    for spec, group in groups_checked:
        assert len(generating_set(group.table, group.orders)) <= group.order.bit_length() - 1, spec


def test_every_built_table_passes_the_reference_validator():
    for spec, group in builtin_corpus(100) + [(s, group_from_text(s)) for s in PINNED_LARGE]:
        validate_table(group)


def test_walked_orders_inverses_and_cyclic_subgroups_match_the_table():
    for spec, group in builtin_corpus(100) + [(s, group_from_text(s)) for s in PINNED_LARGE]:
        orders, inverses = power_walk(group.table)
        assert (group.orders, group.inverses) == (tuple(orders), tuple(inverses)), spec
        assert tuple(group._cyclic_subgroups) == cyclic_subgroups_of(group.table), spec
        assert Graph(group._power_graph.adj) == group._power_graph, spec  # the full row check
        assert all(group.mul(a, b) == group.table[a][b]
                   for a in range(min(group.order, 16)) for b in range(group.order)), spec


FAMILY_ATOMS = ([("cyclic", n) for n in range(1, 401)] + [("dihedral", m) for m in range(6, 401, 2)]
                + [("quaternion", m) for m in range(8, 401, 4)]
                + [(family, 1024) for family in ("cyclic", "dihedral", "quaternion")])


def test_family_poset_read_off_the_divisors_matches_the_walk_and_the_table():
    for family, order in FAMILY_ATOMS:
        group = from_descriptor(GroupDescriptor.atom(family, order))
        assert group._in_constructor_layout, (family, order)
        walked = groups._power_walks(group._tree, group.inverses)
        assert group._cyclic_subgroups == walked, (family, order)
        assert tuple(walked) == cyclic_subgroups_of(group.table), (family, order)
        assert group._poset is group._cyclic_subgroups


@pytest.mark.parametrize("images", [
    [permutation_from_cycles([tuple(range(1, 6))]), permutation_from_cycles([(1, 2)])],
    [permutation_from_cycles([tuple(range(1, 7))]), permutation_from_cycles([(1, 2)])],
    [permutation_from_cycles([tuple(range(1, 8))]), permutation_from_cycles([(1, 2)])],
    A5_IMAGES,
    [permutation_from_cycles([tuple(range(1, 301))])],
    [],
], ids=["S5", "S6", "S7", "A5", "Z300-on-300-points", "none"])
def test_permutation_closure_rows_match_the_tuple_reference(images):
    padded = GroupDescriptor.permutation(images).params  # one domain, as the builder gets them
    assert groups._permutation_generators(padded) == permutation_rows(padded)


def test_solving_never_builds_the_table(monkeypatch, capsys):
    def refuse(generators):
        raise AssertionError("an n^2 Cayley table was built")

    monkeypatch.setattr(groups, "_table", refuse)
    for spec, group in builtin_corpus(48) + [(s, group_from_text(s)) for s in PINNED_LARGE]:
        assert lambda_exact(group, verify=True).exact, spec
    assert cli.main(["enumerate", "--max-order", "20"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 43  # a header and 42 groups
    assert cli.main(["invariants", "D1024", "--json"]) == 0
    assert cli.main(["graph", "Q16", "--format", "csv"]) == 0


Z6_STEP = (1, 2, 3, 4, 5, 0)  # the row of Z6's generator 1


def build_z6(*generators):
    return groups._build(generators, GroupDescriptor.atom("cyclic", 6))


@pytest.mark.parametrize("row", [
    (1, 2, 3, 4, 5, 6),  # out of range
    (1, 2, 3, 4, 5, -1),  # negative
    (1, 2, 3, 4, 5, 1),  # repeated
    (1, 2, 3, 4, 5, None),  # no int
    (1, 2, 3, 4, 5, 0.0),  # no int, though equal to one
    (True, 2, 3, 4, 5, 0),  # no int, though equal to one
    (1, 2, 3, 4, 5),  # too short
], ids=["out-of-range", "negative", "repeated", "none", "float", "bool", "short"])
def test_builder_refuses_a_generator_row_that_is_not_a_permutation(row):
    with pytest.raises(InternalError,
                       match=re.escape("generator row 1 is not a permutation of range(6)") + "$"):
        build_z6(Z6_STEP, row)


def test_builder_refuses_generators_that_reach_too_few_elements():
    with pytest.raises(InternalError, match="^the generators reach 3 of 6 elements$"):
        build_z6((2, 3, 4, 5, 0, 1))  # element 2 generates {0, 2, 4}


def test_builder_refuses_a_generator_row_that_is_not_its_table_row():
    # Entry 0 names the identity, whose row is range(6), not this swap.
    with pytest.raises(InternalError, match="^generator row 1 is not row 0 of the table it builds$"):
        build_z6(Z6_STEP, (0, 2, 1, 3, 4, 5))


def test_builder_refuses_generators_that_do_not_commute():
    # Two permutations that reach all six elements, each the row at its own
    # index of the table they span; but their left and right multiplications
    # do not commute, so that table is no group's.
    generators = [(1, 2, 0, 4, 3, 5), (4, 1, 3, 2, 5, 0)]
    table = closure_table(generators)
    assert None not in table and all(table[g[0]] == list(g) for g in generators)
    with pytest.raises(InternalError, match=r"^associativity fails at \(\d+, \d+, \d+\)$") as info:
        build_z6(*generators)
    a, z, b = map(int, re.findall(r"\d+", str(info.value)))
    assert table[a][table[z][b]] != table[table[a][z]][b]


def test_builder_refuses_a_transitive_action_that_is_not_regular():
    # D8 on a square's corners: a rotation and the reflection through corners
    # 1 and 3 reach all four corners, but they generate all 8 symmetries, so
    # the reflection through corners 0 and 2 fixes 0 and the action is not
    # regular: the rows name no group on four points.
    generators = [(1, 2, 3, 0), (2, 1, 0, 3)]
    table = closure_table(generators)
    assert None not in table and all(table[g[0]] == list(g) for g in generators)
    with pytest.raises(InternalError, match=re.escape("associativity fails at (1, 1, 1)") + "$"):
        groups._build(generators, GroupDescriptor.atom("cyclic", 4))
    assert table[1][table[1][1]] != table[table[1][1]][1]


def test_a_table_that_needs_too_many_generators_is_refused():
    # The laws of an order-4 group with three involutions hold, but 1 and 2
    # reach only {0, 1, 2}: a third generator would be needed, and every group
    # of order 4 is generated by two of its elements.
    klein = from_descriptor(parse_group_spec("Z2xZ2"))
    assert klein.orders == (1, 2, 2, 2) and klein.inverses == (0, 1, 2, 3)
    table = ((0, 1, 2, 3), (1, 0, 2, 3), (2, 1, 0, 3), (3, 2, 1, 0))
    with pytest.raises(InternalError, match="^Cayley table needs more than 2 generators, "
                                            "which no group of order 4 does$"):
        broken(klein, table=table)


def test_one_element_table_passes_validation():
    assert make_cyclic(1).table == ((0,),)
    assert from_descriptor(parse_group_spec("Z1xZ1")).table == ((0,),)
    with pytest.raises(InternalError, match="identity law fails at element 0"):
        broken(make_cyclic(1), table=((1,),))


def test_permutation_from_cycles_validation():
    assert permutation_from_cycles([(1, 2, 3)]) == (2, 3, 1)
    with pytest.raises(ValueError):
        permutation_from_cycles([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        permutation_from_cycles([(0, 1)])
