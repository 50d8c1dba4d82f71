"""Group constructors, element algebra and maximal cyclic decompositions."""

import pytest

from oracles import composed_permutation_table

from lambda_power import (
    CapacityExceeded,
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
from lambda_power.groups import GroupDescriptor, _finalize

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
        _finalize(((0, 1), (1, 1)), GroupDescriptor.atom("cyclic", 2))


def test_permutation_from_cycles_validation():
    assert permutation_from_cycles([(1, 2, 3)]) == (2, 3, 1)
    with pytest.raises(ValueError):
        permutation_from_cycles([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        permutation_from_cycles([(0, 1)])
