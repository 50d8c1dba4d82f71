"""Closed-form predictions, totient, and the classification checks."""

import pytest

from oracles import delete_vertex, independence_number

from lambda_power import (
    build_power_graph,
    check_lower_equality,
    check_upper_classification,
    classify_alpha2,
    complement,
    direct_product,
    euler_phi,
    from_permutations,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
    permutation_from_cycles,
    predict_lambda,
)
from lambda_power.oracle import (
    decomposition_conditions,
    dihedral_params,
    is_cyclic,
    is_cyclic_prime_power,
    quaternion_params,
    two_prime_cyclic_params,
)


def a5():
    return from_permutations([permutation_from_cycles([(1, 2, 3, 4, 5)]),
                              permutation_from_cycles([(1, 2, 3)])])


def test_euler_phi_small():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert [euler_phi(k) for k in (2, 3, 4, 9, 10)] == [1, 2, 2, 6, 4]


def test_euler_phi_prime_powers():
    for q in (2, 3, 5):
        for i in range(1, 5):
            assert euler_phi(q ** i) == q ** i - q ** (i - 1)


def test_is_cyclic_structural():
    assert is_cyclic(make_cyclic(12))
    assert is_cyclic(direct_product(make_cyclic(2), make_cyclic(3)))
    assert not is_cyclic(make_dihedral(6))
    assert not is_cyclic(direct_product(make_cyclic(2), make_cyclic(2)))


def test_cyclicity_reads_the_largest_order_cached_once():
    g, h = make_cyclic(12), make_cyclic(8)
    assert is_cyclic(g) and g.__dict__["_largest_order"] == 12
    g.__dict__["_largest_order"] = h.__dict__["_largest_order"] = 6  # what the tests read
    assert not is_cyclic(g) and two_prime_cyclic_params(g) is None
    assert not is_cyclic_prime_power(h)


def test_is_cyclic_prime_power():
    assert is_cyclic_prime_power(make_cyclic(8))
    assert is_cyclic_prime_power(make_cyclic(1))
    assert not is_cyclic_prime_power(make_cyclic(6))
    assert not is_cyclic_prime_power(make_dihedral(8))


def test_two_prime_cyclic_params():
    assert two_prime_cyclic_params(make_cyclic(6)) in ((2, 3, 1), (3, 2, 1))
    assert two_prime_cyclic_params(make_cyclic(12)) == (3, 2, 2)
    assert two_prime_cyclic_params(make_cyclic(18)) == (2, 3, 2)
    assert two_prime_cyclic_params(make_cyclic(30)) is None
    assert two_prime_cyclic_params(make_cyclic(36)) is None
    assert two_prime_cyclic_params(make_cyclic(8)) is None


def test_family_recognition_is_structural():
    # dihedral and quaternion built from permutations still classify
    s3 = from_permutations([permutation_from_cycles([(1, 2, 3)]),
                            permutation_from_cycles([(1, 2)])])
    assert dihedral_params(s3) == 3
    assert quaternion_params(make_generalized_quaternion(20)) == 5
    assert dihedral_params(make_cyclic(6)) is None
    assert quaternion_params(direct_product(make_cyclic(2), make_cyclic(4))) is None
    assert quaternion_params(make_cyclic(8)) is None


def test_predict_prime_power():
    prediction = predict_lambda(make_cyclic(9))
    assert prediction.value == 16
    assert prediction.source == "complete-graph"


def test_predict_two_prime():
    prediction = predict_lambda(make_cyclic(18))
    assert prediction.value == 28
    assert prediction.source == "two-prime-cyclic"
    assert predict_lambda(make_cyclic(20)).value == 32


def test_predict_quaternion_power_of_two():
    prediction = predict_lambda(make_generalized_quaternion(16))
    assert prediction.value == 17
    assert prediction.source == "quaternion"
    assert predict_lambda(make_generalized_quaternion(24)).value == 24


def test_predict_dihedral():
    prediction = predict_lambda(make_dihedral(14))
    assert prediction.value == 14
    assert prediction.source == "dihedral"


def test_predict_p_group_and_a5():
    klein = direct_product(make_cyclic(2), make_cyclic(2))
    prediction = predict_lambda(klein)
    assert prediction.value == 4
    assert prediction.source == "prime-order-elements"
    assert predict_lambda(a5()).value == 60


def test_predict_none_for_unmatched():
    prediction = predict_lambda(make_cyclic(30))
    assert prediction.value is None
    assert prediction.source is None


def test_predict_rules_agree_when_overlapping():
    # dihedral groups of order 2p are also P-groups; values must agree
    for m in (6, 10, 14):
        prediction = predict_lambda(make_dihedral(m))
        assert prediction.value == m
        assert prediction.source == "dihedral"


def test_decomposition_conditions_a5():
    trivially_meeting, balanced = decomposition_conditions(a5())
    assert trivially_meeting and balanced


def test_decomposition_conditions_q8():
    trivially_meeting, _ = decomposition_conditions(make_generalized_quaternion(8))
    assert not trivially_meeting


def test_classify_alpha2():
    assert classify_alpha2(make_cyclic(6))
    assert classify_alpha2(make_cyclic(12))
    assert not classify_alpha2(make_cyclic(30))
    assert not classify_alpha2(direct_product(make_cyclic(2), make_cyclic(2)))
    assert not classify_alpha2(make_cyclic(8))


def test_classify_alpha2_matches_independence():
    groups = [make_cyclic(n) for n in range(2, 21)]
    groups += [make_dihedral(m) for m in (6, 8, 10)]
    groups += [make_generalized_quaternion(m) for m in (8, 12)]
    for g in groups:
        alpha = independence_number(build_power_graph(g)).value
        assert classify_alpha2(g) == (alpha == 2), g.descriptor.name


def test_check_lower_equality_dihedral():
    result = check_lower_equality(make_dihedral(6), 6)
    assert result.ok is True
    assert result.witness is not None
    graph = build_power_graph(make_dihedral(6))
    reduced, survivors = delete_vertex(graph, 0)
    comp = complement(reduced)
    positions = {old: new for new, old in enumerate(survivors)}
    local = [positions[v] for v in result.witness]
    assert all(comp.adjacent(a, b) for a, b in zip(local, local[1:]))
    assert sorted(result.witness) == list(range(1, 6))


def test_check_lower_equality_q8():
    result = check_lower_equality(make_generalized_quaternion(8), 9)
    assert result.ok is True
    assert result.witness is None


def test_check_lower_equality_complete():
    result = check_lower_equality(make_cyclic(4), 6)
    assert result.ok is True


def test_check_lower_equality_flags_wrong_value():
    assert check_lower_equality(make_dihedral(6), 7).ok is False


def test_check_upper_classification():
    assert check_upper_classification(make_cyclic(6), 8).ok
    assert check_upper_classification(make_cyclic(6), 8).equality
    klein = direct_product(make_cyclic(2), make_cyclic(2))
    assert check_upper_classification(klein, 4).ok
    result = check_upper_classification(make_dihedral(6), 6)
    assert result.ok and not result.equality


def test_check_upper_classification_rejects_complete():
    with pytest.raises(ValueError):
        check_upper_classification(make_cyclic(8), 14)


def test_check_upper_classification_flags_wrong_value():
    assert not check_upper_classification(make_dihedral(6), 8).ok
