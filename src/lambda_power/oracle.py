"""Closed-form span predictions and classification checks for group families.

Family recognition is structural (orders and cyclic subgroups), never trusted
from the descriptor alone, so permutation-generated groups classify too.
Predictions serve as ground truth against the exact solvers; when several
rules match the same group their values must agree, and the first match in
a fixed order is reported.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapacityExceeded, InternalError
from .groups import (
    FiniteGroup,
    is_P_group,
    is_prime,
    maximal_cyclic_subgroups,
)
from .invariants import _hamilton_path_on
from .powergraph import build_power_graph

__all__ = [
    "EqualityCheck",
    "Prediction",
    "UpperCheck",
    "check_lower_equality",
    "check_upper_classification",
    "classify_alpha2",
    "decomposition_conditions",
    "dihedral_params",
    "euler_phi",
    "factorize",
    "is_cyclic",
    "is_cyclic_prime_power",
    "predict_lambda",
    "quaternion_params",
    "two_prime_cyclic_params",
]


def factorize(m: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: exponent}."""
    if m < 1:
        raise ValueError("can only factorize positive integers")
    factors: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def euler_phi(m: int) -> int:
    """Count of integers in [1, m] coprime to m."""
    result = m
    for p in factorize(m):
        result -= result // p
    return result


def is_cyclic(g: FiniteGroup) -> bool:
    return g._largest_order == g.order


def is_cyclic_prime_power(g: FiniteGroup) -> bool:
    """Cyclic of order p^k; includes the trivial group (complete power graph)."""
    return is_cyclic(g) and (g.order == 1 or len(factorize(g.order)) == 1)


def two_prime_cyclic_params(g: FiniteGroup) -> tuple[int, int, int] | None:
    """(p, q, n) with the group cyclic of order p * q**n, p and q distinct primes."""
    if not is_cyclic(g):
        return None
    factors = factorize(g.order)
    if len(factors) != 2:
        return None
    (a, ea), (b, eb) = sorted(factors.items())
    if ea == 1:
        return (a, b, eb)
    if eb == 1:
        return (b, a, ea)
    return None


def _index_two_cyclic(g: FiniteGroup, outside_order: int) -> bool:
    """Whether the first element of order |G|/2 has only ``outside_order`` outside its span."""
    n = g.order
    rotation = next((x for x in range(n) if g.orders[x] == n // 2), None)
    if rotation is None:
        return False
    number, masks, *_ = g._poset
    inside = format(masks[number[rotation]], f"0{n}b")[::-1]  # character x is bit x
    return {o for o, bit in zip(g.orders, inside) if bit == "0"} <= {outside_order}


def dihedral_params(g: FiniteGroup) -> int | None:
    """k when the group is dihedral of order 2k with k >= 3, else None."""
    n = g.order
    return n // 2 if n >= 6 and n % 2 == 0 and _index_two_cyclic(g, 2) else None


def quaternion_params(g: FiniteGroup) -> int | None:
    """k when the group is generalized quaternion of order 4k, k >= 2, else None."""
    n = g.order
    return n // 4 if n >= 8 and n % 4 == 0 and _index_two_cyclic(g, 4) else None


def decomposition_conditions(g: FiniteGroup) -> tuple[bool, bool]:
    """The two conditions under which the maximal cyclic decomposition pins the span.

    First: distinct maximal cyclic subgroups meet only in the identity.
    Second: n_1 + t - 2 <= n_2 + ... + n_t over the subgroup sizes, descending.
    """
    decomposition = maximal_cyclic_subgroups(g)
    sizes = decomposition.sizes
    eq_intersections = decomposition.pairwise_trivial
    eq_sizes = len(sizes) >= 2 and sizes[0] + len(sizes) - 2 <= sum(sizes[1:])
    return eq_intersections, eq_sizes


class Prediction(NamedTuple):
    """Closed-form span prediction; value is None when no rule matched."""

    value: int | None
    source: str | None
    applicability: str


def _is_power_of_two(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


def two_prime_cyclic_span(p: int, q: int, n: int) -> int:
    """Exact span for the cyclic group of order p * q**n, p and q distinct primes."""
    if p < q:
        return 2 * q ** (n - 1) * (p * q - p + 1) - 2
    return 2 * q ** n * (p - 1)


def predict_lambda(g: FiniteGroup) -> Prediction:
    """First matching closed-form rule, with an agreement assertion across rules."""
    n = g.order
    matches: list[tuple[str, int, str]] = []
    if is_cyclic_prime_power(g):
        matches.append(("complete-graph", 2 * n - 2,
                        "cyclic of prime power order (complete power graph)"))
    tp = two_prime_cyclic_params(g)
    if tp is not None:
        p, q, e = tp
        matches.append(("two-prime-cyclic", two_prime_cyclic_span(p, q, e),
                        f"cyclic of order {p}*{q}^{e}"))
    dk = dihedral_params(g)
    if dk is not None:
        matches.append(("dihedral", 2 * dk, f"dihedral of order {2 * dk}"))
    qk = quaternion_params(g)
    if qk is not None:
        value = 4 * qk + 1 if _is_power_of_two(qk) else 4 * qk
        matches.append(("quaternion", value, f"generalized quaternion of order {4 * qk}"))
    if n >= 2 and is_P_group(g):
        value = 2 * (n - 1) if is_prime(n) else n
        matches.append(("prime-order-elements", value,
                        "every non-identity element has prime order"))
    if not is_cyclic(g):
        eq_intersections, eq_sizes = decomposition_conditions(g)
        if eq_intersections and eq_sizes:
            matches.append(("cyclic-decomposition", n,
                            "maximal cyclic subgroups pairwise trivial with balanced sizes"))
    if not matches:
        return Prediction(None, None, "no closed-form rule matched")
    values = {value for _, value, _ in matches}
    if len(values) != 1:
        raise InternalError(f"closed-form rules disagree for {g.descriptor.name}: {matches}")
    source, value, applicability = matches[0]
    return Prediction(value, source, applicability)


def classify_alpha2(g: FiniteGroup) -> bool:
    """True iff the group is cyclic of order p * q**n for distinct primes p, q.

    These are exactly the groups whose power graph has independence number 2.
    """
    return two_prime_cyclic_params(g) is not None


class EqualityCheck(NamedTuple):
    """Consistency verdict for the span-equals-order characterization.

    ok is None when the Hamilton search was inconclusive. When the span
    equals the group order, ``witness`` holds a Hamilton path of the
    complement of the identity-deleted power graph, in element indices.
    """

    ok: bool | None
    span_equals_order: bool
    witness: tuple[int, ...] | None
    note: str


def check_lower_equality(g: FiniteGroup, lam: int) -> EqualityCheck:
    """Check: span == |G| exactly when the punctured complement is traceable."""
    graph = build_power_graph(g).complement
    # The identity (vertex 0) dominates, so it is isolated in the complement.
    punctured = graph.full_mask & ~1
    try:
        path = _hamilton_path_on(graph.adj, punctured, graph._ordering)
    except CapacityExceeded as exc:
        return EqualityCheck(None, lam == g.order, None,
                             f"hamilton search inconclusive: {exc}")
    if path is None:
        return EqualityCheck(lam != g.order, lam == g.order, None,
                             "punctured complement has no hamilton path")
    return EqualityCheck(lam == g.order, lam == g.order, path,
                         "punctured complement is traceable")


class UpperCheck(NamedTuple):
    """Consistency verdict for the near-complete upper bound classification."""

    ok: bool
    equality: bool
    expected_equality: bool
    note: str


def _is_klein_four(g: FiniteGroup) -> bool:
    return g.order == 4 and all(o == 2 for o in g.orders[1:])


def _is_cyclic_twice_odd_prime(g: FiniteGroup) -> bool:
    if not is_cyclic(g) or g.order % 2 != 0:
        return False
    half = g.order // 2
    return half % 2 == 1 and is_prime(half)


def check_upper_classification(g: FiniteGroup, lam: int) -> UpperCheck:
    """Check span <= 2n - 4 plus the exact equality classification.

    Only meaningful for groups that are not cyclic of prime power order
    (those have complete power graphs); such inputs are rejected.
    """
    if is_cyclic_prime_power(g):
        raise ValueError("upper classification does not apply to complete power graphs")
    n = g.order
    expected = _is_klein_four(g) or _is_cyclic_twice_odd_prime(g)
    equality = lam == 2 * n - 4
    ok = lam <= 2 * n - 4 and equality == expected
    note = "equality expected" if expected else "strict inequality expected"
    return UpperCheck(ok, equality, expected, note)
