"""Finite groups as dense Cayley tables with 0-based element indices.

Element 0 is always the identity; every other module in the package talks
about group elements through these indices, which double as graph vertices.
Constructors validate the table they hand out: exhaustively up to order 64,
by seeded random sampling above that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CapacityExceeded, InternalError

DEFAULT_MAX_ORDER = 10000

_EXHAUSTIVE_LIMIT = 64
_SAMPLE_TRIPLES = 10000
_SAMPLE_SEED = 20240

__all__ = [
    "DEFAULT_MAX_ORDER",
    "FiniteGroup",
    "GroupDescriptor",
    "MaximalCyclicDecomposition",
    "cyclic_subgroup",
    "direct_product",
    "element_order",
    "from_descriptor",
    "from_permutations",
    "is_P_group",
    "is_prime",
    "make_cyclic",
    "make_dihedral",
    "make_generalized_quaternion",
    "maximal_cyclic_subgroups",
    "permutation_from_cycles",
]


@dataclass(frozen=True)
class GroupDescriptor:
    """Family tag plus parameters plus a canonical spec string."""

    family: str  # cyclic | dihedral | quaternion | product | permutation
    params: tuple
    name: str

    def __str__(self) -> str:
        return self.name

    @classmethod
    def atom(cls, family: str, order: int) -> GroupDescriptor:
        """A cyclic, dihedral or quaternion family member of the given order."""
        return cls(family, (order,), f"{_ATOM_PREFIX[family]}{order}")

    @classmethod
    def product(cls, left: GroupDescriptor, right: GroupDescriptor) -> GroupDescriptor:
        return cls("product", (left, right), f"{left.name}x{right.name}")

    @classmethod
    def permutation(cls, generators: Sequence[Sequence[int]],
                    alias: str | None = None) -> GroupDescriptor:
        """Generators as 1-based images, padded with fixed points to one domain."""
        domain = max((len(p) for p in generators), default=1)
        padded = tuple(tuple(p) + tuple(range(len(p) + 1, domain + 1)) for p in generators)
        for images in padded:
            if sorted(images) != list(range(1, domain + 1)):
                raise ValueError(f"not a permutation of 1..{domain}: {images}")
        return cls("permutation", padded, alias or canonical_permutation_name(padded))


_ATOM_PREFIX = {"cyclic": "Z", "dihedral": "D", "quaternion": "Q"}


@dataclass(frozen=True)
class FiniteGroup:
    """Immutable Cayley-table group.

    ``table[a][b]`` is the index of the product a*b, ``orders[x]`` the
    multiplicative order of x and ``inverses[x]`` its inverse. The identity
    is element 0 by construction.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    orders: tuple[int, ...]
    inverses: tuple[int, ...]
    descriptor: GroupDescriptor

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def maximal_cyclic_subgroups(self) -> MaximalCyclicDecomposition:
        """All cyclic subgroups maximal under inclusion, largest first; built once."""
        subgroups = {cyclic_subgroup(self, x) for x in range(self.order)}
        maximal = [s for s in subgroups if not any(s < t for t in subgroups)]
        maximal.sort(key=lambda s: (-len(s), sorted(s)))
        pairwise = all(
            len(maximal[i] & maximal[j]) == 1
            for i in range(len(maximal))
            for j in range(i + 1, len(maximal))
        )
        return MaximalCyclicDecomposition(
            subgroups=tuple(maximal),
            sizes=tuple(len(s) for s in maximal),
            pairwise_trivial=pairwise,
        )


@dataclass(frozen=True)
class MaximalCyclicDecomposition:
    """The maximal cyclic subgroups of a group, largest first.

    ``pairwise_trivial`` records whether every two of them meet only in the
    identity.
    """

    subgroups: tuple[frozenset[int], ...]
    sizes: tuple[int, ...]
    pairwise_trivial: bool


def _element_orders(table: Sequence[Sequence[int]]) -> tuple[int, ...]:
    orders = []
    for x in range(len(table)):
        k, y = 1, x
        while y != 0:
            y = table[y][x]
            k += 1
        orders.append(k)
    return tuple(orders)


def _element_inverses(table, orders) -> tuple[int, ...]:
    inverses = []
    for x in range(len(table)):
        y = 0
        for _ in range(orders[x] - 1):
            y = table[y][x]
        # y = x**(order-1), but we want x**-1 = x**(order-1); same thing
        inverses.append(y if orders[x] > 1 else x)
    return tuple(inverses)


def _validate_table(group: FiniteGroup) -> None:
    n = group.order
    table = group.table
    everyone = frozenset(range(n))
    for x in range(n):
        if table[0][x] != x or table[x][0] != x:
            raise InternalError(f"identity law fails at element {x}")
        if table[x][group.inverses[x]] != 0:
            raise InternalError(f"inverse law fails at element {x}")
        if group.orders[x] < 1 or n % group.orders[x] != 0:
            raise InternalError(f"order of element {x} violates Lagrange")
        if frozenset(table[x]) != everyone:
            raise InternalError(f"row {x} of the Cayley table is not a permutation")
    if group.orders[0] != 1:
        raise InternalError("identity must have order 1")
    if n <= _EXHAUSTIVE_LIMIT:
        triples: Iterable[tuple[int, int, int]] = (
            (a, b, c) for a in range(n) for b in range(n) for c in range(n)
        )
    else:
        rng = random.Random(_SAMPLE_SEED)
        triples = (
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(_SAMPLE_TRIPLES)
        )
    for a, b, c in triples:
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise InternalError(f"associativity fails at ({a}, {b}, {c})")


def _finalize(table: tuple[tuple[int, ...], ...], descriptor: GroupDescriptor) -> FiniteGroup:
    orders = _element_orders(table)
    group = FiniteGroup(
        order=len(table),
        table=table,
        orders=orders,
        inverses=_element_inverses(table, orders),
        descriptor=descriptor,
    )
    _validate_table(group)
    return group


def _check_capacity(order: int, max_order: int) -> None:
    if order > max_order:
        raise CapacityExceeded(
            f"group order {order} exceeds the configured maximum {max_order}"
        )


def make_cyclic(n: int, *, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Additive group on {0..n-1}; element k has order n // gcd(n, k)."""
    if n < 1:
        raise ValueError("cyclic group order must be a positive integer")
    _check_capacity(n, max_order)
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return _finalize(table, GroupDescriptor.atom("cyclic", n))


def make_dihedral(m: int, *, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Dihedral group of order m = 2k, k >= 3.

    Index layout: rotations a^i at indices 0..k-1, reflections a^i*b at
    indices k..2k-1. The defining relations are a^k = b^2 = e and bab = a^-1.
    """
    if m < 6 or m % 2 != 0:
        raise ValueError("dihedral order must be an even integer >= 6")
    _check_capacity(m, max_order)
    k = m // 2

    def mul(u: int, v: int) -> int:
        ur, ui = divmod(u, k)  # ur = 1 for reflections
        vr, vi = divmod(v, k)
        if ur == 0 and vr == 0:
            return (ui + vi) % k
        if ur == 0:
            return k + (ui + vi) % k
        if vr == 0:
            return k + (ui - vi) % k
        return (ui - vi) % k

    table = tuple(tuple(mul(u, v) for v in range(m)) for u in range(m))
    return _finalize(table, GroupDescriptor.atom("dihedral", m))


def make_generalized_quaternion(m: int, *, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Generalized quaternion (dicyclic) group of order m = 4k, k >= 2.

    Index layout: x^i at indices 0..2k-1, x^i*y at indices 2k..4k-1. The
    relations are x^k = y^2, x^(2k) = e and y^-1*x*y = x^-1; x^k is the
    unique involution and every element outside <x> has order 4.
    """
    if m < 8 or m % 4 != 0:
        raise ValueError("generalized quaternion order must be a multiple of 4, at least 8")
    _check_capacity(m, max_order)
    k = m // 4
    nn = 2 * k  # order of x

    def mul(u: int, v: int) -> int:
        ur, ui = divmod(u, nn)
        vr, vi = divmod(v, nn)
        if ur == 0 and vr == 0:
            return (ui + vi) % nn
        if ur == 0:
            return nn + (ui + vi) % nn
        if vr == 0:
            return nn + (ui - vi) % nn
        return (ui - vi + k) % nn  # (x^a y)(x^b y) = x^(a-b) y^2 = x^(a-b+k)

    table = tuple(tuple(mul(u, v) for v in range(m)) for u in range(m))
    return _finalize(table, GroupDescriptor.atom("quaternion", m))


def direct_product(g: FiniteGroup, h: FiniteGroup, *,
                   max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Componentwise product; pair (a, b) is encoded as a * |h| + b."""
    order = g.order * h.order
    _check_capacity(order, max_order)
    hn = h.order
    table = tuple(
        tuple(g.table[a1][a2] * hn + h.table[b1][b2] for a2 in range(g.order) for b2 in range(hn))
        for a1 in range(g.order) for b1 in range(hn)
    )
    return _finalize(table, GroupDescriptor.product(g.descriptor, h.descriptor))


def permutation_from_cycles(cycles: Sequence[Sequence[int]],
                            domain: int | None = None) -> tuple[int, ...]:
    """Build 1-based permutation images from disjoint cycles on {1..d}."""
    size = domain or max((max(c) for c in cycles if c), default=1)
    images = list(range(1, size + 1))
    seen: set[int] = set()
    for cycle in cycles:
        for value in cycle:
            if not 1 <= value <= size:
                raise ValueError(f"cycle entry {value} outside domain 1..{size}")
            if value in seen:
                raise ValueError(f"cycle entry {value} repeated within one permutation")
            seen.add(value)
        for i, value in enumerate(cycle):
            images[value - 1] = cycle[(i + 1) % len(cycle)]
    return tuple(images)


def _cycles_of_images(images: Sequence[int]) -> list[tuple[int, ...]]:
    """Disjoint cycles (fixed points dropped), each starting at its minimum."""
    seen: set[int] = set()
    cycles = []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        cur = images[start - 1]
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            cur = images[cur - 1]
        if len(cycle) > 1:
            cycles.append(tuple(cycle))
    return cycles


def canonical_permutation_name(generators: Sequence[Sequence[int]]) -> str:
    """Spec string for a permutation-generated group; "Z1" if nothing generates."""
    parts = []
    for images in generators:
        cycles = _cycles_of_images(images)
        if cycles:
            parts.append("".join("(" + " ".join(map(str, c)) + ")" for c in cycles))
    if not parts:
        return "Z1"
    return "perm:" + ";".join(parts)


def from_permutations(generators: Sequence[Sequence[int]], *,
                      max_order: int = DEFAULT_MAX_ORDER,
                      alias: str | None = None) -> FiniteGroup:
    """Group generated by permutations given as 1-based image sequences.

    Elements are enumerated breadth-first from the identity, multiplying by
    the generators in the order given, so indexing is deterministic.
    """
    descriptor = GroupDescriptor.permutation(generators, alias)
    domain = len(descriptor.params[0]) if descriptor.params else 1
    gens = [tuple(v - 1 for v in images) for images in descriptor.params]  # 0-based

    identity = tuple(range(domain))
    elements = [identity]
    index = {identity: 0}
    pos = 0
    while pos < len(elements):
        current = elements[pos]
        pos += 1
        for gen in gens:
            composed = tuple(current[gen[i]] for i in range(domain))
            if composed not in index:
                if len(elements) >= max_order:
                    raise CapacityExceeded(
                        f"permutation closure exceeds the configured maximum {max_order}"
                    )
                index[composed] = len(elements)
                elements.append(composed)

    table = tuple(
        tuple(index[tuple(a[b[i]] for i in range(domain))] for b in elements)
        for a in elements
    )
    return _finalize(table, descriptor)


def from_descriptor(descriptor: GroupDescriptor, *,
                    max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Build the group a descriptor names; its descriptor equals the input."""
    family, params = descriptor.family, descriptor.params
    if family == "product":
        left, right = (from_descriptor(d, max_order=max_order) for d in params)
        return direct_product(left, right, max_order=max_order)
    if family == "permutation":
        return from_permutations(params, max_order=max_order, alias=descriptor.name)
    make = {"cyclic": make_cyclic, "dihedral": make_dihedral,
            "quaternion": make_generalized_quaternion}[family]
    return make(*params, max_order=max_order)


def element_order(g: FiniteGroup, x: int) -> int:
    """Least k >= 1 with x**k equal to the identity."""
    if not 0 <= x < g.order:
        raise ValueError(f"element index {x} out of range for order-{g.order} group")
    return g.orders[x]


def cyclic_subgroup(g: FiniteGroup, x: int) -> frozenset[int]:
    """The element set of <x>; its size equals the order of x."""
    if not 0 <= x < g.order:
        raise ValueError(f"element index {x} out of range for order-{g.order} group")
    members = {0}
    y = x
    while y != 0:
        members.add(y)
        y = g.table[y][x]
    return frozenset(members)


def maximal_cyclic_subgroups(g: FiniteGroup) -> MaximalCyclicDecomposition:
    """All cyclic subgroups maximal under inclusion, sorted by size descending."""
    return g.maximal_cyclic_subgroups


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def is_P_group(g: FiniteGroup) -> bool:
    """True iff every non-identity element has prime order."""
    return all(is_prime(o) for o in g.orders[1:])
