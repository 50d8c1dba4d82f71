"""Finite groups as dense Cayley tables with 0-based element indices.

Element 0 is always the identity; every other module in the package talks
about group elements through these indices, which double as graph vertices.
Constructors validate the table they hand out: exhaustively up to order 64,
by seeded random sampling above that. Tables are built a row or a column at
a time from slices and maps, so their rows share int objects. A group builds
once, on first use, one walk per distinct cyclic subgroup, and from those
walks its maximal cyclic subgroups and its power graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

from .errors import CapacityExceeded, InternalError
from .powergraph import Graph, bits

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
    def _cyclic_subgroups(self) -> tuple[list[int], list[int], list[int]]:
        """Each distinct <x> walked once: the number of <x> for every x, each
        subgroup's mask, and the generators of every cyclic subgroup containing
        it (<g> of order o contains exactly the <g^d> with d | o)."""
        table = self.table
        number = [-1] * self.order
        walks, masks, generators = [], [], []
        for x in range(self.order):
            if number[x] >= 0:
                continue
            powers = [x]  # x, x^2, ..., x^o = e
            while powers[-1]:
                powers.append(table[powers[-1]][x])
            o = len(powers)
            mask = 0
            for k, y in enumerate(powers, 1):
                if gcd(k, o) == 1:
                    number[y] = len(walks)
                    mask |= 1 << y
            generators.append(mask)
            masks.append(sum(1 << y for y in powers))
            walks.append(powers)
        above = [0] * len(walks)
        for powers, mask in zip(walks, generators):
            for d in range(1, len(powers) + 1):
                if len(powers) % d == 0:
                    above[number[powers[d - 1]]] |= mask
        return number, masks, above

    @cached_property
    def _power_graph(self) -> Graph:
        """x != y adjacent iff one is a power of the other; built once. Row x
        is <x> plus the generators of every cyclic subgroup containing <x>, less x."""
        number, masks, above = self._cyclic_subgroups
        rows = tuple((masks[i] | above[i]) & ~(1 << x) for x, i in enumerate(number))
        graph = Graph(rows)
        if self.order >= 2 and rows[0] != graph.full_mask ^ 1:
            raise InternalError("identity must be adjacent to every other element")
        return graph

    @cached_property
    def maximal_cyclic_subgroups(self) -> MaximalCyclicDecomposition:
        """All cyclic subgroups maximal under inclusion, largest first; built once.
        They cover the group, so they meet only in e iff sum(size - 1) = n - 1."""
        _, masks, above = self._cyclic_subgroups  # maximal: nothing above lies outside
        maximal = [frozenset(bits(m)) for m, a in zip(masks, above) if not a & ~m]
        maximal.sort(key=lambda s: (-len(s), sorted(s)))
        sizes = tuple(len(s) for s in maximal)
        return MaximalCyclicDecomposition(
            subgroups=tuple(maximal),
            sizes=sizes,
            pairwise_trivial=sum(sizes) - len(sizes) == self.order - 1,
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


def _orders_and_inverses(table: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """One power walk per cyclic subgroup: if x has order o, then x^k has
    order o / gcd(k, o) and inverse x^(o-k)."""
    orders, inverses = [0] * len(table), [0] * len(table)
    for x in range(len(table)):
        if orders[x]:
            continue
        powers = [x]  # x, x^2, ..., x^o = e; a broken table stops at n + 1 terms
        while powers[-1] and len(powers) <= len(table):
            powers.append(table[powers[-1]][x])
        o = len(powers)
        for k, y in enumerate(powers, 1):
            orders[y] = o // gcd(k, o)
            inverses[y] = powers[o - k - 1]
    return tuple(orders), tuple(inverses)


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
    orders, inverses = _orders_and_inverses(table)
    group = FiniteGroup(
        order=len(table),
        table=table,
        orders=orders,
        inverses=inverses,
        descriptor=descriptor,
    )
    _validate_table(group)
    return group


def _check_capacity(order: int) -> None:
    if order > DEFAULT_MAX_ORDER:
        raise CapacityExceeded(
            f"group order {order} exceeds the configured maximum {DEFAULT_MAX_ORDER}"
        )


def make_cyclic(n: int) -> FiniteGroup:
    """Additive group on {0..n-1}; element k has order n // gcd(n, k)."""
    if n < 1:
        raise ValueError("cyclic group order must be a positive integer")
    _check_capacity(n)
    twice = tuple(range(n)) * 2
    return _finalize(tuple(twice[a:a + n] for a in range(n)), GroupDescriptor.atom("cyclic", n))


def make_dihedral(m: int) -> FiniteGroup:
    """Dihedral group of order m = 2k, k >= 3.

    Index layout: rotations a^i at indices 0..k-1, reflections a^i*b at
    indices k..2k-1. The defining relations are a^k = b^2 = e and bab = a^-1.
    """
    if m < 6 or m % 2 != 0:
        raise ValueError("dihedral order must be an even integer >= 6")
    _check_capacity(m)
    return _finalize(_index_two_table(m // 2, 0), GroupDescriptor.atom("dihedral", m))


def make_generalized_quaternion(m: int) -> FiniteGroup:
    """Generalized quaternion (dicyclic) group of order m = 4k, k >= 2.

    Index layout: x^i at indices 0..2k-1, x^i*y at indices 2k..4k-1. The
    relations are x^k = y^2, x^(2k) = e and y^-1*x*y = x^-1; x^k is the
    unique involution and every element outside <x> has order 4.
    """
    if m < 8 or m % 4 != 0:
        raise ValueError("generalized quaternion order must be a multiple of 4, at least 8")
    _check_capacity(m)
    return _finalize(_index_two_table(m // 2, m // 4), GroupDescriptor.atom("quaternion", m))


def _index_two_table(n: int, shift: int) -> tuple[tuple[int, ...], ...]:
    """x^i at index i and x^i*y at n + i, with x^n = e, y x y^-1 = x^-1 and y^2 = x^shift.

    Rows are slices: x^i * x^j (y) = x^(i+j) (y); reversed, x^i y * x^j (y) = x^(i-j) y (x^shift).
    """
    powers, coset = tuple(range(n)) * 2, tuple(range(n, 2 * n)) * 2
    forward = [powers[i:i + n] + coset[i:i + n] for i in range(n)]
    reflected = [coset[i + n:i:-1] + powers[(i + shift) % n + n:(i + shift) % n:-1]
                 for i in range(n)]
    return tuple(forward + reflected)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; pair (a, b) is encoded as a * |h| + b."""
    order = g.order * h.order
    _check_capacity(order)
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
    right: list[list[int]] = [[] for _ in gens]  # right[k][x]: element x times gens[k]
    found_by = []  # (parent, k) of element 1, 2, ...: element = parent * gens[k]
    for pos, current in enumerate(elements):  # grows while it is walked
        for k, gen in enumerate(gens):
            composed = tuple(map(current.__getitem__, gen))
            if composed not in index:
                if len(elements) >= DEFAULT_MAX_ORDER:
                    raise CapacityExceeded(
                        f"permutation closure exceeds the configured maximum {DEFAULT_MAX_ORDER}"
                    )
                index[composed] = len(elements)
                elements.append(composed)
                found_by.append((pos, k))
            right[k].append(index[composed])

    # a * (p * g) = (a * p) * g: column j is column parent(j) times its generator.
    columns = [tuple(range(len(elements)))]
    for parent, k in found_by:
        columns.append(tuple(map(right[k].__getitem__, columns[parent])))
    return _finalize(tuple(zip(*columns)), descriptor)


def from_descriptor(descriptor: GroupDescriptor) -> FiniteGroup:
    """Build the group a descriptor names; its descriptor equals the input."""
    family, params = descriptor.family, descriptor.params
    if family == "product":
        return direct_product(*map(from_descriptor, params))
    if family == "permutation":
        return from_permutations(params, alias=descriptor.name)
    make = {"cyclic": make_cyclic, "dihedral": make_dihedral,
            "quaternion": make_generalized_quaternion}[family]
    return make(*params)


def element_order(g: FiniteGroup, x: int) -> int:
    """Least k >= 1 with x**k equal to the identity."""
    if not 0 <= x < g.order:
        raise ValueError(f"element index {x} out of range for order-{g.order} group")
    return g.orders[x]


def cyclic_subgroup(g: FiniteGroup, x: int) -> frozenset[int]:
    """The element set of <x>; its size equals the order of x."""
    if not 0 <= x < g.order:
        raise ValueError(f"element index {x} out of range for order-{g.order} group")
    number, masks, _ = g._cyclic_subgroups
    return frozenset(bits(masks[number[x]]))


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
