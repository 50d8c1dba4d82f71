"""Finite groups as dense Cayley tables with 0-based element indices.

Element 0 is always the identity; every other module in the package talks
about group elements through these indices, which double as graph vertices.
Every constructor names its generators, each by its left-multiplication row
in the constructor's index layout: Z_n its element 1, D_2n and Q_4n their
x and y, a permutation group the rows its closure finds for its
permutations, and a product, at any nesting, each atom's rows lifted into
the mixed-radix layout, with no atom table and no partial product built.
One builder, `_build`, walks the identity's closure under right
multiplication by the generators, builds each row once as its parent's row
read through a generator row, and in the same pass proves the table a
group's: n^2 lookups plus n per pair of generators. Rows are read out of
one shared `tuple(range(n))`, so they share its int objects. A group
builds once, on first use, one walk per distinct cyclic subgroup, and from
those walks its maximal cyclic subgroups, its power graph and the poset of
its cyclic subgroups, whose heaviest chain and widest antichain are the
power graph's clique and independence numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd, prod
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import CapacityExceeded, InternalError
from .invariants import WitnessedValue, _checked_witness, _heaviest_chain, _widest_antichain
from .powergraph import Graph, bits

DEFAULT_MAX_ORDER = 10000

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


class _CyclicSubgroups(NamedTuple):
    """The distinct cyclic subgroups of a group, numbered in walk order.

    Element masks have bit x for element x; ``inside`` rows have bit j for
    subgroup j. Containment is transitive, so each ``inside`` row, read as
    the subgroups below, is a transitively closed strict order.
    """

    number: list[int]  # per element x: the number of <x>
    masks: list[int]  # per subgroup: its elements
    generators: list[int]  # per subgroup: its generators
    above: list[int]  # per subgroup: the generators of every cyclic subgroup containing it
    inside: list[int]  # per subgroup: the subgroups strictly inside it


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
    def _cyclic_subgroups(self) -> _CyclicSubgroups:
        """Each distinct <x> walked once; <g> of order o contains exactly the
        <g^d> with d | o, read off the walk at the divisor positions."""
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
        inside = [0] * len(walks)
        for i, (powers, mask) in enumerate(zip(walks, generators)):
            for d in range(1, len(powers) + 1):
                if len(powers) % d == 0:
                    j = number[powers[d - 1]]
                    above[j] |= mask
                    inside[i] |= 1 << j
            inside[i] ^= 1 << i  # d = 1 is <g> itself
        return _CyclicSubgroups(number, masks, generators, above, inside)

    @cached_property
    def _power_graph(self) -> Graph:
        """x != y adjacent iff one is a power of the other; built once. Row x
        is <x> plus the generators of every cyclic subgroup containing <x>, less x."""
        number, masks, _, above, _ = self._cyclic_subgroups
        rows = tuple((masks[i] | above[i]) & ~(1 << x) for x, i in enumerate(number))
        graph = Graph(rows)
        if self.order >= 2 and rows[0] != graph.full_mask ^ 1:
            raise InternalError("identity must be adjacent to every other element")
        return graph

    @cached_property
    def power_graph_clique(self) -> WitnessedValue:
        """A maximum clique of the power graph; computed once. Elements are
        adjacent iff their cyclic subgroups are nested, and the generators of
        one subgroup are pairwise adjacent, so a maximum clique is every
        generator of a chain of cyclic subgroups whose generator counts have
        the greatest sum. Its witness is checked against the graph's rows."""
        sub = self._cyclic_subgroups
        value, chain = _heaviest_chain(list(map(int.bit_count, sub.generators)), sub.inside)
        return _checked_witness(self._power_graph.adj, value,
                                sum(map(sub.generators.__getitem__, chain)), "clique")

    @cached_property
    def power_graph_independent_set(self) -> WitnessedValue:
        """A maximum independent set of the power graph; computed once. It
        holds at most one generator per cyclic subgroup, of subgroups pairwise
        not nested, so it is one generator of each subgroup of a widest
        antichain. Its witness is checked against the graph's rows."""
        sub = self._cyclic_subgroups
        value, antichain = _widest_antichain(sub.inside)
        witness = 0
        for i in antichain:
            witness |= sub.generators[i] & -sub.generators[i]
        return _checked_witness(self._power_graph.adj, value, witness, "independent-set")

    @cached_property
    def maximal_cyclic_subgroups(self) -> MaximalCyclicDecomposition:
        """All cyclic subgroups maximal under inclusion, largest first; built once.
        They cover the group, so they meet only in e iff sum(size - 1) = n - 1."""
        _, masks, _, above, _ = self._cyclic_subgroups  # maximal: nothing above lies outside
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


def _build(generators: Sequence[Sequence[int]], descriptor: GroupDescriptor) -> FiniteGroup:
    """The group that the generator rows generate, its table built and proven
    a group's in one pass of about n^2 + k^2 n lookups for k generators.

    A generator row is the generator's left multiplication in the
    constructor's index layout: entry z is az, so entry 0 is the generator's
    index a. Row e is range(n). The identity's closure under right
    multiplication by the generators is walked once, and each element y = xa
    first reached gets its row then, as row x read through row a, since
    (xa)z = x(az). So row y holds y at position e, and every row is a
    composition of generator rows. The builder then checks:

    - every generator row is a permutation of range(n), so every row is one
      (a negative, out-of-range or non-int entry is refused here);
    - the walk reaches all n elements;
    - each generator row is the table's row at its index;
    - left and right multiplication by generators commute: row a read
      through column b is column b read through row a, that is
      a(zb) = (az)b, for all generators a, b and every z.

    Why they suffice. Every row is a composition of generator rows, so
    every left multiplication commutes with each right multiplication by a
    generator b: (xz)b = x(zb) for all x, z. The set of c with
    (xz)c = x(zc) for all x, z holds e and every generator, and is closed
    under right multiplication by a generator:
    (xz)(cb) = ((xz)c)b = (x(zc))b = x((zc)b) = x(z(cb)). The walk reaches
    every element as a product of generators, so the table is associative;
    e is a two-sided identity and every row a permutation, so every element
    has an inverse and the table is a group's. Every group passes. The
    identity, inverse and Lagrange laws are checked last, against the orders
    and inverses read off the table.
    """
    n = len(generators[0])
    everyone = set(range(n))
    for i, row in enumerate(generators):
        if len(row) != n or set(map(type, row)) != {int} or set(row) != everyone:
            raise InternalError(f"generator row {i} is not a permutation of range({n})")
    through = [(row[0], itemgetter(*row)) for row in generators]
    rows: list = [None] * n
    rows[0] = tuple(range(n))
    members = [0]
    for x in members:  # grows while it is walked
        row = rows[x]
        for a, read in through:
            y = row[a]
            if rows[y] is None:
                rows[y] = read(row)
                members.append(y)
    if len(members) < n:
        raise InternalError(f"the generators reach {len(members)} of {n} elements")
    for i, row in enumerate(generators):
        if rows[row[0]] != tuple(row):
            raise InternalError(f"generator row {i} is not row {row[0]} of the table it builds")
    columns = [(b, tuple(map(itemgetter(b), rows))) for b, _ in through]
    for a, read in through:
        row = rows[a]
        for b, column in columns:
            if itemgetter(*column)(row) != read(column):
                z = next(z for z in range(n) if row[column[z]] != column[row[z]])
                raise InternalError(f"associativity fails at {(a, z, b)}")
    table = tuple(rows)
    orders, inverses = _orders_and_inverses(table)
    for x in range(n):
        if table[0][x] != x or table[x][0] != x:
            raise InternalError(f"identity law fails at element {x}")
        if table[x][inverses[x]] != 0:
            raise InternalError(f"inverse law fails at element {x}")
        if n % orders[x]:
            raise InternalError(f"order of element {x} violates Lagrange")
    return FiniteGroup(order=n, table=table, orders=orders, inverses=inverses,
                       descriptor=descriptor)


def _check_capacity(order: int) -> None:
    if order > DEFAULT_MAX_ORDER:
        raise CapacityExceeded(
            f"group order {order} exceeds the configured maximum {DEFAULT_MAX_ORDER}"
        )


def _generators(descriptor: GroupDescriptor) -> list[tuple[int, ...]]:
    """The generator rows that `_build` takes for the group a descriptor
    names, after the checks its constructor makes. Orders are checked
    against the limit before a row of that length is allocated.

    Z_n is generated by 1, D_2n and Q_4n by x and y, a permutation group by
    its permutations. A product, at any nesting, lifts each atom's rows into
    the mixed-radix layout, the first atom's digit most significant, so pair
    (a, b) of G x H is a * |H| + b: an atom row r at digit stride s sends
    the s indices with digit d, in each block of the atom's digit, to those
    with digit r[d]. No atom table and no partial product is built.
    """
    family, params = descriptor.family, descriptor.params
    if family == "product":
        atoms = [_generators(atom) for atom in _product_atoms(descriptor)]
        n = prod(len(rows[0]) for rows in atoms)
        _check_capacity(n)
        lifted, stride = [], n
        for rows in atoms:
            size = len(rows[0])
            stride //= size
            lifted += (tuple(chain.from_iterable(
                range(base + d * stride, base + (d + 1) * stride)
                for base in range(0, n, size * stride) for d in row))
                for row in rows if size > 1)  # an order-1 atom moves no index
        return lifted or [(0,)]
    if family == "permutation":
        return _permutation_generators(params)
    (m,) = params
    if family == "cyclic":
        if m < 1:
            raise ValueError("cyclic group order must be a positive integer")
        _check_capacity(m)
        return [tuple(range(1, m)) + (0,)]
    if family == "dihedral":
        if m < 6 or m % 2 != 0:
            raise ValueError("dihedral order must be an even integer >= 6")
        _check_capacity(m)
        return _index_two_generators(m // 2, 0)
    if m < 8 or m % 4 != 0:
        raise ValueError("generalized quaternion order must be a multiple of 4, at least 8")
    _check_capacity(m)
    return _index_two_generators(m // 2, m // 4)


def _index_two_generators(n: int, shift: int) -> list[tuple[int, ...]]:
    """The rows of x and y, with x^i at index i and x^i*y at n + i, x^n = e,
    y x y^-1 = x^-1 and y^2 = x^shift: x * x^j (y) = x^(j+1) (y), y * x^j =
    x^-j y and y * x^j y = x^(shift-j)."""
    step = tuple(range(1, n)) + (0,)
    x = step + tuple(n + i for i in step)
    y = tuple(n + (-j) % n for j in range(n)) + tuple((shift - j) % n for j in range(n))
    return [x, y]


def make_cyclic(n: int) -> FiniteGroup:
    """Additive group on {0..n-1}, generated by 1; element k has order n // gcd(n, k)."""
    descriptor = GroupDescriptor.atom("cyclic", n)
    return _build(_generators(descriptor), descriptor)


def make_dihedral(m: int) -> FiniteGroup:
    """Dihedral group of order m = 2k, k >= 3.

    Index layout: rotations a^i at indices 0..k-1, reflections a^i*b at
    indices k..2k-1. The defining relations are a^k = b^2 = e and bab = a^-1.
    """
    descriptor = GroupDescriptor.atom("dihedral", m)
    return _build(_generators(descriptor), descriptor)


def make_generalized_quaternion(m: int) -> FiniteGroup:
    """Generalized quaternion (dicyclic) group of order m = 4k, k >= 2.

    Index layout: x^i at indices 0..2k-1, x^i*y at indices 2k..4k-1. The
    relations are x^k = y^2, x^(2k) = e and y^-1*x*y = x^-1; x^k is the
    unique involution and every element outside <x> has order 4.
    """
    descriptor = GroupDescriptor.atom("quaternion", m)
    return _build(_generators(descriptor), descriptor)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; pair (a, b) is encoded as a * |h| + b. Built
    from the factors' descriptors, like the product spec of the two."""
    return from_descriptor(GroupDescriptor.product(g.descriptor, h.descriptor))


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
    return _build(_generators(descriptor), descriptor)


def _permutation_generators(images: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Each generator's left-multiplication row over the closure of the
    1-based images, enumerated breadth-first from the identity. The product
    p * q maps i to p[q[i]], so element x's row holds the index of x * z."""
    gens = [tuple(v - 1 for v in p) for p in images]  # 0-based
    identity = tuple(range(len(images[0]) if images else 1))
    elements = [identity]
    index = {identity: 0}
    for current in elements:  # grows while it is walked
        for gen in gens:
            composed = tuple(map(current.__getitem__, gen))
            if composed not in index:
                if len(elements) >= DEFAULT_MAX_ORDER:
                    raise CapacityExceeded(
                        f"permutation closure exceeds the configured maximum {DEFAULT_MAX_ORDER}"
                    )
                index[composed] = len(elements)
                elements.append(composed)
    return [tuple([index[tuple(map(gen.__getitem__, z))] for z in elements])
            for gen in gens] or [(0,)]


def from_descriptor(descriptor: GroupDescriptor) -> FiniteGroup:
    """Build the group a descriptor names; its descriptor equals the input.

    A product at any nesting is built once, from its atoms' generator rows."""
    family, params = descriptor.family, descriptor.params
    if family == "product":
        return _build(_generators(descriptor), descriptor)
    if family == "permutation":
        return from_permutations(params, alias=descriptor.name)
    make = {"cyclic": make_cyclic, "dihedral": make_dihedral,
            "quaternion": make_generalized_quaternion}[family]
    return make(*params)


def _product_atoms(descriptor: GroupDescriptor) -> list[GroupDescriptor]:
    """The non-product factors of a descriptor, left to right."""
    if descriptor.family != "product":
        return [descriptor]
    return [atom for part in descriptor.params for atom in _product_atoms(part)]


def element_order(g: FiniteGroup, x: int) -> int:
    """Least k >= 1 with x**k equal to the identity."""
    if not 0 <= x < g.order:
        raise ValueError(f"element index {x} out of range for order-{g.order} group")
    return g.orders[x]


def cyclic_subgroup(g: FiniteGroup, x: int) -> frozenset[int]:
    """The element set of <x>; its size equals the order of x."""
    if not 0 <= x < g.order:
        raise ValueError(f"element index {x} out of range for order-{g.order} group")
    number, masks, *_ = g._cyclic_subgroups
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
    """True iff every non-identity element has prime order; each distinct order is tested once."""
    return all(map(is_prime, set(g.orders[1:])))
