"""Finite groups as dense Cayley tables with 0-based element indices.

Element 0 is always the identity; every other module in the package talks
about group elements through these indices, which double as graph vertices.
Constructors validate every table they hand out, by one check at every
order: the identity, inverse and Lagrange laws element by element, then
associativity from a closure tree read off the table. The generators are
picked greedily, largest element order first, until the identity's closure
under right multiplication by them reaches every element; no group of order
n needs more than log2 n of them. Each element but e is first reached as
xa, so its row must be row x read through row a, and each generator's left
multiplication must commute with each generator's right multiplication.
Together these prove every row a permutation and the table associative, in
n^2 lookups plus n per pair of generators, whatever the number of
generators. Tables are built a row or a column at a time from slices and
maps, so their rows share int objects. A product, at any nesting, builds its
atoms and then its one table from their rows, once its order has passed the
limit; no partial product is built or validated. A group builds once, on
first use, one walk per distinct cyclic subgroup, and from those walks its
maximal cyclic subgroups, its power graph and the poset of its cyclic
subgroups, whose heaviest chain and widest antichain are the power graph's
clique and independence numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count
from math import gcd, prod
from operator import itemgetter, ne
from typing import Iterable, NamedTuple, Sequence

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


def _validate_table(group: FiniteGroup) -> None:
    """The group laws element by element, then associativity from the closure
    tree that reads off a generating set A: every element y but e was first
    reached as y = xa with x reached before it and a in A.

    Two checks, about n^2 + |A|^2 n lookups in all:

    - tree rows: row xa is row x read through row a, for every tree edge;
    - commutation: row a read through column b is column b read through row
      a, that is a(zb) = (az)b, for all generators a, b and every z.

    Why they suffice. The generator rows are permutations and row e is the
    identity, so by induction along the tree every row is a permutation of
    range(n), a composition of generator rows; no negative or out-of-range
    entry survives. Each left multiplication then commutes with each right
    multiplication by a generator b: (xz)b = x(zb) for all x, z. The set of c
    with (xz)c = x(zc) for all x, z holds e and every generator, and is closed
    under products: (xz)(cb) = ((xz)c)b = (x(zc))b = x((zc)b) = x(z(cb)).
    Every element is a left-nested product of generators, so the table is
    associative, and with the identity and inverse laws it is a group. Every
    group table passes both checks.
    """
    n = group.order
    table = group.table
    for x in range(n):
        if table[0][x] != x or table[x][0] != x:
            raise InternalError(f"identity law fails at element {x}")
        if table[x][group.inverses[x]] != 0:
            raise InternalError(f"inverse law fails at element {x}")
        if group.orders[x] < 1 or n % group.orders[x] != 0:
            raise InternalError(f"order of element {x} violates Lagrange")
    if group.orders[0] != 1:
        raise InternalError("identity must have order 1")
    try:
        columns, edges = _closure_tree(table, group.orders)
        through_row = {a: itemgetter(*table[a]) for a in columns}
        through_column = {b: itemgetter(*column) for b, column in columns.items()}
        if not (all(table[y] == through_row[a](table[x]) for x, a, y in edges)
                and all(through_column[b](table[a]) == through_row[a](columns[b])
                        for a in columns for b in columns)):
            raise InternalError(f"associativity fails at {_first_non_associative(table)}")
    except (IndexError, TypeError) as exc:
        raise _bad_entry(exc) from exc


def _bad_entry(exc: Exception) -> InternalError:
    return InternalError(f"Cayley table holds an entry that is not an element index ({exc})")


def _generating_set(table: Sequence[Sequence[int]], orders: Sequence[int]) -> list[int]:
    """The generators of the closure tree that `_validate_table` checks."""
    return list(_closure_tree(table, orders)[0])


def _closure_tree(table: Sequence[Sequence[int]], orders: Sequence[int],
                  ) -> tuple[dict[int, tuple[int, ...]], list[tuple[int, int, int]]]:
    """Generators picked greedily until the identity's closure under right
    multiplication by them reaches every element: each is the unreached
    element of largest order, the smallest index on ties.

    Returns each generator's column, in the order picked, and the tree edges
    (x, a, xa), one for every element but e, each x reached before xa. Each
    generator row is checked to be a permutation. In a group each new
    generator at least doubles the closure, so a table that needs more than
    log2 n generators is refused.
    """
    n = len(table)
    everyone = frozenset(range(n))
    reached = bytearray(n)
    reached[0] = 1
    members = [0]
    columns: dict[int, tuple[int, ...]] = {}
    edges: list[tuple[int, int, int]] = []
    for a in sorted(range(n), key=orders.__getitem__, reverse=True):  # stable on ties
        if reached[a]:
            continue
        if len(columns) == n.bit_length() - 1:
            raise InternalError(f"Cayley table needs more than {len(columns)} generators, "
                                f"which no group of order {n} does")
        if frozenset(table[a]) != everyone:
            raise InternalError(f"row {a} of the Cayley table is not a permutation")
        columns[a] = tuple(map(itemgetter(a), table))
        newest = [(a, columns[a])]
        closed = len(members)  # the closure so far needs only the new column
        for i, x in enumerate(members):  # grows while it is walked
            for b, column in newest if i < closed else columns.items():
                y = column[x]
                if not reached[y]:
                    reached[y] = 1
                    members.append(y)
                    edges.append((x, b, y))
    return columns, edges


def _first_non_associative(table: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """The first (a, b, c) with (ab)c != a(bc) in lexicographic order, on a
    table known to have one: row ab against row b read through row a."""
    for a in count():
        row = table[a]
        composed = (itemgetter(*table_b)(row) for table_b in table)
        b = next(compress(count(), map(ne, map(table.__getitem__, row), composed)), None)
        if b is not None:
            c = next(c for c in count() if table[row[b]][c] != row[table[b][c]])
            return a, b, c


def _finalize(table: tuple[tuple[int, ...], ...], descriptor: GroupDescriptor) -> FiniteGroup:
    try:
        orders, inverses = _orders_and_inverses(table)
    except (IndexError, TypeError) as exc:
        raise _bad_entry(exc) from exc
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
    return _product((g, h), GroupDescriptor.product(g.descriptor, h.descriptor))


def _product(factors: Sequence[FiniteGroup], descriptor: GroupDescriptor) -> FiniteGroup:
    """One table for the product of all factors, checked against the order
    limit before it is allocated."""
    _check_capacity(prod(g.order for g in factors))
    return _finalize(_product_table([g.table for g in factors]), descriptor)


_Rows = Iterable[tuple[int, tuple[int, ...]]]  # (index, row) pairs in any order


def _product_table(tables: Sequence[Sequence[tuple[int, ...]]]) -> tuple[tuple[int, ...], ...]:
    """The left fold of (a1, b1)(a2, b2) = a1a2 * |h| + b1b2 over the tables:
    element indices are mixed-radix, the first factor's digit most significant.

    Rows are built from the last factor out. Row (d, s) of a suffix product
    is, for each entry e of its first factor's row d, block e of the shared
    ints read through row s of the shorter suffix. Each suffix row is built
    once, used for every d and dropped; no suffix table is kept.
    """
    tables = [t for t in tables if len(t) > 1] or [((0,),)]  # order 1 moves no index
    *heads, last = tables
    ints = tuple(range(prod(map(len, tables))))
    rows: _Rows = ((s, tuple(map(ints.__getitem__, row))) for s, row in enumerate(last))
    span = len(last)
    for table in reversed(heads):
        rows = _lead_rows(rows, table, [ints[e * span:(e + 1) * span] for e in range(len(table))])
        span *= len(table)
    product_table: list[tuple[int, ...]] = [()] * span
    for x, row in rows:
        product_table[x] = row
    return tuple(product_table)


def _lead_rows(rows: _Rows, table: Sequence[tuple[int, ...]],
               blocks: list[tuple[int, ...]]) -> _Rows:
    """The rows of table's group times a suffix product, from the suffix
    product's rows; blocks[e] holds the ints of the indices with leading digit e."""
    span = len(blocks[0])
    for s, row in rows:
        chunks = list(map(itemgetter(*row), blocks))  # suffix rows have at least two entries
        for d, lead in enumerate(table):
            yield d * span + s, tuple(chain.from_iterable(map(chunks.__getitem__, lead)))


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

    # (p * g) * z = p * (g * z): row j is row parent(j) read through the row
    # of its generator, g's left multiplication.
    through = []
    for gen in gens:
        left = [index[tuple(map(gen.__getitem__, z))] for z in elements]
        through.append(itemgetter(*left))
    rows = [tuple(range(len(elements)))]
    for parent, k in found_by:
        rows.append(through[k](rows[parent]))
    return _finalize(tuple(rows), descriptor)


def from_descriptor(descriptor: GroupDescriptor) -> FiniteGroup:
    """Build the group a descriptor names; its descriptor equals the input.

    A product at any nesting builds its atoms, then its one table from their
    rows: no partial product is built or validated."""
    family, params = descriptor.family, descriptor.params
    if family == "product":
        return _product([from_descriptor(a) for a in _product_atoms(descriptor)], descriptor)
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
