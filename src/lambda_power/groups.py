"""Finite groups on 0-based element indices, proven from their generators.

Element 0 is always the identity; every other module in the package talks
about group elements through these indices, which double as graph vertices.
Every constructor names its generators by their left-multiplication rows in
its index layout: Z_n its element 1, D_2n and Q_4n their x and y, a
permutation group the rows its closure finds for its permutations, and a
product, at any nesting, each atom's rows lifted into the mixed-radix
layout. One builder, `_build`, proves from the k rows alone, in about k^2 n
steps, that they generate a group acting regularly on the indices, and
reads off a tree that spells each element as a word of right
multiplications. The poset of cyclic subgroups gives the orders, the
maximal cyclic subgroups, the power graph and the heaviest chain and
widest antichain that are its clique and independence numbers, each
witness checked on the poset. Z_n, D_2n and Q_4n on their constructors'
rows read it off the divisors; any other group walks the powers of one
generator per distinct cyclic subgroup, through those words. The n^2
Cayley table is built only when asked for.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import chain
from math import gcd, isqrt, prod
from operator import itemgetter, or_
from typing import NamedTuple, Sequence

from .errors import CapacityExceeded, InternalError
from .invariants import (
    WitnessedValue,
    _comparability_weights,
    _heaviest_chain,
    _widest_antichain,
)
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


class GroupDescriptor(NamedTuple):
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
_Tree = tuple[list[int], list[tuple[int, ...]]]  # per element: its tree parent p and R_a, x = ap


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
    orders: tuple[int, ...]  # per element x: the order of x


class FiniteGroup:
    """Group on the indices 0..n-1, identity 0 by construction: ``orders[x]``
    is the order of x, ``inverses[x]`` its inverse, ``mul(a, b)`` the index
    of a*b, read through b's word, and ``table[a][b]`` the same from the n^2
    Cayley table, built only on first use. Two groups are equal when their
    order, inverses and descriptor are; the generator rows and the word tree
    take no part in that or in the repr, and nothing rewrites them."""

    def __init__(self, order: int, inverses: tuple[int, ...], descriptor: GroupDescriptor,
                 _generators: Sequence[tuple[int, ...]], _tree: _Tree):
        self.order = order
        self.inverses = inverses
        self.descriptor = descriptor
        self._generators = _generators
        self._tree = _tree

    def _key(self) -> tuple[int, tuple[int, ...], GroupDescriptor]:
        return self.order, self.inverses, self.descriptor

    def __repr__(self) -> str:
        return (f"FiniteGroup(order={self.order!r}, inverses={self.inverses!r}, "
                f"descriptor={self.descriptor!r})")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def mul(self, a: int, b: int) -> int:
        return _times(self._tree, a, b)

    @property
    def orders(self) -> tuple[int, ...]:
        return self._cyclic_subgroups.orders

    @cached_property
    def _cyclic_subgroups(self) -> _CyclicSubgroups:
        """On first use: read off the divisors for a family member on its
        constructor's rows (`_family_poset`), else one power walk per
        distinct cyclic subgroup."""
        if self._in_constructor_layout:
            return _family_poset(self.descriptor.family, self.order)
        return _power_walks(self._tree, self.inverses)

    @cached_property
    def _in_constructor_layout(self) -> bool:
        """Whether this is a cyclic, dihedral or quaternion group on the rows
        its family's constructor lays out, so that the closed forms written
        for that layout (the poset, the family labels) apply to it."""
        family, params, _ = self.descriptor
        return (family in _ATOM_PREFIX and params == (self.order,)
                and self._generators == _generators(self.descriptor))

    @cached_property
    def _largest_order(self) -> int:
        """The largest element order; it is n iff the group is cyclic."""
        return max(self.orders)

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return _table(self._generators)

    @cached_property
    def _poset(self) -> _CyclicSubgroups:
        """The cyclic-subgroup record, once `_check_poset` passes it; checked
        once, the first time the ledger, the clique, the antichain or the
        power graph reads it."""
        return _check_poset(self._cyclic_subgroups, self.order)

    @cached_property
    def _power_graph(self) -> Graph:
        """x != y adjacent iff one is a power of the other; built once, the
        rows `_neighbours` reads off the checked cyclic-subgroup poset: the
        comparability graph of <x> strictly inside <y>, or <x> = <y> and
        x < y, so sorting by (|<x>|, number of <x>, x) gives a
        cocomparability ordering of its complement."""
        sub = self._poset
        rows = tuple(_neighbours(sub))
        if self.order >= 2 and rows[0] != (1 << self.order) - 2:
            raise InternalError("identity must be adjacent to every other element")
        graph = Graph._trusted(rows)
        graph._complement_ordering = lambda: sorted(
            range(self.order), key=lambda x: (sub.orders[x], sub.number[x], x))
        return graph

    @cached_property
    def power_graph_clique(self) -> WitnessedValue:
        """A maximum clique of the power graph; computed once. Elements are
        adjacent iff their cyclic subgroups are nested, and the generators of
        one subgroup are pairwise adjacent, so a maximum clique is every
        generator of a chain of cyclic subgroups whose generator counts have
        the greatest sum. Each link of the chain is checked on ``inside``."""
        sub = self._poset
        value, chain = _heaviest_chain(list(map(int.bit_count, sub.generators)), sub.inside)
        nested = all(sub.inside[i] >> j & 1 for i, j in zip(chain, chain[1:]))
        return _checked_witness(nested, value, sum(map(sub.generators.__getitem__, chain)),
                                "clique")

    @cached_property
    def power_graph_independent_set(self) -> WitnessedValue:
        """A maximum independent set of the power graph; computed once. It
        holds at most one generator per cyclic subgroup, of subgroups pairwise
        not nested, so it is one generator of each subgroup of a widest
        antichain. Each pair of the antichain is checked on ``inside``."""
        sub = self._poset
        value, antichain = _widest_antichain(sub.inside)
        members = sum(1 << i for i in antichain)
        apart = not any(sub.inside[i] & members for i in antichain)
        witness = sum(sub.generators[i] & -sub.generators[i] for i in antichain)  # distinct bits
        return _checked_witness(apart, value, witness, "independent-set")

    @cached_property
    def _comparability(self) -> tuple[int, list[tuple[int, list[int]]]]:
        """The dominating vertices of the power graph, those whose cyclic
        subgroup is comparable to every other, counted, and the components of
        the graph less them, each its size and its cyclic subgroups, largest
        first (`_comparability_weights`); computed once."""
        sub = self._poset
        return _comparability_weights(list(map(int.bit_count, sub.generators)), sub.inside)

    @cached_property
    def maximal_cyclic_subgroups(self) -> MaximalCyclicDecomposition:
        """All cyclic subgroups maximal under inclusion, those inside no other;
        built once. They cover the group, so they meet only in e iff
        sum(size - 1) = n - 1."""
        _, masks, _, _, inside, _ = self._poset
        covered = reduce(or_, inside, 0)
        maximal = tuple(m for i, m in enumerate(masks) if not covered >> i & 1)
        sizes = tuple(sorted(map(int.bit_count, maximal), reverse=True))
        return MaximalCyclicDecomposition(maximal, sizes,
                                          sum(sizes) - len(sizes) == self.order - 1)


class MaximalCyclicDecomposition(NamedTuple):
    """The maximal cyclic subgroups of a group as element masks, in walk
    order, and their sizes, descending; ``pairwise_trivial`` records whether
    every two meet only in the identity. ``subgroups`` lists them as element
    sets, largest first, built when read."""

    masks: tuple[int, ...]
    sizes: tuple[int, ...]
    pairwise_trivial: bool

    @property
    def subgroups(self) -> tuple[frozenset[int], ...]:
        return tuple(sorted(map(frozenset, map(bits, self.masks)),
                            key=lambda s: (-len(s), sorted(s))))


def _build(generators: Sequence[Sequence[int]], descriptor: GroupDescriptor) -> FiniteGroup:
    """The group the generator rows generate, proven one from the k rows
    alone in about k^2 n steps. Row a is a's left multiplication L_a in the
    constructor's layout: entry z is az, entry 0 a.

    The builder checks that every row is a permutation of range(n) (so a
    negative, out-of-range or non-int entry is refused), that 0's orbit
    under the L_a, walked as a tree of steps x = ap, is every element, and
    that each generator b's right multiplication, derived along the tree as
    R_b(0) = b and R_b(ap) = L_a(R_b(p)), commutes with every L_a.

    Why that suffices. The L_a generate a transitive permutation group G.
    As R_b commutes with G, g fixing 0 fixes b = R_b(g(0)), so G_0 lies in
    G_b = L_b G_0 L_b^-1, which is as large: the generators normalise G_0,
    which then fixes every point and is trivial. So G acts regularly (Dixon
    and Mortimer, Permutation Groups, 1996, 4.2), x*z = L_x(z) for the L_x
    in G with L_x(0) = x is a group whose rows `_table` builds, and R_b is
    right multiplication by b. Every group passes; `_refusal` names why
    rows fail. Inverses follow the tree, x = ap giving x^-1 = R_a^-1(p^-1).
    Orders and cyclic subgroups come on first use from `_family_poset` when
    the rows are a family constructor's own, else from `_power_walks`.
    """
    n = len(generators[0])
    for i, row in enumerate(generators):
        if len(row) != n or set(map(type, row)) != {int} or set(row) != set(range(n)):
            raise InternalError(f"generator row {i} is not a permutation of range({n})")
    reached = bytearray(n)
    reached[0] = 1
    members, edges = [0], []  # an edge (p, i, x) for each x = ap first reached, a row i's index
    for p in members:  # grows while it is walked
        for i, row in enumerate(generators):
            if not reached[x := row[p]]:
                reached[x] = 1
                members.append(x)
                edges.append((p, i, x))
    if len(members) < n:
        raise _refusal(generators)
    columns = []
    for row in generators:
        column = [0] * n
        column[0] = row[0]
        for p, i, x in edges:
            column[x] = generators[i][column[p]]
        columns.append(tuple(column))
    through = [(row, itemgetter(*row), column, itemgetter(*column))
               for row, column in zip(generators, columns)]  # a(zb) against (az)b:
    if any(b_read(row) != read(column) for row, read, _, _ in through
           for _, _, column, b_read in through):
        raise _refusal(generators)
    backs = [sorted(range(n), key=column.__getitem__) for column in columns]  # R_a^-1
    tree, inverses = ([0] * n, [()] * n), [0] * n
    for p, i, x in edges:
        tree[0][x], tree[1][x], inverses[x] = p, columns[i], backs[i][inverses[p]]
    return FiniteGroup(order=n, inverses=tuple(inverses), descriptor=descriptor,
                       _generators=generators, _tree=tree)


def _refusal(generators: Sequence[Sequence[int]]) -> InternalError:
    """Why permutation rows generate no group, in the terms of the `_table`
    they build: it misses an element, a generator row is not its index's
    row, or a(zb) != (az)b for generators a, b (a table with none is a group's)."""
    table, n = _table(generators), len(generators[0])
    if None in table:
        return InternalError(f"the generators reach {n - table.count(None)} of {n} elements")
    for i, row in enumerate(generators):
        if table[row[0]] != tuple(row):
            return InternalError(f"generator row {i} is not row {row[0]} of the table it builds")
    triple = next((row[0], z, b[0]) for row in generators for b in generators
                  for z in range(n) if row[table[z][b[0]]] != table[row[z]][b[0]])
    return InternalError(f"associativity fails at {triple}")


def _times(tree: _Tree, z: int, x: int) -> int:
    """z * x through x's word: x = ap, so z * x = (z * a) * p, and so on up to e."""
    parent, column = tree
    while x:
        z, x = column[x][z], parent[x]
    return z


def _power_walks(tree: _Tree, inverses: Sequence[int]) -> _CyclicSubgroups:
    """Cyclic subgroups and orders, one walk per distinct <x>, each order checked
    against Lagrange: x^k has order o / gcd(k, o), and <x> holds the <x^d>, d | o.
    An involution x is {e, x} at once, with no walk."""
    n = len(inverses)
    orders, number = [0] * n, [-1] * n
    masks, generators, divisors = [], [], []
    for x in range(n):
        if number[x] >= 0:
            continue
        if x and inverses[x] == x and n % 2 == 0:
            orders[x], number[x] = 2, len(masks)
            masks.append(1 | 1 << x)
            generators.append(1 << x)
            divisors.append([0])
            continue
        half = [0, x]  # e, x, ..., x^m, until x^(2m-1) = e or x^(2m) = e
        while half[-1] != inverses[half[-2]] and half[-1] != inverses[half[-1]]:
            half.append(_times(tree, half[-1], x))
        m = len(half) - 1
        o = 2 * m - (half[-1] == inverses[half[-2]])
        if n % o:
            raise InternalError(f"order of element {x} violates Lagrange")
        mask = every = 0
        below = []  # x^d for every divisor d > 1 of o
        powers = half[1:] + [inverses[y] for y in reversed(half[:o - m])]
        for k, y in enumerate(powers, 1):
            d = gcd(k, o)
            orders[y] = o // d
            every |= 1 << y
            if d == 1:
                number[y] = len(masks)
                mask |= 1 << y
            elif d == k:
                below.append(y)
        masks.append(every)
        generators.append(mask)
        divisors.append(below)
    above, inside = list(generators), [0] * len(masks)
    for i, below in enumerate(divisors):
        for j in map(number.__getitem__, below):
            above[j] |= generators[i]
            inside[i] |= 1 << j
    return _CyclicSubgroups(number, masks, generators, above, inside, tuple(orders))


def _family_poset(family: str, n: int) -> _CyclicSubgroups:
    """The record `_power_walks` gives for Z_n, D_n or Q_n on its
    constructor's rows, read off the divisors with no walk.

    The rotations x^0..x^(k-1) are Z_k: the subgroups <x^g>, one per divisor
    g of k, are numbered as the walk meets them, e = x^k first and then g
    ascending. <x^g> is the multiples of g, generated by those j with
    gcd(j, k) = g, and x^j has order k / gcd(j, k). D_n (k = n/2) then walks
    each reflection r as its own {e, r}; Q_n (k = n/2, h = k/2) walks
    {e, x^h, x^i y, x^(i+h) y} for each i < h, its x^i y at index k + i.
    """
    k = n if family == "cyclic" else n // 2
    divisors = [g for g in range(1, k + 1) if k % g == 0]
    walked = divisors[-1:] + divisors[:-1]
    index = {g: i for i, g in enumerate(walked)}
    masks = [((1 << k) - 1) // ((1 << g) - 1) for g in walked]
    primes = [p for p in divisors if is_prime(p)]
    generators = [mask & ~reduce(or_, (masks[index[g * p]] for p in primes if k // g % p == 0), 0)
                  for g, mask in zip(walked, masks)]
    inside = [sum(1 << index[h] for h in divisors if h % g == 0 and h != g) for g in walked]
    above = [sum(generators[index[h]] for h in divisors if g % h == 0) for g in walked]
    number, orders = [0] * n, [0] * n
    for g in divisors:  # ascending: gcd(j, k), the last divisor of j, is written last
        number[0:k:g] = [index[g]] * (k // g)
        orders[0:k:g] = [k // g] * (k // g)
    if family == "cyclic":
        return _CyclicSubgroups(number, masks, generators, above, inside, tuple(orders))
    q, top = len(masks), (1 << n) - (1 << k)  # the elements past the rotations
    if family == "dihedral":
        outside = [1 << r for r in range(k, n)]
        number[k:], orders[k:] = range(q, q + k), [2] * k
        masks += [1 | y for y in outside]
        inside += [1] * k
    else:
        h = k // 2
        outside = [1 << (k + i) | 1 << (k + h + i) for i in range(h)]
        number[k:], orders[k:] = [*range(q, q + h)] * 2, [4] * k
        masks += [1 | 1 << h | y for y in outside]
        inside += [1 | 1 << index[h]] * h
        above[index[h]] |= top
    above[0] |= top
    return _CyclicSubgroups(number, masks, generators + outside, above + outside, inside,
                            tuple(orders))


def _check_poset(sub: _CyclicSubgroups, n: int) -> _CyclicSubgroups:
    """The record, once it passes a check of about n + q^2 big-int steps for
    q subgroups: the generators partition range(n) as ``number`` says; each
    ``inside`` row is a strict order (in range, irreflexive and transitive,
    hence antisymmetric), as `_heaviest_chain` and `_widest_antichain`
    assume; ``masks[i]`` is the generators of i and of the subgroups inside
    it, ``above[i]`` those of i and of the subgroups containing it. Then
    `_neighbours` gives rows below n, loop-free and symmetric. ``inside[0]``
    must be empty, so a row holding subgroup 0 alone is strict at once."""
    number, masks, generators, above, inside, _ = sub
    q = len(generators)
    if (len(number) != n or sum(map(int.bit_count, generators)) != n
            or any(g >> n for g in generators) or not 0 <= min(number) <= max(number) < q
            or not all(generators[i] >> x & 1 for x, i in enumerate(number))):
        raise InternalError("cyclic subgroup generators do not partition the elements")
    if len(inside) != q or inside[0]:
        raise InternalError("the subgroups inside cyclic subgroup 0 are no strict order")
    containing, alone = list(generators), []  # alone: the rows holding subgroup 0 alone
    for i, row in enumerate(inside):
        if row == 1:
            elements = generators[i] | generators[0]
            alone.append(i)
        elif row >> q or row >> i & 1:
            raise InternalError(f"the subgroups inside cyclic subgroup {i} are no strict order")
        else:
            elements, closure = generators[i], 0
            for j in bits(row):
                closure |= inside[j]
                elements |= generators[j]
                containing[j] |= generators[i]
            if closure & ~row:
                raise InternalError(f"the subgroups inside cyclic subgroup {i} "
                                    "are no strict order")
        if elements != masks[i]:
            raise InternalError("a cyclic subgroup is not its generators and those inside it")
    containing[0] = reduce(or_, map(generators.__getitem__, alone), containing[0])
    if containing != above:
        raise InternalError("a cyclic subgroup's row above is not the generators containing it")
    return sub


def _checked_witness(holds: bool, value: int, witness: int, kind: str) -> WitnessedValue:
    """``value`` with its witness mask, once ``holds`` says its subgroups
    are a chain (kind "clique") or pairwise not nested (kind
    "independent-set") and it has exactly ``value`` vertices: a wrong value
    cannot pass as a bound."""
    members = tuple(bits(witness))
    if holds and len(members) == value:
        return WitnessedValue(value, members, kind)
    raise InternalError(f"{kind} witness of {len(members)} vertices fails "
                        f"the cyclic-subgroup poset for the value {value}")


def _neighbours(sub: _CyclicSubgroups) -> list[int]:
    """The power graph's rows: row x is <x> plus the generators of every
    cyclic subgroup containing <x>, less x. On a checked record, y != x is
    in it iff <x> and <y> are nested."""
    masks, above = sub.masks, sub.above
    return [(masks[i] | above[i]) & ~(1 << x) for x, i in enumerate(sub.number)]


def _table(generators: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The Cayley table along the identity's closure under right multiplication:
    row xa is row x read through row a, as (xa)z = x(az). Rows are read out of
    one shared ``tuple(range(n))``, so they share its int objects."""
    n = len(generators[0])
    through = [(row[0], itemgetter(*row)) for row in generators]
    rows: list = [tuple(range(n))] + [None] * (n - 1)
    members = [0]
    for x in members:  # grows while it is walked
        row = rows[x]
        for a, read in through:
            y = row[a]
            if rows[y] is None:
                rows[y] = read(row)
                members.append(y)
    return tuple(rows)


def _check_capacity(order: int) -> None:
    if order > DEFAULT_MAX_ORDER:
        raise CapacityExceeded(f"group order {order} exceeds the configured maximum "
                               f"{DEFAULT_MAX_ORDER}")


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
    x = tuple(range(1, n)) + (0,) + tuple(range(n + 1, 2 * n)) + (n,)
    y = ((n,) + tuple(range(2 * n - 1, n, -1))  # x^-j y for j = 0, 1, ..., n - 1
         + tuple(range(shift, -1, -1)) + tuple(range(n - 1, shift, -1)))  # x^(shift-j)
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
        cycle = [start]
        while start not in seen and images[cycle[-1] - 1] != start:
            cycle.append(images[cycle[-1] - 1])
        seen.update(cycle)
        if len(cycle) > 1:
            cycles.append(tuple(cycle))
    return cycles


def canonical_permutation_name(generators: Sequence[Sequence[int]]) -> str:
    """Spec string for a permutation-generated group; "Z1" if nothing generates."""
    parts = ["".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
             for cycles in map(_cycles_of_images, generators) if cycles]
    return "perm:" + ";".join(parts) if parts else "Z1"


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
    p * q maps i to p[q[i]], so element x's row holds the index of x * z.
    Up to 256 points a permutation is bytes, and ``q.translate(p)``, with p
    padded to the 256 bytes a table needs, composes p * q in one call."""
    points = len(images[0]) if images else 1
    if points <= 256:
        pad = bytes(range(points, 256))
        perm, compose = bytes, bytes.translate

        def table(p):
            return p + pad
    else:
        perm, table = tuple, tuple

        def compose(q, p):  # p * q, read as a tuple
            return tuple(map(p.__getitem__, q))
    gens = [perm(v - 1 for v in p) for p in images]
    identity = perm(range(points))
    elements = [identity]
    index = {identity: 0}
    for current in elements:  # grows while it is walked
        read = table(current)
        for gen in gens:
            composed = compose(gen, read)
            if composed not in index:
                if len(elements) >= DEFAULT_MAX_ORDER:
                    raise CapacityExceeded("permutation closure exceeds the configured "
                                           f"maximum {DEFAULT_MAX_ORDER}")
                index[composed] = len(elements)
                elements.append(composed)
    return [tuple([index[compose(z, read)] for z in elements])
            for read in map(table, gens)] or [(0,)]


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
    number, masks, *_ = g._poset
    return frozenset(bits(masks[number[x]]))


def maximal_cyclic_subgroups(g: FiniteGroup) -> MaximalCyclicDecomposition:
    """All cyclic subgroups maximal under inclusion, sorted by size descending."""
    return g.maximal_cyclic_subgroups


def is_prime(m: int) -> bool:
    return m >= 2 and all(m % d for d in range(2, isqrt(m) + 1))


def is_P_group(g: FiniteGroup) -> bool:
    """True iff every non-identity element has prime order; each distinct order is tested once."""
    return all(map(is_prime, set(g.orders[1:])))
