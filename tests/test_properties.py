"""Property-based checks of the solvers against the brute-force references."""

import contextlib
import random
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    bfs_distances,
    brute_hamilton_exists,
    brute_lambda,
    brute_max_clique,
    brute_path_cover_count,
    closure_table,
    _twin_predecessors,
    check_l21,
    clique_number,
    composed_permutation_table,
    cyclic_subgroups_of,
    delete_vertex,
    double_cover_matching_size,
    independence_number,
    is_group_table,
    lambda_backtrack,
    pair_product_table,
    power_walk,
    reference_row_check,
    reference_violations,
    scattering_count,
    TableGroup,
    validate_table,
)

from lambda_power import (
    CapacityExceeded,
    Graph,
    InternalError,
    Labeling,
    LowerCertificate,
    build_power_graph,
    check_certificate,
    complement,
    connected_components,
    cut_vertex_component_profile,
    diameter_at_most_two,
    direct_product,
    hamilton_path,
    path_cover_number,
    validate_l21,
)
from lambda_power.cli import builtin_corpus
from lambda_power.groups import (
    GroupDescriptor,
    _build,
    from_descriptor,
    from_permutations,
)
from lambda_power import invariants
from lambda_power.invariants import (
    _cocomparability_cover,
    _cover_lower_bound,
    _hamilton_path_on,
    _sandwich,
)
from lambda_power.powergraph import bits


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [pair for i, pair in enumerate(pairs) if (mask >> i) & 1]
    return Graph.from_edges(n, edges)


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_complement_involution_and_edge_split(graph):
    comp = complement(graph)
    assert complement(comp).adj == graph.adj
    n = graph.n
    assert graph.edge_count() + comp.edge_count() == n * (n - 1) // 2


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_complement_passes_the_construction_check_it_skips(graph):
    comp = complement(graph)
    assert Graph(comp.adj) == comp  # the full check accepts the unchecked rows
    assert complement(comp) == graph


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_complement_is_built_once(graph):
    comp = complement(graph)
    assert complement(graph) is comp
    full = graph.full_mask
    assert comp.adj == tuple(full & ~row & ~(1 << v) for v, row in enumerate(graph.adj))


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_distance_two_rows_match_bfs(graph):
    for v in range(graph.n):
        dist = bfs_distances(graph, v)
        assert graph.distance_two[v] == sum(1 << u for u, d in enumerate(dist) if d == 2)


def random_rows(rng: random.Random, n: int) -> list[int]:
    """Symmetric, loop-free rows of a random graph with a random edge density."""
    density = rng.random()
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


@st.composite
def corrupted_rows(draw):
    # Widths to 200 take rows past one 30-bit and one 64-bit digit.
    n = draw(st.integers(min_value=1, max_value=200))
    rows = random_rows(random.Random(draw(st.integers(min_value=0, max_value=2**32))), n)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        v = draw(st.integers(min_value=0, max_value=n - 1))
        fault = draw(st.sampled_from(["asymmetric", "self-loop", "out-of-range"]))
        if fault == "asymmetric" and n >= 2:
            u = draw(st.integers(min_value=0, max_value=n - 2))
            rows[v] ^= 1 << (u + (u >= v))
        elif fault == "self-loop":
            rows[v] |= 1 << v
        elif fault == "out-of-range":
            rows[v] |= 1 << (n + draw(st.integers(min_value=0, max_value=70)))
    return rows


@settings(max_examples=300, deadline=None)
@given(corrupted_rows())
def test_graph_row_check_matches_per_edge_scan(rows):
    try:
        Graph(tuple(rows))
        message = None
    except InternalError as exc:
        message = str(exc)
    assert message == reference_row_check(rows)


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    rows = random_rows(random.Random(draw(st.integers(min_value=0, max_value=2**32))), n)
    if draw(st.booleans()):
        # Distinct labels, spaced by 1 or 2 and permuted: valid unless an
        # edge takes l and l + 1, the one fault the early accept looks for.
        gaps = draw(st.lists(st.integers(min_value=1, max_value=2), min_size=n, max_size=n))
        labels = draw(st.permutations([sum(gaps[:i]) for i in range(n)]))
    else:
        # Few labels for many vertices, so equal and adjacent labels collide.
        top = draw(st.integers(min_value=0, max_value=n + 2))
        labels = draw(st.lists(st.integers(min_value=0, max_value=top), min_size=n, max_size=n))
    return Graph(tuple(rows)), labels


@settings(max_examples=200, deadline=None)
@given(labeled_graphs())
def test_validate_l21_matches_pair_scan(case):
    graph, labels = case
    report = validate_l21(graph, Labeling(tuple(labels)))
    found = [(x.u, x.v, x.kind) for x in report.violations]
    assert found == reference_violations(graph, labels)
    assert report.ok == (not found) == check_l21(graph, labels)
    if len(set(labels)) == len(labels) and report.ok:  # accepted early
        assert "distance_two" not in graph.__dict__


@settings(max_examples=120, deadline=None)
@given(graphs(max_n=12), st.data())
def test_distance_two_rows_match_bfs_with_a_dominating_vertex(graph, data):
    # Every non-neighbour is two steps away through the dominating vertex,
    # so the rows are the complement's, shared with it.
    n = graph.n + 1
    top = data.draw(st.integers(min_value=0, max_value=n - 1))
    old = [v for v in range(n) if v != top]  # old vertex i is new vertex old[i]
    graph = Graph.from_edges(n, [(old[u], old[v]) for u, v in graph.edges()]
                             + [(top, v) for v in old])
    for v in range(n):
        dist = bfs_distances(graph, v)
        assert graph.distance_two[v] == sum(1 << u for u, d in enumerate(dist) if d == 2)
    assert graph.distance_two is graph.complement.adj


@st.composite
def permutation_groups(draw):
    degree = draw(st.integers(min_value=1, max_value=5))
    images = st.permutations(range(1, degree + 1)).map(tuple)
    return from_permutations(draw(st.lists(images, min_size=1, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(permutation_groups(),
                 st.deferred(lambda: st.sampled_from([g for _, g in builtin_corpus(40)]))))
def test_orders_and_inverses_match_a_power_walk(group):
    orders, inverses = power_walk(group.table)
    assert (group.orders, group.inverses) == (tuple(orders), tuple(inverses))
    assert tuple(group._cyclic_subgroups) == cyclic_subgroups_of(group.table)


@settings(max_examples=60, deadline=None)
@given(permutation_groups())
def test_permutation_table_matches_composition(group):
    assert group.table == composed_permutation_table(group.descriptor.params)


@st.composite
def relabelled_group_tables(draw):
    """A permutation group or a corpus group of order at most 16, relabelled by
    a permutation fixing the identity: the group, its table as lists of rows,
    its inverses and its orders."""
    group = draw(st.one_of(permutation_groups(), st.deferred(
        lambda: st.sampled_from([g for _, g in builtin_corpus(16)]))))
    n = group.order
    relabel = [0] + draw(st.permutations(range(1, n)))
    table = [[0] * n for _ in range(n)]
    inverses, orders = [0] * n, [0] * n
    for a in range(n):
        inverses[relabel[a]] = relabel[group.inverses[a]]
        orders[relabel[a]] = group.orders[a]
        for b in range(n):
            table[relabel[a]][relabel[b]] = relabel[group.table[a][b]]
    return group, table, inverses, orders


@st.composite
def mutated_group_tables(draw):
    """A relabelled group with up to two rows changed: two entries swapped, or
    one entry overwritten by an index, -1, n or None."""
    group, table, inverses, orders = draw(relabelled_group_tables())
    n = group.order
    indices = st.integers(min_value=0, max_value=n - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        row = table[draw(indices)]
        if draw(st.booleans()):
            j, k = draw(indices), draw(indices)
            row[j], row[k] = row[k], row[j]
        else:
            row[draw(indices)] = draw(st.one_of(indices, st.sampled_from([-1, n, None])))
    return TableGroup.of(group)._replace(table=tuple(map(tuple, table)),
                                         inverses=tuple(inverses), orders=tuple(orders))


@settings(max_examples=200, deadline=None)
@given(mutated_group_tables())
def test_validation_accepts_exactly_the_group_tables(group):
    if is_group_table(group.table, group.inverses):
        validate_table(group)
    else:
        with pytest.raises(InternalError):
            validate_table(group)


@st.composite
def generator_rows(draw):
    """One to three left-multiplication rows for the builder: random
    permutations of range(n) for n <= 6, or rows of a relabelled group, one
    of them perhaps with two entries swapped."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=6))
        return draw(st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3))
    _, table, _, _ = draw(relabelled_group_tables())
    indices = st.integers(min_value=0, max_value=len(table) - 1)
    rows = [list(table[x]) for x in draw(st.lists(indices, min_size=1, max_size=3))]
    if draw(st.booleans()):
        j, k = draw(indices), draw(indices)
        rows[0][j], rows[0][k] = rows[0][k], rows[0][j]
    return list(map(tuple, rows))


@settings(max_examples=200, deadline=None)
@given(generator_rows())
def test_builder_accepts_exactly_the_rows_that_generate_a_group(generators):
    table = closure_table(generators)
    generates = (None not in table and all(table[g[0]] == list(g) for g in generators)
                 and is_group_table(table, [row.index(0) for row in table]))
    descriptor = GroupDescriptor.atom("cyclic", len(table))
    if generates:
        group = _build(generators, descriptor)
        assert group.table == tuple(map(tuple, table))
        validate_table(group)
    else:
        with pytest.raises(InternalError):
            _build(generators, descriptor)


@st.composite
def paired_swap_tables(draw):
    """A relabelled group with one or two paired-row swaps: entries j and k
    swapped in row x and in a second row at once. The second row is most often
    the one whose entry j is row x's entry k, so column j stays a permutation,
    and column k does too when the four entries form a 2x2 Latin subsquare:
    near-Latin squares that single mutations rarely reach."""
    group, table, inverses, orders = draw(relabelled_group_tables())
    n = group.order
    indices = st.integers(min_value=0, max_value=n - 1)
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        x, j, k = draw(indices), draw(indices), draw(indices)
        partner = next((r for r in range(n) if table[r][j] == table[x][k]), x)
        for r in {x, draw(st.one_of(st.just(partner), indices))}:
            table[r][j], table[r][k] = table[r][k], table[r][j]
    return TableGroup.of(group)._replace(table=tuple(map(tuple, table)),
                                         inverses=tuple(inverses), orders=tuple(orders))


@settings(max_examples=200, deadline=None)
@given(paired_swap_tables())
def test_validation_accepts_exactly_the_group_tables_after_paired_row_swaps(group):
    if is_group_table(group.table, group.inverses):
        validate_table(group)
    else:
        with pytest.raises(InternalError):
            validate_table(group)


PRODUCT_ATOMS = ([GroupDescriptor.atom("cyclic", n) for n in range(1, 13)]
                 + [GroupDescriptor.atom("dihedral", m) for m in (6, 8, 10, 12)]
                 + [GroupDescriptor.atom("quaternion", m) for m in (8, 12)])


@st.composite
def product_atoms(draw, max_order=256):
    """Two to four atoms, Z1 included, whose product has at most max_order elements."""
    atoms, order = [], 1
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        fitting = [a for a in PRODUCT_ATOMS if order * a.params[0] <= max_order]
        atom = draw(st.sampled_from(fitting))
        atoms.append(atom)
        order *= atom.params[0]
    return atoms


@settings(max_examples=60, deadline=None)
@given(product_atoms())
def test_product_tables_match_the_pairwise_reference(atoms):
    factors = [from_descriptor(atom) for atom in atoms]
    reference = reduce(pair_product_table, (g.table for g in factors))
    orders, inverses = power_walk(reference)
    expected = (reference, tuple(orders), tuple(inverses))
    left_nested = from_descriptor(reduce(GroupDescriptor.product, atoms))
    right_nested = from_descriptor(reduce(lambda h, g: GroupDescriptor.product(g, h),
                                          reversed(atoms)))
    pairwise = reduce(lambda h, g: direct_product(g, h), reversed(factors))  # g x (h x k)
    for group in (left_nested, right_nested, pairwise):
        assert (group.table, group.orders, group.inverses) == expected
        assert tuple(group._cyclic_subgroups) == cyclic_subgroups_of(reference)


def product_of(atoms):
    return from_descriptor(reduce(GroupDescriptor.product, atoms))


@st.composite
def permutation_products(draw):
    """A permutation group times a Z/D/Q atom, in either order, with at most
    240 elements."""
    perm = draw(permutation_groups())
    atom = draw(st.sampled_from([a for a in PRODUCT_ATOMS if perm.order * a.params[0] <= 240]))
    pair = [perm.descriptor, atom]
    if draw(st.booleans()):
        pair.reverse()
    return from_descriptor(GroupDescriptor.product(*pair))


@settings(max_examples=80, deadline=None)
@given(st.one_of(product_atoms(max_order=48).map(product_of), permutation_groups(),
                 permutation_products()))
def test_built_tables_pass_the_reference_validator(group):
    validate_table(group)
    orders, inverses = power_walk(group.table)
    assert (group.orders, group.inverses) == (tuple(orders), tuple(inverses))
    assert tuple(group._cyclic_subgroups) == cyclic_subgroups_of(group.table)
    if group.descriptor.family == "product":
        left, right = map(from_descriptor, group.descriptor.params)
        assert group.table == pair_product_table(left.table, right.table)


@settings(max_examples=80, deadline=None)
@given(st.one_of(product_atoms(max_order=48).map(product_of), permutation_groups()))
def test_poset_clique_and_independence_match_the_graph(group):
    graph = build_power_graph(group)
    omega, alpha = group.power_graph_clique.value, group.power_graph_independent_set.value
    assert (omega, alpha) == (clique_number(graph).value, independence_number(graph).value)
    if graph.n <= 12:
        assert (omega, alpha) == (brute_max_clique(graph), brute_max_clique(complement(graph)))


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_twin_predecessors_match_brute(graph):
    closed = [graph.adj[v] | (1 << v) for v in range(graph.n)]
    expected = []
    for v in range(graph.n):
        twins = [u for u in range(v)
                 if graph.adj[u] == graph.adj[v] or closed[u] == closed[v]]
        expected.append(twins[-1] if twins else -1)
    assert _twin_predecessors(graph) == expected


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_clique_matches_brute(graph):
    found = clique_number(graph)
    assert found.value == brute_max_clique(graph)
    for i, u in enumerate(found.witness):
        for v in found.witness[i + 1:]:
            assert graph.adjacent(u, v)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=7))
def test_hamilton_matches_brute(graph):
    try:
        path = hamilton_path(graph)
    except CapacityExceeded:
        return
    if path is not None:
        assert sorted(path) == list(range(graph.n))
        assert all(graph.adjacent(a, b) for a, b in zip(path, path[1:]))
    assert (path is not None) == brute_hamilton_exists(graph)


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_path_cover_matches_brute(graph):
    cover = path_cover_number(graph)
    seen = []
    for path in cover.paths:
        seen.extend(path)
        assert all(graph.adjacent(a, b) for a, b in zip(path, path[1:]))
    assert sorted(seen) == list(range(graph.n))
    assert cover.count == brute_path_cover_count(graph)
    assert cover.count >= len(connected_components(graph))


@st.composite
def twin_blow_ups(draw, max_n=10):
    """A quotient graph on at most 5 nodes, each blown up into 1-3 open twins."""
    q = draw(st.integers(min_value=1, max_value=5))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=q, max_size=q)
                 .filter(lambda ws: sum(ws) <= max_n))
    pairs = [(i, j) for i in range(q) for j in range(i + 1, q)]
    linked = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    node_of = draw(st.permutations([i for i, w in enumerate(sizes) for _ in range(w)]))
    quotient = {pair for pair, on in zip(pairs, linked) if on}
    n = len(node_of)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if tuple(sorted((node_of[u], node_of[v]))) in quotient]
    return Graph.from_edges(n, edges)


def singletons(adj, vertices, matching, target):
    """A stand-in for the constructed cover that never meets the lower bound
    of a connected component on two or more vertices."""
    return [[v] for v in vertices]


def searches_only():
    """Patch out the constructed cover, so the fallback and the search
    answer every gap."""
    return mock.patch.object(invariants, "_constructed_cover", singletons)


@settings(max_examples=60, deadline=None)
@given(twin_blow_ups())
def test_quotient_engine_matches_brute_on_twin_blow_ups(graph):
    with searches_only():
        cover = path_cover_number(graph)
        hamilton = hamilton_path(graph)
    seen = []
    for path in cover.paths:
        seen.extend(path)
        assert all(graph.adjacent(a, b) for a, b in zip(path, path[1:]))
    assert sorted(seen) == list(range(graph.n))
    assert cover.count == brute_path_cover_count(graph)
    assert (hamilton is not None) == brute_hamilton_exists(graph)
    if hamilton is not None:
        assert sorted(hamilton) == list(range(graph.n))
        assert all(graph.adjacent(a, b) for a, b in zip(hamilton, hamilton[1:]))


def assert_cover_bounds_below_brute(graph):
    # lb is the larger of S's scattering count and the double cover's
    # unmatched vertices, counted here by references sharing no code with it
    lb, certificate = _cover_lower_bound(graph.adj, graph.full_mask)
    unmatched = graph.n - double_cover_matching_size(graph)
    assert lb == max(scattering_count(graph, certificate), unmatched)
    assert lb <= brute_path_cover_count(graph)
    for comp in connected_components(graph):  # as _sandwich calls it
        mask = sum(1 << v for v in comp)
        assert _cover_lower_bound(graph.adj, mask, components=1) == (
            _cover_lower_bound(graph.adj, mask))


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_cover_lower_bound_is_sound(graph):
    assert_cover_bounds_below_brute(graph)


@settings(max_examples=80, deadline=None)
@given(twin_blow_ups())
def test_cover_lower_bound_is_sound_on_twin_blow_ups(graph):
    assert_cover_bounds_below_brute(graph)


def assert_constructed_cover_is_sandwiched(graph):
    lbs, counts = 0, 0
    for comp in connected_components(graph):
        lb, paths = _sandwich(graph.adj, comp)
        assert sorted(v for path in paths for v in path) == comp
        assert all(graph.adjacent(a, b) for path in paths for a, b in zip(path, path[1:]))
        lbs, counts = lbs + lb, counts + len(paths)
    brute = brute_path_cover_count(graph)
    assert lbs <= brute <= counts
    if counts == lbs:
        assert counts == brute


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_constructed_cover_is_sandwiched(graph):
    assert_constructed_cover_is_sandwiched(graph)


@settings(max_examples=80, deadline=None)
@given(twin_blow_ups())
def test_constructed_cover_is_sandwiched_on_twin_blow_ups(graph):
    assert_constructed_cover_is_sandwiched(graph)


def test_constructed_cover_answers_the_corpus_without_a_search():
    def refuse(*args, **kwargs):
        raise AssertionError("a search ran where the constructed cover meets the bound")

    with mock.patch.object(invariants, "_cocomparability_cover", refuse):
        for spec, group in builtin_corpus(48):
            target = complement(build_power_graph(group))
            cover = path_cover_number(target)
            assert sorted(v for path in cover.paths for v in path) == list(range(target.n)), spec


def test_cocomparability_cover_meets_the_lower_bound_on_the_corpus():
    # with the constructed cover patched out, the fallback alone meets the
    # certified lower bound on every complement component to order 100
    def refuse(*args, **kwargs):
        raise AssertionError("the exact search ran where the fallback meets the bound")

    checked = 0
    with searches_only(), mock.patch.object(invariants, "_searched_cover", refuse):
        for spec, group in builtin_corpus(100):
            target = complement(build_power_graph(group))
            cover = path_cover_number(target)
            assert sorted(v for path in cover.paths for v in path) == list(range(target.n)), spec
            checked += 1
    assert checked == 256


@st.composite
def cocomparability_graphs(draw, max_n=9):
    """The incomparability graph of a random order on at most 9 points, with
    the points on shuffled vertices, and a linear extension of the order."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    below = [0] * n  # i < j only for i below j, so 0, 1, ... is a linear extension
    for j in range(n):
        for i in range(j):
            if draw(st.booleans()):
                below[j] |= below[i] | 1 << i
    vertex = draw(st.permutations(range(n)))
    edges = [(vertex[i], vertex[j]) for j in range(n) for i in range(j) if not below[j] >> i & 1]
    return Graph.from_edges(n, edges), list(vertex)


@settings(max_examples=200, deadline=None)
@given(cocomparability_graphs())
def test_cocomparability_cover_is_minimum_given_a_linear_extension(case):
    graph, extension = case
    paths = _cocomparability_cover(graph.adj, list(range(graph.n)), extension)
    assert sorted(v for path in paths for v in path) == list(range(graph.n))
    assert all(graph.adjacent(a, b) for path in paths for a, b in zip(path, path[1:]))
    assert len(paths) == brute_path_cover_count(graph)


def test_cover_lower_bound_is_exact_on_the_corpus():
    for spec, group in builtin_corpus(48):
        target = complement(build_power_graph(group))
        lb = _cover_lower_bound(target.adj, target.full_mask)[0]
        assert lb == path_cover_number(target).count, spec


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=5))
def test_backtrack_matches_brute(graph):
    if not diameter_at_most_two(graph):
        with pytest.raises(ValueError):
            lambda_backtrack(graph)
        return
    labeling = lambda_backtrack(graph)
    assert labeling.span == brute_lambda(graph)
    assert check_l21(graph, labeling.labels)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=5))
def test_backtrack_matches_brute_given_a_dominating_vertex(graph):
    # diameter <= 2, so the search starts at the certified cover bound
    n = graph.n + 1
    graph = Graph.from_edges(n, [(u + 1, v + 1) for u, v in graph.edges()]
                             + [(0, v) for v in range(1, n)])
    labeling = lambda_backtrack(graph)
    assert labeling.span == brute_lambda(graph)
    assert check_l21(graph, labeling.labels)


def with_dominating_vertex(graph):
    """The graph with a new vertex 0 joined to every other vertex."""
    n = graph.n + 1
    return Graph.from_edges(n, [(u + 1, v + 1) for u, v in graph.edges()]
                            + [(0, v) for v in range(1, n)])


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=7).map(with_dominating_vertex), st.data())
def test_certificate_checker_agrees_with_validate_l21(graph, data):
    n = graph.n
    labels = data.draw(st.one_of(
        st.lists(st.integers(0, 2 * n), min_size=n, max_size=n),
        st.permutations(range(2 * n)).map(lambda labels: labels[:n])))
    labeling = Labeling(tuple(labels))
    accepted = check_certificate(graph, labeling, LowerCertificate((), ())) is not None
    assert accepted == validate_l21(graph, labeling).ok


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=5).map(with_dominating_vertex), st.data())
def test_certified_bound_is_sound_for_any_cut(graph, data):
    # any set S and any clique bound the span from below; the package's S
    # and the heaviest clique are the certificate's choice, not its proof
    cut = data.draw(st.sets(st.integers(0, graph.n - 1)))
    best = lambda_backtrack(graph)
    cert = LowerCertificate(tuple(sorted(cut)), clique_number(graph).witness)
    assert check_certificate(graph, best, cert) <= best.span == brute_lambda(graph)
    package_cut = _cover_lower_bound(graph.complement.adj, graph.full_mask)[1]
    cert = cert._replace(cut=tuple(bits(package_cut)))
    assert check_certificate(graph, best, cert) <= best.span


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=7))
def test_path_cover_is_canonical(graph):
    first = path_cover_number(graph)
    second = path_cover_number(graph)
    assert first.paths == second.paths
    assert list(first.paths) == sorted(first.paths)


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_diameter_matches_bfs(graph):
    far = any(d < 0 or d > 2 for v in range(graph.n) for d in bfs_distances(graph, v))
    assert diameter_at_most_two(graph) == (not far)


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_components_match_bfs(graph):
    # isolated vertices, settled without a search, included
    reached = {tuple(u for u, d in enumerate(bfs_distances(graph, v)) if d >= 0)
               for v in range(graph.n)}
    expected = sorted(map(list, reached), key=lambda c: (-len(c), c[0]))
    assert connected_components(graph) == expected


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_cut_vertex_profile_matches_deleted_copy(graph):
    for v in range(graph.n):
        reduced, _ = delete_vertex(graph, v)
        expected = [len(c) for c in connected_components(reduced)]
        assert cut_vertex_component_profile(graph, v) == expected


@settings(max_examples=120, deadline=None)
@given(graphs(), st.booleans())
def test_hamilton_path_over_a_vertex_set_matches_deleted_copy(graph, dp_only):
    # Vertex 0 made dominating is isolated in the complement, so vertices
    # 1..n-1 form a part of it that no outside row reaches.
    n = graph.n
    graph = Graph.from_edges(n, graph.edges() + [(0, v) for v in range(1, n)])
    reduced, survivors = delete_vertex(graph, 0)
    with searches_only() if dp_only else contextlib.nullcontext():
        expected = hamilton_path(reduced.complement)
        found = _hamilton_path_on(graph.complement.adj, graph.full_mask & ~1)
    if expected is not None:
        expected = tuple(survivors[v] for v in expected)
    assert found == expected
    # the engine against brute force, not only against itself
    assert (found is not None) == brute_hamilton_exists(reduced.complement)
    if found is not None:
        assert sorted(found) == list(range(1, n))
        assert all(graph.complement.adjacent(a, b) for a, b in zip(found, found[1:]))
