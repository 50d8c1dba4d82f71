"""Exact L(2,1) spans and explicit labelings for power graphs.

An L(2,1)-labeling assigns nonnegative integers to vertices so that adjacent
vertices differ by at least 2 and vertices at distance exactly two differ.
The span of a labeling is max minus min label; the lambda number of a graph
is the minimum span. This module computes it exactly by two routes (a bound
ledger that can pin the value, and the complement path-cover reduction)
and builds the explicit family labelings for dihedral, generalized
quaternion and two-prime cyclic groups. The ledger reads every bound off
the group's cyclic-subgroup poset and builds no graph. A labeling with
distinct labels and no edge between labels l and l + 1 is valid on any
graph, and ``validate_l21`` accepts it without the distance-two rows; the
family witnesses are such. A ledger-pinned value takes such a witness off
the poset too, checked by the same rule with adjacency read off the poset,
so no graph is built for it. The path cover returns an optimal,
validated ``Labeling`` whose span is the lambda number. A certified lower
bound proves that span optimal: ``check_certificate``, a small checker that
shares no code with the solvers, accepts a witness when the bound its
``LowerCertificate`` proves equals the witness's span. ``lambda_exact``
runs the routes, checks the certificate under ``verify=True``, and is the
one place that builds a ``LambdaReport``.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .errors import CapacityExceeded, InternalError, VerificationError
from .groups import (
    FiniteGroup,
    is_prime,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
)
from .invariants import (
    _double_cover_matching,
    _incomparability_has_p4,
    _koenig_sets,
    path_cover_number,
)
from .oracle import (
    Prediction,
    decomposition_conditions,
    is_cyclic,
    is_cyclic_prime_power,
    predict_lambda,
    two_prime_cyclic_params,
    two_prime_cyclic_span,
)
from .powergraph import Graph, bits, build_power_graph, diameter_at_most_two

__all__ = [
    "Bound",
    "Labeling",
    "LabelingViolation",
    "LambdaReport",
    "LowerCertificate",
    "PartitionCertificate",
    "ValidationReport",
    "bound_ledger",
    "check_certificate",
    "construct_dihedral_labeling",
    "construct_partition_labeling",
    "construct_quaternion_labeling",
    "construct_zpqn_labeling",
    "lambda_exact",
    "lambda_via_path_cover",
    "lower_certificate",
    "validate_l21",
]


class Labeling(NamedTuple):
    """Vertex labels by index; span is max minus min."""

    labels: tuple[int, ...]

    @property
    def span(self) -> int:
        return max(self.labels) - min(self.labels) if self.labels else 0


class LabelingViolation(NamedTuple):
    u: int
    v: int
    kind: str  # adjacent-gap | distance2-equal


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[LabelingViolation, ...]


def validate_l21(graph: Graph, labeling: Labeling) -> ValidationReport:
    """Check the two labeling constraints; report every violating pair.

    Distinct labels can break only the first, on an edge labelled l, l + 1;
    when none is, they are accepted without the distance-two rows."""
    if len(labeling.labels) != graph.n:
        raise ValueError(
            f"labeling has {len(labeling.labels)} entries for a {graph.n}-vertex graph"
        )
    labels = labeling.labels
    masks: dict[int, int] = {}  # label -> its vertices
    for v, label in enumerate(labels):
        masks[label] = masks.get(label, 0) | 1 << v
    if len(masks) == len(labels) and not any(
            row & masks.get(label + 1, 0) for row, label in zip(graph.adj, labels)):
        return ValidationReport(True, ())
    violations = []
    for u, label in enumerate(labels):
        near = masks.get(label - 1, 0) | masks[label] | masks.get(label + 1, 0)
        for offset in bits((graph.adj[u] & near) >> (u + 1)):
            violations.append(LabelingViolation(u, u + 1 + offset, "adjacent-gap"))
    for u, (label, row) in enumerate(zip(labels, graph.distance_two)):
        for offset in bits((row & masks[label]) >> (u + 1)):
            violations.append(LabelingViolation(u, u + 1 + offset, "distance2-equal"))
    return ValidationReport(not violations, tuple(violations))


def _checked(graph: Graph, labels: list[int], expected_span: int | None = None) -> Labeling:
    labeling = Labeling(tuple(labels))
    report = validate_l21(graph, labeling)
    if not report.ok:
        raise InternalError(f"constructed labeling is invalid: {report.violations[:3]}")
    if expected_span is not None and labeling.span != expected_span:
        raise InternalError(
            f"constructed labeling has span {labeling.span}, expected {expected_span}"
        )
    return labeling


# ---------------------------------------------------------------------------
# Reports and bounds


class Bound(NamedTuple):
    kind: str  # "lower" | "upper"
    value: int
    source: str
    exact: bool = True
    note: str = ""


class LambdaReport(NamedTuple):
    """Result of a span computation, with its provenance.

    ``exact`` distinguishes a solved instance from a bounds-only report.
    ``agreement`` compares the solved value with the closed-form prediction
    when both exist.
    """

    group: str
    order: int
    value: int | None
    exact: bool
    method: str
    bounds: tuple[Bound, ...] = ()
    labeling: Labeling | None = None
    oracle: Prediction | None = None
    agreement: bool | None = None
    runtime_ms: int = 0
    methods_run: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()


def bound_ledger(g: FiniteGroup) -> tuple[Bound, ...]:
    """Every applicable lower and upper bound on the span, tagged by source.

    Every entry is read off the group's poset of cyclic subgroups, checked
    first; no graph is built. The clique and independence numbers are a
    chain and an antichain, each member of its witness checked against its
    own row. Elements are adjacent iff their cyclic subgroups are nested, so
    the dominating set D, every element whose subgroup is comparable to all
    the others, holds the identity, and the power graph less D blows up the
    other subgroups' comparability graph, each a clique of its generators,
    and the complement their incomparability graph, each an independent set.

    D is isolated in the complement G', so a cover of G' takes at least
    d = |D| paths, one more when D is not everything, and the span is
    n + r - 2 for r >= 2 paths: the ``order`` (d = 1) or ``dominating``
    lower bound n + d - 1. When no component of the graph less D outweighs
    the rest, interleaving the components is one path of G' through them,
    so r = d + 1 and the ``cut-vertex`` (d = 1) or ``cut-set`` upper bound
    is n + d - 1 too.
    """
    n = g.order
    entries = [Bound("lower", 2 * g.power_graph_clique.value - 2, "clique")]
    if n >= 2:
        entries.append(Bound("lower", n, "order"))
    entries.append(Bound("upper", 2 * n - g.power_graph_independent_set.value - 1,
                         "independence"))
    if not is_cyclic_prime_power(g):
        entries.append(Bound("upper", 2 * n - 4, "not-complete"))
    sub = g._poset
    if _incomparability_has_p4(list(map(int.bit_count, sub.generators)), sub.inside):
        entries.append(Bound("upper", 2 * n - 5, "complement-p4"))
    d, parts = g._comparability
    if d >= 2 and parts:
        entries.append(Bound("lower", n + d - 1, "dominating"))
    if _interleaved(n, d, parts):
        entries.append(Bound("upper", n + d - 1, "cut-vertex" if d == 1 else "cut-set"))
    if not is_cyclic(g):
        trivially_meeting, balanced = decomposition_conditions(g)
        if trivially_meeting and balanced:
            entries.append(Bound("upper", n, "cyclic-decomposition"))
    return tuple(entries)


def _interleaved(n: int, d: int, parts: list[tuple[int, list[int]]]) -> bool:
    """Whether the complement has one path through the power graph less its
    d dominating vertices: two or more components, none heavier than the
    rest (together they weigh n - d)."""
    return len(parts) >= 2 and 2 * parts[0][0] <= n - d


def _bound_window(bounds: tuple[Bound, ...]) -> tuple[int, int]:
    lower = max((b.value for b in bounds if b.kind == "lower"), default=0)
    upper = min((b.value for b in bounds if b.kind == "upper"), default=1 << 30)
    return lower, upper


# ---------------------------------------------------------------------------
# Exact solvers


def lambda_via_path_cover(graph: Graph) -> Labeling:
    """Optimal labeling of a diameter <= 2 graph through its complement's path cover.

    With r the minimum number of vertex-disjoint paths covering the
    complement, the span is n - 1 when r = 1 and n + r - 2 otherwise; the
    labeling walks the complement paths with one skipped label between paths,
    so its span is the lambda number. CapacityExceeded is raised where
    ``path_cover_number`` refuses the complement.
    """
    n = graph.n
    if n == 0:
        raise ValueError("graph must have at least one vertex")
    if not diameter_at_most_two(graph):
        raise ValueError("path-cover method requires a graph of diameter at most 2")
    cover = path_cover_number(graph.complement)
    r = cover.count
    labels = [0] * n
    nxt = 0
    for path in cover.paths:
        for v in path:
            labels[v] = nxt
            nxt += 1
        nxt += 1  # adjacent-in-graph pairs never sit on consecutive labels
    return _checked(graph, labels, expected_span=n - 1 if r == 1 else n + r - 2)


# ---------------------------------------------------------------------------
# Certified lower bound


class LowerCertificate(NamedTuple):
    """Vertex sets proving a lower bound on the span of a graph with a
    dominating vertex (``check_certificate`` reads it).

    ``cut`` is a set S of the complement G': deleting it cuts a cover of G'
    by r paths into at most r + |S| pieces, each inside one component of
    G' - S, so r >= c(G' - S) - |S|; every component of G' needs a path of
    its own, so r >= c(G') too. ``clique`` is a clique C, whose labels lie
    pairwise at least 2 apart.
    """

    cut: tuple[int, ...]
    clique: tuple[int, ...]


def lower_certificate(g: FiniteGroup) -> LowerCertificate:
    """The certificate for ``g``'s power graph: S is the set N(X) behind the
    path-cover lower bound (``_cover_lower_bound``) on the whole complement,
    C the heaviest chain of cyclic subgroups."""
    complement = build_power_graph(g).complement
    adj, mask = complement.adj, complement.full_mask
    cut = _koenig_sets(adj, mask, _double_cover_matching(adj, mask))[1]
    return LowerCertificate(tuple(bits(cut)), g.power_graph_clique.witness)


def check_certificate(graph: Graph, labeling: Labeling, cert: LowerCertificate) -> int | None:
    """The lower bound ``cert`` proves on the lambda number of ``graph``, or
    None when the checker rejects: no vertex dominates, ``labeling`` is no
    L(2,1)-labeling, or C is no clique. A witness is accepted, and its span
    is the lambda number, when the bound equals ``labeling.span``.

    A dominating vertex puts every pair within distance two, so a labeling
    is valid exactly when its labels are distinct and no adjacent pair takes
    l and l + 1: one sort and n bit tests. Each run of consecutive labels is
    then a path of the complement G', so a cover of G' by r paths forces a
    span of at least n + r - 2. Shares no code with the solvers.
    """
    n, adj, full = graph.n, graph.adj, graph.full_mask
    labels = labeling.labels
    if len(labels) != n or not any(row | 1 << v == full for v, row in enumerate(adj)):
        return None
    order = sorted(range(n), key=labels.__getitem__)
    for u, v in zip(order, order[1:]):
        if labels[u] == labels[v] or labels[v] - labels[u] == 1 and (adj[u] >> v) & 1:
            return None
    if not all(0 <= v < n for v in cert.cut + cert.clique):
        return None
    clique = sum(1 << v for v in set(cert.clique))
    cut = sum(1 << v for v in set(cert.cut))
    if any(adj[v] & clique != clique ^ 1 << v for v in bits(clique)):
        return None
    rows = [full & ~row & ~(1 << v) for v, row in enumerate(adj)]  # G'

    def components(mask: int) -> int:
        count = 0
        while mask:
            count += 1
            frontier = mask & -mask
            while frontier:
                mask &= ~frontier
                reach = 0
                for v in bits(frontier):
                    reach |= rows[v]
                frontier = reach & mask
        return count

    paths = max(components(full), components(full & ~cut) - cut.bit_count())
    return max(n - 1, n + paths - 2, 2 * clique.bit_count() - 2)


# ---------------------------------------------------------------------------
# Constructive labelings


class PartitionCertificate(NamedTuple):
    """Clique blocks C_1..C_{s+1} plus matched outside blocks A_1..A_s.

    Valid when the A_i are no larger than |C_i| - 1 and each A_i is totally
    nonadjacent to its C_i; then interleaving odd labels into the clique's
    even labels yields a span of 2|C| - 2.
    """

    clique: tuple[int, ...]
    a_parts: tuple[tuple[int, ...], ...]
    c_parts: tuple[tuple[int, ...], ...]


def _interleave(n: int, c_parts, a_parts) -> list[int]:
    """Even labels 2, 4, ... down the clique blocks; A_i's l-th vertex gets C_i's l-th plus one."""
    labels = [0] * n
    for position, v in enumerate((v for part in c_parts for v in part), start=1):
        labels[v] = 2 * position
    for apart, cpart in zip(a_parts, c_parts):
        for u, v in zip(apart, cpart):
            labels[u] = labels[v] + 1
    return labels


def construct_partition_labeling(graph: Graph, cert: PartitionCertificate) -> Labeling:
    """Labeling with span 2|C| - 2 from a validated partition certificate.

    Clique vertices take even labels 2, 4, ... in block order; the l-th
    vertex of A_i takes the label of the l-th vertex of C_i plus one.
    """
    n = graph.n
    if len(cert.c_parts) != len(cert.a_parts) + 1:
        raise ValueError("need exactly one more clique block than outside blocks")
    flat_c = [v for part in cert.c_parts for v in part]
    if sorted(flat_c) != sorted(cert.clique) or len(set(flat_c)) != len(flat_c):
        raise ValueError("clique blocks must partition the clique")
    flat_a = [v for part in cert.a_parts for v in part]
    outside = sorted(set(range(n)) - set(cert.clique))
    if sorted(flat_a) != outside:
        raise ValueError("outside blocks must partition the non-clique vertices")
    for u in cert.clique:
        for v in cert.clique:
            if u < v and not graph.adjacent(u, v):
                raise ValueError(f"certificate clique is not a clique: ({u}, {v})")
    for i, (apart, cpart) in enumerate(zip(cert.a_parts, cert.c_parts)):
        if len(apart) > len(cpart) - 1:
            raise ValueError(f"outside block {i} is too large for its clique block")
        for u in apart:
            for v in cpart:
                if graph.adjacent(u, v):
                    raise ValueError(
                        f"outside block {i} touches its clique block at ({u}, {v})"
                    )
    labels = _interleave(n, cert.c_parts, cert.a_parts)
    return _checked(graph, labels, expected_span=2 * len(cert.clique) - 2)


def _dihedral_labels(k: int) -> tuple[list[int], int]:
    """Labels and span of the dihedral construction in ``make_dihedral``'s layout."""
    labels = [0] * (2 * k)
    for i in range(1, k):
        labels[i] = 2 * i + 1
    for i in range(k):
        labels[k + i] = 2 * i + 2
    return labels, 2 * k


def construct_dihedral_labeling(k: int) -> Labeling:
    """The explicit span-2k labeling of the dihedral power graph of order 2k.

    Rotations a^i (i >= 1) take 2i + 1, reflections a^i b take 2i + 2 and the
    identity takes 0; reflections are involutions hanging off the identity,
    so only the rotation clique constrains the odd labels.
    """
    if k < 3:
        raise ValueError("dihedral construction needs k >= 3")
    labels, span = _dihedral_labels(k)
    return _checked(build_power_graph(make_dihedral(2 * k)), labels, expected_span=span)


def _quaternion_labels(k: int) -> tuple[list[int], int]:
    """Labels and span of the quaternion construction in its constructor's layout."""
    nn = 2 * k
    labels = [0] * (4 * k)
    if k & (k - 1) == 0:
        labels[0] = 0
        labels[k] = 2
        labels[1] = 2 * k
        for i in range(2, nn):
            if i != k:
                labels[i] = 2 * i
        for j in range(1, k):
            labels[nn + j] = 2 * (j + 1) + 3
            labels[nn + (nn - j)] = 2 * k + 2 * (j + 1) + 1
        labels[nn] = 5
        labels[nn + k] = 4 * k
        return labels, 4 * k + 1
    x0 = nn & -nn  # exponent of the element of maximal odd order in <x>
    labels[0] = 0
    labels[k] = 2
    labels[x0] = 3
    rest = [i for i in range(1, nn) if i not in (k, x0)]
    for idx, z in enumerate(rest, start=1):
        labels[z] = 2 * (idx + 1) + 1
    for j in range(1, k):
        labels[nn + j] = 2 * (j + 2)
        labels[nn + (nn - j)] = 2 * k + 2 * (j + 1)
    labels[nn] = 4
    labels[nn + k] = 4 * k - 1
    return labels, 4 * k


def construct_quaternion_labeling(k: int) -> Labeling:
    """Explicit labeling of the generalized quaternion power graph of order 4k.

    When k is a power of two every rotation order is even, the central
    involution x^k neighbors everything and the span is 4k + 1. Otherwise an
    element x0 of maximal odd order is nonadjacent to x^k, which frees one
    label and achieves span 4k.
    """
    if k < 2:
        raise ValueError("generalized quaternion construction needs k >= 2")
    labels, span = _quaternion_labels(k)
    graph = build_power_graph(make_generalized_quaternion(4 * k))
    return _checked(graph, labels, expected_span=span)


def _zpqn_labels(g: FiniteGroup, p: int, q: int, n: int) -> tuple[list[int], int]:
    """Labels and span of the order-class construction on the cyclic group ``g``."""
    order = g.order
    x_classes = [
        sorted(v for v in range(order) if g.orders[v] == p * q ** (n - i))
        for i in range(1, n + 1)
    ]
    y_classes = [
        sorted(v for v in range(order) if g.orders[v] == q ** (n + 1 - i))
        for i in range(1, n + 1)
    ]
    z_class = sorted(v for v in range(order) if g.orders[v] in (1, order))
    clique, outside = (y_classes, x_classes) if p < q else (x_classes, y_classes)
    labels = _interleave(order, [*clique, z_class], outside)
    return labels, two_prime_cyclic_span(p, q, n)


def construct_zpqn_labeling(p: int, q: int, n: int) -> Labeling:
    """Order-class labeling of the cyclic group of order p * q**n.

    Elements split by order into classes X_i (order p * q**(n-i)), Y_i
    (order q**(n+1-i)) and Z (generators plus identity); X_i and Y_i are
    mutually nonadjacent. For p < q the Y-classes join Z as the maximum
    clique with the X-classes interleaved as in a partition certificate; for
    q < p the roles swap. The (p, q) = (3, 2) case has |X_i| = |Y_i| for
    i < n, too many for a certificate, where interleaving still works
    because Y_i also avoids X_{i+1}.
    """
    if not (is_prime(p) and is_prime(q)) or p == q:
        raise ValueError("need two distinct primes")
    if n < 1:
        raise ValueError("exponent must be a positive integer")
    g = make_cyclic(p * q ** n)
    labels, span = _zpqn_labels(g, p, q, n)
    return _checked(build_power_graph(g), labels, expected_span=span)


# ---------------------------------------------------------------------------
# Orchestration


def _family_labels(g: FiniteGroup) -> list[int] | None:
    """The constructive labels for ``g``, in its constructor's layout. Only
    descriptor families whose generator rows are the ones this package's
    constructors lay out are eligible; a group built on other rows under a
    family's descriptor gets a poset or path-cover witness instead."""
    family = g.descriptor.family
    if not g._in_constructor_layout:
        return None
    params = two_prime_cyclic_params(g) if family == "cyclic" else None
    if params is not None:
        return _zpqn_labels(g, *params)[0]
    if family == "dihedral":
        return _dihedral_labels(g.order // 2)[0]
    if family == "quaternion":
        return _quaternion_labels(g.order // 4)[0]
    return None


def _poset_witness(g: FiniteGroup) -> Labeling | None:
    """A labeling read off ``g``'s cyclic-subgroup poset, with no graph
    built: the family construction, else labels 2v when every vertex
    dominates (a complete graph), else, when no component of the graph less
    the dominating set D outweighs the rest, D on 0, 2, ..., 2(d - 1) and
    the components interleaved on 2d, 2d + 1, ... (span n + d - 1). None
    when none applies. Each is accepted by `_accepted_on_poset`."""
    n, (d, parts) = g.order, g._comparability
    labels = _family_labels(g)
    if labels is not None:
        return _accepted_on_poset(g, Labeling(tuple(labels)))
    if not parts:
        return _accepted_on_poset(g, Labeling(tuple(range(0, 2 * n, 2))))
    if not _interleaved(n, d, parts):
        return None
    number, generators = g._poset.number, g._poset.generators
    outside = {i for _, members in parts for i in members}
    labels = [0] * n
    dominating = (x for x in range(n) if number[x] not in outside)
    for label, x in zip(range(0, 2 * d, 2), dominating):
        labels[x] = label
    # The heaviest part first, on every other place, then the rest: no two
    # neighbours on the path share a part, as none outweighs the others.
    path = [x for _, members in parts for i in members for x in bits(generators[i])]
    order = list(range(0, n - d, 2)) + list(range(1, n - d, 2))
    for place, x in zip(order, path):
        labels[x] = 2 * d + place
    return _accepted_on_poset(g, Labeling(tuple(labels)))


def _accepted_on_poset(g: FiniteGroup, labeling: Labeling) -> Labeling:
    """The labeling, once ``validate_l21``'s rule accepts it with adjacency
    read off ``g``'s poset: distinct labels, and no two vertices on l and
    l + 1 whose cyclic subgroups are nested. Otherwise the graph is built
    and ``validate_l21``'s violations are raised as an InternalError."""
    labels = labeling.labels
    vertex = dict(zip(labels, range(len(labels))))  # label -> its vertex
    number, inside = g._poset.number, g._poset.inside
    if len(vertex) == len(labels):
        for x, label in enumerate(labels):
            y = vertex.get(label + 1)
            if y is not None and (number[x] == number[y] or inside[number[x]] >> number[y] & 1
                                  or inside[number[y]] >> number[x] & 1):
                break
        else:
            return labeling
    report = validate_l21(build_power_graph(g), labeling)
    raise InternalError(f"constructed labeling is invalid: {report.violations[:3]}")


def lambda_exact(g: FiniteGroup, *, method: str = "auto", verify: bool = False,
                 with_witness: bool = True,
                 budget_ms: int | None = None) -> LambdaReport:
    """Exact span of the power graph of ``g`` with witness and provenance.

    Strategy cascade for ``method="auto"``: a pinned bound ledger wins, with
    a witness read off the poset (`_poset_witness`), then the path-cover
    reduction. The power graph is built only for the path cover, for
    ``verify`` and for a pinned value no poset witness fits. An unpinned
    ``method="ledger"`` notes the bounds that do not meet. ``verify=True``
    runs both and raises VerificationError on disagreement; it then checks
    the path-cover witness against the certified lower bound
    (``check_certificate``), at every order, and records ``"certificate"``
    in ``methods_run`` when the bound meets the witness's span. A bound
    below it leaves a note, one above it (a sound bound above a valid
    labeling) raises InternalError.
    ``budget_ms`` is checked once, before the path cover starts. A budget
    spent by then, or a refusal, leaves the report bounds-only with
    ``exact=False``; refusals go to ``notes``, so CapacityExceeded is never
    raised.
    """
    if method not in ("auto", "ledger", "pathcover"):
        raise ValueError(f"unknown method {method!r}")
    if budget_ms is not None and budget_ms < 0:
        raise ValueError(f"budget_ms must be at least 0, got {budget_ms}")
    started = time.monotonic()
    bounds = bound_ledger(g)  # checks the poset before anything else reads it
    prediction = predict_lambda(g)
    lower, upper = _bound_window(bounds)
    notes: list[str] = []
    results: dict[str, int] = {}
    witness: Labeling | None = None  # the path cover's labeling

    # The ledger is already computed, so the time budget gates only the search.
    if lower == upper and (verify or method in ("auto", "ledger")):
        results["ledger"] = lower
    elif method == "ledger":
        notes.append(f"ledger: bounds do not meet (lower {lower}, upper {upper})")
    if method == "auto" and not verify and not results and (
            budget_ms is not None and time.monotonic() - started > budget_ms / 1000.0):
        notes.append("path-cover unavailable: time budget exhausted before the search")
    elif verify or method == "pathcover" or method == "auto" and not results:
        try:
            witness = lambda_via_path_cover(build_power_graph(g))
        except CapacityExceeded as exc:
            notes.append(f"path-cover unavailable: {exc}")
        else:
            results["path-cover"] = witness.span

    if verify and len(set(results.values())) > 1:
        raise VerificationError(
            f"methods disagree for {g.descriptor.name}: {results}", values=results
        )
    if verify and witness is not None:
        certified = check_certificate(build_power_graph(g), witness, lower_certificate(g))
        if certified is None or certified > witness.span:
            raise InternalError(
                f"certificate checker gives {certified} on a validated witness "
                f"of span {witness.span} for {g.descriptor.name}")
        if certified < witness.span:
            notes.append(f"verification incomplete: certified lower bound {certified} "
                         f"below witness span {witness.span}")
        else:
            results["certificate"] = certified
    if verify and len(results) < 2:
        notes.append("verification incomplete: fewer than two methods ran")

    value = next(iter(results.values()), None)
    labeling = None
    if value is not None and not with_witness:
        notes.append("witness omitted on request")
    elif value is not None:
        labeling = witness or _poset_witness(g)
        if labeling is None:
            try:
                labeling = lambda_via_path_cover(build_power_graph(g))
            except CapacityExceeded as exc:
                notes.append(f"witness unavailable: {exc}")
            else:
                if labeling.span != value:
                    raise VerificationError(
                        f"path-cover witness disagrees for {g.descriptor.name}",
                        values={"ledger": value, "path-cover": labeling.span},
                    )
        # Every producer above validated its labeling, on the graph or the poset.
        if labeling is not None and labeling.span != value:
            raise InternalError("witness span disagrees with the computed value")

    agreement = None
    if value is not None and prediction.value is not None:
        agreement = prediction.value == value
    return LambdaReport(
        group=g.descriptor.name, order=g.order, value=value, exact=value is not None,
        method=next(iter(results), "bounds-only"), bounds=bounds, labeling=labeling,
        oracle=prediction, agreement=agreement,
        runtime_ms=int((time.monotonic() - started) * 1000),
        methods_run=tuple(sorted(results)), notes=tuple(notes),
    )
