"""Exact L(2,1) spans and explicit labelings for power graphs.

An L(2,1)-labeling assigns nonnegative integers to vertices so that adjacent
vertices differ by at least 2 and vertices at distance exactly two differ.
The span of a labeling is max minus min label; the lambda number of a graph
is the minimum span. This module computes it exactly by three independent
routes (a bound ledger that can pin the value, the complement path-cover
reduction, and iterative-deepening backtracking) and builds the explicit
family labelings for dihedral, generalized quaternion and two-prime cyclic
groups.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import CapacityExceeded, InternalError, VerificationError
from .groups import (
    FiniteGroup,
    is_prime,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
)
from .invariants import (
    _cover_lower_bound,
    _twin_classes,
    clique_number,
    cut_vertex_component_profile,
    find_complement_p4,
    independence_number,
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
from .powergraph import (
    Graph,
    _masked_components,
    bits,
    build_power_graph,
    diameter_at_most_two,
)

DEFAULT_BACKTRACK_LIMIT = 20

__all__ = [
    "Bound",
    "DEFAULT_BACKTRACK_LIMIT",
    "Labeling",
    "LabelingViolation",
    "LambdaReport",
    "PartitionCertificate",
    "ValidationReport",
    "bound_ledger",
    "construct_dihedral_labeling",
    "construct_partition_labeling",
    "construct_quaternion_labeling",
    "construct_zpqn_labeling",
    "lambda_backtrack",
    "lambda_exact",
    "lambda_via_path_cover",
    "validate_l21",
]


@dataclass(frozen=True)
class Labeling:
    """Vertex labels by index; span is max minus min."""

    labels: tuple[int, ...]

    @property
    def span(self) -> int:
        return max(self.labels) - min(self.labels) if self.labels else 0


@dataclass(frozen=True)
class LabelingViolation:
    u: int
    v: int
    kind: str  # adjacent-gap | distance2-equal


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[LabelingViolation, ...]


def validate_l21(graph: Graph, labeling: Labeling) -> ValidationReport:
    """Check the two labeling constraints; report every violating pair."""
    if len(labeling.labels) != graph.n:
        raise ValueError(
            f"labeling has {len(labeling.labels)} entries for a {graph.n}-vertex graph"
        )
    labels = labeling.labels
    masks: dict[int, int] = {}  # label -> its vertices
    for v, label in enumerate(labels):
        masks[label] = masks.get(label, 0) | 1 << v
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


@dataclass(frozen=True)
class Bound:
    kind: str  # "lower" | "upper"
    value: int
    source: str
    exact: bool = True
    note: str = ""


@dataclass(frozen=True)
class LambdaReport:
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


def _greedy_clique(graph: Graph) -> tuple[int, ...]:
    order = sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))
    chosen: list[int] = []
    mask = 0
    for v in order:
        if graph.adj[v] & mask == mask:
            chosen.append(v)
            mask |= 1 << v
    return tuple(sorted(chosen))


def bound_ledger(g: FiniteGroup) -> tuple[Bound, ...]:
    """Every applicable lower and upper bound on the span, tagged by source.

    Capacity failures in the clique searches degrade those entries to greedy
    witnesses, flagged inexact but still sound as bounds.
    """
    graph = build_power_graph(g)
    n = g.order
    entries: list[Bound] = []
    try:
        omega = clique_number(graph)
        entries.append(Bound("lower", 2 * omega.value - 2, "clique"))
    except CapacityExceeded:
        witness = _greedy_clique(graph)
        entries.append(Bound("lower", 2 * len(witness) - 2, "clique", exact=False,
                             note="greedy clique witness only"))
    if n >= 2:
        entries.append(Bound("lower", n, "order"))
    try:
        alpha = independence_number(graph)
        entries.append(Bound("upper", 2 * n - alpha.value - 1, "independence"))
    except CapacityExceeded:
        witness = _greedy_clique(graph.complement)
        entries.append(Bound("upper", 2 * n - len(witness) - 1, "independence",
                             exact=False, note="greedy independent set only"))
    if not is_cyclic_prime_power(g):
        entries.append(Bound("upper", 2 * n - 4, "not-complete"))
    if find_complement_p4(graph) is not None:
        entries.append(Bound("upper", 2 * n - 5, "complement-p4"))
    profile = cut_vertex_component_profile(graph, 0)  # vertex 0 is the identity
    if len(profile) >= 2 and profile[0] <= sum(profile[1:]):
        entries.append(Bound("upper", n, "cut-vertex"))
    if not is_cyclic(g):
        trivially_meeting, balanced = decomposition_conditions(g)
        if trivially_meeting and balanced:
            entries.append(Bound("upper", n, "cyclic-decomposition"))
    return tuple(entries)


def _bound_window(bounds: tuple[Bound, ...]) -> tuple[int, int]:
    lower = max((b.value for b in bounds if b.kind == "lower"), default=0)
    upper = min((b.value for b in bounds if b.kind == "upper"), default=1 << 30)
    return lower, upper


# ---------------------------------------------------------------------------
# Exact solvers


def _labeling_from_cover(graph: Graph, cover) -> Labeling:
    labels = [0] * graph.n
    nxt = 0
    for path in cover.paths:
        for v in path:
            labels[v] = nxt
            nxt += 1
        nxt += 1  # adjacent-in-graph pairs never sit on consecutive labels
    return _checked(graph, labels)


def lambda_via_path_cover(graph: Graph, *, deadline: float | None = None) -> LambdaReport:
    """Exact span of a diameter <= 2 graph through its complement's path cover.

    With r the minimum number of vertex-disjoint paths covering the
    complement, the span is n - 1 when r = 1 and n + r - 2 otherwise; the
    witness walks the complement paths with one skipped label between paths.
    """
    started = time.monotonic()
    n = graph.n
    if n == 0:
        raise ValueError("graph must have at least one vertex")
    if not diameter_at_most_two(graph):
        raise ValueError("path-cover method requires a graph of diameter at most 2")
    cover = path_cover_number(graph.complement, deadline=deadline)
    r = cover.count
    value = n - 1 if r == 1 else n + r - 2
    labeling = _labeling_from_cover(graph, cover)
    if labeling.span != value:
        raise InternalError("cover labeling span disagrees with the cover count")
    return LambdaReport(
        group="<graph>",
        order=n,
        value=value,
        exact=True,
        method="path-cover",
        labeling=labeling,
        runtime_ms=int((time.monotonic() - started) * 1000),
        methods_run=("path-cover",),
        notes=(f"complement path cover uses {r} paths",),
    )


def _backtrack_order(graph: Graph) -> list[int]:
    return sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))


def _twin_predecessors(graph: Graph) -> list[int]:
    """prev_twin[v]: previous vertex in v's twin class by index, or -1.

    Two vertices with equal closed neighborhoods (mutually adjacent twins) or
    equal open neighborhoods (nonadjacent twins) can swap labels in any valid
    labeling, so forcing ascending labels within a class loses no solutions.
    Closed twins are the open twins of the complement, and no vertex has
    twins of both kinds, so no vertex is given two predecessors.
    """
    prev = [-1] * graph.n
    for adj in (graph.adj, graph.complement.adj):
        for members in _twin_classes(adj, range(graph.n))[0]:
            for earlier, v in zip(members, members[1:]):
                prev[v] = earlier
    return prev


def _span_feasible(graph: Graph, k: int, order: list[int], prev_twin: list[int],
                   injective: bool, deadline: float | None) -> list[int] | None:
    n = graph.n
    adj = graph.adj
    d2 = graph.distance_two
    full = (1 << (k + 1)) - 1
    domains = [full] * n
    labels = [-1] * n
    used = 0
    ticks = 0

    def place(pos: int) -> bool:
        nonlocal used, ticks
        if pos == n:
            return True
        v = order[pos]
        cand = domains[v] & ~used if injective else domains[v]
        twin = prev_twin[v]
        if twin >= 0 and labels[twin] >= 0:
            cand &= ~((1 << labels[twin]) - 1)  # no smaller than the earlier twin
        while cand:
            low = cand & -cand
            cand ^= low
            ticks += 1
            if deadline is not None and (ticks & 2047) == 0 \
                    and time.monotonic() > deadline:
                raise CapacityExceeded("time budget exhausted during span search")
            lab = low.bit_length() - 1
            labels[v] = lab
            if injective:
                used |= low
            near = low | (low << 1) | (low >> 1)
            trail: list[tuple[int, int]] = []
            ok = True
            if injective and (full & ~used).bit_count() < n - pos - 1:
                ok = False
            if ok:
                for u in bits(adj[v]):
                    if labels[u] >= 0:
                        continue
                    old = domains[u]
                    new = old & ~near
                    if new != old:
                        domains[u] = new
                        trail.append((u, old))
                        if not new:
                            ok = False
                            break
            if ok:
                for u in bits(d2[v]):
                    if labels[u] >= 0:
                        continue
                    old = domains[u]
                    new = old & ~low
                    if new != old:
                        domains[u] = new
                        trail.append((u, old))
                        if not new:
                            ok = False
                            break
            if ok and place(pos + 1):
                return True
            for u, old in trail:
                domains[u] = old
            labels[v] = -1
            if injective:
                used &= ~low
        return False

    if place(0):
        return list(labels)
    return None


def _scattering_count(graph: Graph, s: int) -> int:
    """max(c(G'), c(G' - S) - |S|) for G' the complement, counted afresh.

    Every component of G' needs a path of its own, and deleting S cuts a
    cover of r paths into at most r + |S| pieces, each inside one component
    of G' - S; so both counts bound r from below, for any vertex set S.
    """
    rows = graph.complement.adj
    full = graph.full_mask
    return max(len(_masked_components(rows, full)),
               len(_masked_components(rows, full & ~s)) - s.bit_count())


def lambda_backtrack(graph: Graph, *, deadline: float | None = None) -> LambdaReport:
    """Exact span by iterative deepening on the candidate span.

    Each deepening step either finds a labeling of that span or proves none
    exists, so the first feasible span is the lambda number; the labeling
    0, 2, ..., 2n - 2 always fits, so the deepening ends there. Graphs above
    ``DEFAULT_BACKTRACK_LIMIT`` vertices are refused. Vertices are
    tried by descending degree, labels ascending, with forward checking; on
    diameter <= 2 graphs labels are additionally forced pairwise distinct.

    The deepening starts at 2*omega - 2, and on a diameter <= 2 graph at
    n + r - 2 for r a certified lower bound on the complement's minimum path
    cover: labels there are distinct, and each run of consecutive labels is
    a complement path, so a labeling needs at least r runs and r - 1 gaps.
    Only the set S of ``_cover_lower_bound`` is taken; r is recounted from
    S by ``_scattering_count``, which shares no code with the matching or
    the path-cover DP, so the search stays an independent check.
    """
    started = time.monotonic()
    n = graph.n
    if n == 0:
        raise ValueError("graph must have at least one vertex")
    if n > DEFAULT_BACKTRACK_LIMIT:
        raise CapacityExceeded(
            f"backtracking limited to {DEFAULT_BACKTRACK_LIMIT} vertices, got {n}")
    injective = diameter_at_most_two(graph)
    omega = clique_number(graph).value
    lower = 2 * omega - 2
    if injective:
        certificate = _cover_lower_bound(graph.complement.adj, graph.full_mask)[1]
        lower = max(lower, n + _scattering_count(graph, certificate) - 2)
    order = _backtrack_order(graph)
    prev_twin = _twin_predecessors(graph)
    for k in range(lower, 2 * n - 1):
        found = _span_feasible(graph, k, order, prev_twin, injective, deadline)
        if found is not None:
            labeling = _checked(graph, found, expected_span=None)
            if labeling.span > k:
                raise InternalError("search returned labels beyond the span budget")
            return LambdaReport(
                group="<graph>",
                order=n,
                value=k,
                exact=True,
                method="backtrack",
                labeling=labeling,
                runtime_ms=int((time.monotonic() - started) * 1000),
                methods_run=("backtrack",),
            )
    raise InternalError(f"no labeling found up to span {2 * n - 2}")


# ---------------------------------------------------------------------------
# Constructive labelings


@dataclass(frozen=True)
class PartitionCertificate:
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


def _family_witness(g: FiniteGroup, graph: Graph) -> Labeling | None:
    """Constructive witness on ``g``'s power graph, in the constructor's layout.

    Only descriptor families built by this package's constructors are
    eligible; structurally recognized but foreign-indexed groups fall back
    to the path-cover witness.
    """
    family = g.descriptor.family
    params = two_prime_cyclic_params(g) if family == "cyclic" else None
    if params is not None:
        labels, span = _zpqn_labels(g, *params)
    elif family == "dihedral":
        labels, span = _dihedral_labels(g.order // 2)
    elif family == "quaternion":
        labels, span = _quaternion_labels(g.order // 4)
    else:
        return None
    return _checked(graph, labels, expected_span=span)


def lambda_exact(g: FiniteGroup, *, method: str = "auto", verify: bool = False,
                 with_witness: bool = True,
                 budget_ms: int | None = None) -> LambdaReport:
    """Exact span of the power graph of ``g`` with witness and provenance.

    Strategy cascade for ``method="auto"``: a pinned bound ledger wins, then
    the path-cover reduction, then backtracking. ``verify=True`` runs every
    applicable method and raises VerificationError on disagreement. When no
    method fits the limits the report is bounds-only with ``exact=False``;
    refusals go to ``notes``, so CapacityExceeded is never raised.
    """
    if method not in ("auto", "ledger", "pathcover", "backtrack"):
        raise ValueError(f"unknown method {method!r}")
    started = time.monotonic()
    deadline = started + budget_ms / 1000.0 if budget_ms is not None else None
    graph = build_power_graph(g)
    prediction = predict_lambda(g)
    bounds = bound_ledger(g)
    lower, upper = _bound_window(bounds)
    pinned = lower == upper
    notes: list[str] = []
    results: dict[str, int] = {}
    labelings: dict[str, Labeling | None] = {}

    def solve_ledger():
        return (lower, None) if pinned else None

    def solve_pathcover():
        sub = lambda_via_path_cover(graph, deadline=deadline)
        return sub.value, sub.labeling

    def solve_backtrack():
        sub = lambda_backtrack(graph, deadline=deadline)
        return sub.value, sub.labeling

    # (method name, report tag, solver) in the order auto mode tries them.
    # The ledger is already computed, so the time budget gates only the searches.
    cascade = (
        ("ledger", "ledger", solve_ledger),
        ("pathcover", "path-cover", solve_pathcover),
        ("backtrack", "backtrack", solve_backtrack),
    )
    for name, tag, solve in cascade:
        auto_turn = method == "auto" and not results and (
            name == "ledger" or deadline is None or time.monotonic() <= deadline)
        if not (verify or method == name or auto_turn):
            continue
        try:
            solved = solve()
        except CapacityExceeded as exc:
            notes.append(f"{tag} unavailable: {exc}")
            continue
        if solved is not None:
            results[tag], labelings[tag] = solved

    if verify:
        distinct = set(results.values())
        if len(distinct) > 1:
            raise VerificationError(
                f"methods disagree for {g.descriptor.name}: {results}", values=results
            )
        if len(results) < 2:
            notes.append("verification incomplete: fewer than two methods ran")

    if not results:
        return LambdaReport(
            group=g.descriptor.name, order=g.order, value=None, exact=False,
            method="bounds-only", bounds=bounds, labeling=None, oracle=prediction,
            agreement=None, runtime_ms=int((time.monotonic() - started) * 1000),
            methods_run=(), notes=tuple(notes),
        )

    chosen_method, value = next(iter(results.items()))
    labeling = None
    if with_witness:
        labeling = next((lab for lab in labelings.values() if lab is not None), None)
        if labeling is None:
            # A complete power graph's edgeless complement gives labels 2v.
            labeling = _family_witness(g, graph)
            if labeling is None:
                try:
                    cover_report = lambda_via_path_cover(graph, deadline=deadline)
                    if cover_report.value != value:
                        raise VerificationError(
                            f"path-cover witness disagrees for {g.descriptor.name}",
                            values={"ledger": value,
                                    "path-cover": cover_report.value},
                        )
                    labeling = cover_report.labeling
                except CapacityExceeded as exc:
                    notes.append(f"witness unavailable: {exc}")
        # Every producer above validated its labeling on this graph.
        if labeling is not None and labeling.span != value:
            raise InternalError("witness span disagrees with the computed value")
    else:
        notes.append("witness omitted on request")

    agreement = None
    if prediction.value is not None:
        agreement = prediction.value == value
    return LambdaReport(
        group=g.descriptor.name, order=g.order, value=value, exact=True,
        method=chosen_method, bounds=bounds, labeling=labeling, oracle=prediction,
        agreement=agreement, runtime_ms=int((time.monotonic() - started) * 1000),
        methods_run=tuple(sorted(results)), notes=tuple(notes),
    )
