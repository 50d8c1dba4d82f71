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
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
)
from .invariants import (
    DEFAULT_CLIQUE_LIMIT,
    DEFAULT_DP_LIMIT,
    check_dp_limit,
    clique_number,
    cut_vertex_component_profile,
    find_complement_p4,
    independence_number,
    path_cover_number,
)
from .oracle import (
    Prediction,
    _is_prime,
    decomposition_conditions,
    is_cyclic,
    is_cyclic_prime_power,
    predict_lambda,
    two_prime_cyclic_params,
    two_prime_cyclic_span,
)
from .powergraph import (
    Graph,
    bits,
    build_power_graph,
    complement,
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


def _distance_two_masks(graph: Graph) -> list[int]:
    masks = []
    for v in range(graph.n):
        reach = 0
        for u in bits(graph.adj[v]):
            reach |= graph.adj[u]
        masks.append(reach & ~graph.adj[v] & ~(1 << v))
    return masks


def validate_l21(graph: Graph, labeling: Labeling) -> ValidationReport:
    """Check the two labeling constraints; report every violating pair."""
    if len(labeling.labels) != graph.n:
        raise ValueError(
            f"labeling has {len(labeling.labels)} entries for a {graph.n}-vertex graph"
        )
    labels = labeling.labels
    violations = []
    for u in range(graph.n):
        for offset in bits(graph.adj[u] >> (u + 1)):
            v = u + 1 + offset
            if abs(labels[u] - labels[v]) < 2:
                violations.append(LabelingViolation(u, v, "adjacent-gap"))
    d2 = _distance_two_masks(graph)
    for u in range(graph.n):
        for offset in bits(d2[u] >> (u + 1)):
            v = u + 1 + offset
            if labels[u] == labels[v]:
                violations.append(LabelingViolation(u, v, "distance2-equal"))
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


def bound_ledger(g: FiniteGroup, graph: Graph | None = None, *,
                 clique_limit: int = DEFAULT_CLIQUE_LIMIT) -> tuple[Bound, ...]:
    """Every applicable lower and upper bound on the span, tagged by source.

    Capacity failures in the clique searches degrade those entries to greedy
    witnesses, flagged inexact but still sound as bounds.
    """
    if graph is None:
        graph = build_power_graph(g)
    n = g.order
    entries: list[Bound] = []
    try:
        omega = clique_number(graph, limit=clique_limit)
        entries.append(Bound("lower", 2 * omega.value - 2, "clique"))
    except CapacityExceeded:
        witness = _greedy_clique(graph)
        entries.append(Bound("lower", 2 * len(witness) - 2, "clique", exact=False,
                             note="greedy clique witness only"))
    if n >= 2:
        entries.append(Bound("lower", n, "order"))
    try:
        alpha = independence_number(graph, limit=clique_limit)
        entries.append(Bound("upper", 2 * n - alpha.value - 1, "independence"))
    except CapacityExceeded:
        witness = _greedy_clique(complement(graph))
        entries.append(Bound("upper", 2 * n - len(witness) - 1, "independence",
                             exact=False, note="greedy independent set only"))
    if not is_cyclic_prime_power(g):
        entries.append(Bound("upper", 2 * n - 4, "not-complete"))
    if find_complement_p4(graph) is not None:
        entries.append(Bound("upper", 2 * n - 5, "complement-p4"))
    profile = cut_vertex_component_profile(graph, graph.identity_vertex or 0)
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


def lambda_via_path_cover(graph: Graph, dp_limit: int = DEFAULT_DP_LIMIT,
                          use_heuristic: bool = True,
                          deadline: float | None = None) -> LambdaReport:
    """Exact span of a diameter <= 2 graph through its complement's path cover.

    With r the minimum number of vertex-disjoint paths covering the
    complement, the span is n - 1 when r = 1 and n + r - 2 otherwise; the
    witness walks the complement paths with one skipped label between paths.
    """
    check_dp_limit(dp_limit)
    started = time.monotonic()
    n = graph.n
    if n == 0:
        raise ValueError("graph must have at least one vertex")
    if not diameter_at_most_two(graph):
        raise ValueError("path-cover method requires a graph of diameter at most 2")
    cover = path_cover_number(complement(graph), dp_limit=dp_limit,
                              use_heuristic=use_heuristic, deadline=deadline)
    r = cover.count
    value = n - 1 if r == 1 else n + r - 2
    labeling = _labeling_from_cover(graph, cover)
    if labeling.span != value:
        raise InternalError("cover labeling span disagrees with the cover count")
    return LambdaReport(
        group=graph.descriptor or "<graph>",
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
    Classes are disjoint: closed-neighborhood classes are formed first.
    """
    n = graph.n
    prev = [-1] * n
    taken = [False] * n
    closed: dict[int, int] = {}
    for v in range(n):
        key = graph.adj[v] | (1 << v)
        if key in closed:
            prev[v] = closed[key]
            taken[v] = taken[closed[key]] = True
        closed[key] = v
    opened: dict[int, int] = {}
    for v in range(n):
        if taken[v]:
            continue
        key = graph.adj[v]
        if key in opened and not taken[opened[key]]:
            prev[v] = opened[key]
        opened[key] = v
    return prev


def _span_feasible(graph: Graph, k: int, order: list[int], injective: bool,
                   deadline: float | None) -> list[int] | None:
    n = graph.n
    adj = graph.adj
    d2 = _distance_two_masks(graph)
    prev_twin = _twin_predecessors(graph)
    full = (1 << (k + 1)) - 1
    if injective and k + 1 < n:
        return None
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


def lambda_backtrack(graph: Graph, span_budget: int | None = None,
                     limit: int = DEFAULT_BACKTRACK_LIMIT,
                     deadline: float | None = None) -> LambdaReport:
    """Exact span by iterative deepening on the candidate span.

    Each deepening step either finds a labeling of that span or proves none
    exists, so the first feasible span is the lambda number. Vertices are
    tried by descending degree, labels ascending, with forward checking; on
    diameter <= 2 graphs labels are additionally forced pairwise distinct.
    """
    started = time.monotonic()
    n = graph.n
    if n == 0:
        raise ValueError("graph must have at least one vertex")
    if n > limit:
        raise CapacityExceeded(f"backtracking limited to {limit} vertices, got {n}")
    injective = diameter_at_most_two(graph)
    omega = clique_number(graph).value
    lower = max(2 * omega - 2, n - 1 if injective else 0)
    upper = span_budget if span_budget is not None else 2 * n - 2
    order = _backtrack_order(graph)
    for k in range(lower, upper + 1):
        found = _span_feasible(graph, k, order, injective, deadline)
        if found is not None:
            labeling = _checked(graph, found, expected_span=None)
            if labeling.span > k:
                raise InternalError("search returned labels beyond the span budget")
            return LambdaReport(
                group=graph.descriptor or "<graph>",
                order=n,
                value=k,
                exact=True,
                method="backtrack",
                labeling=labeling,
                runtime_ms=int((time.monotonic() - started) * 1000),
                methods_run=("backtrack",),
            )
    raise CapacityExceeded(
        f"no labeling within span budget {upper}", lower_bound=upper + 1
    )


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
    labels = [0] * n
    block_labels: list[list[int]] = []
    position = 0
    for part in cert.c_parts:
        current = []
        for v in part:
            position += 1
            labels[v] = 2 * position
            current.append(2 * position)
        block_labels.append(current)
    for i, apart in enumerate(cert.a_parts):
        for l, u in enumerate(apart):
            labels[u] = block_labels[i][l] + 1
    return _checked(graph, labels, expected_span=2 * len(cert.clique) - 2)


def construct_dihedral_labeling(k: int) -> Labeling:
    """The explicit span-2k labeling of the dihedral power graph of order 2k.

    Rotations a^i (i >= 1) take 2i + 1, reflections a^i b take 2i + 2 and the
    identity takes 0; reflections are involutions hanging off the identity,
    so only the rotation clique constrains the odd labels.
    """
    if k < 3:
        raise ValueError("dihedral construction needs k >= 3")
    g = make_dihedral(2 * k)
    graph = build_power_graph(g)
    labels = [0] * (2 * k)
    for i in range(1, k):
        labels[i] = 2 * i + 1
    for i in range(k):
        labels[k + i] = 2 * i + 2
    return _checked(graph, labels, expected_span=2 * k)


def construct_quaternion_labeling(k: int) -> Labeling:
    """Explicit labeling of the generalized quaternion power graph of order 4k.

    When k is a power of two every rotation order is even, the central
    involution x^k neighbors everything and the span is 4k + 1. Otherwise an
    element x0 of maximal odd order is nonadjacent to x^k, which frees one
    label and achieves span 4k.
    """
    if k < 2:
        raise ValueError("generalized quaternion construction needs k >= 2")
    g = make_generalized_quaternion(4 * k)
    graph = build_power_graph(g)
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
        expected = 4 * k + 1
    else:
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
        expected = 4 * k
    return _checked(graph, labels, expected_span=expected)


def construct_zpqn_labeling(p: int, q: int, n: int) -> Labeling:
    """Order-class labeling of the cyclic group of order p * q**n.

    Elements split by order into classes X_i (order p * q**(n-i)), Y_i
    (order q**(n+1-i)) and Z (generators plus identity); X_i and Y_i are
    mutually nonadjacent. For p < q the Y-classes join Z as the maximum
    clique with the X-classes interleaved; for q < p the roles swap. The
    (p, q) = (3, 2) case has |X_i| = |Y_i| for i < n, where interleaving
    still works because Y_i also avoids X_{i+1}.
    """
    if not (_is_prime(p) and _is_prime(q)) or p == q:
        raise ValueError("need two distinct primes")
    if n < 1:
        raise ValueError("exponent must be a positive integer")
    order = p * q ** n
    g = make_cyclic(order)
    graph = build_power_graph(g)
    x_classes = [
        sorted(v for v in range(order) if g.orders[v] == p * q ** (n - i))
        for i in range(1, n + 1)
    ]
    y_classes = [
        sorted(v for v in range(order) if g.orders[v] == q ** (n + 1 - i))
        for i in range(1, n + 1)
    ]
    z_class = sorted(v for v in range(order) if g.orders[v] in (1, order))
    expected = two_prime_cyclic_span(p, q, n)
    if (p, q) == (3, 2):
        labels = [0] * order
        position = 0
        x_labels: list[list[int]] = []
        for block in [*x_classes, z_class]:
            current = []
            for v in block:
                position += 1
                labels[v] = 2 * position
                current.append(2 * position)
            x_labels.append(current)
        for i in range(n):
            for l, y in enumerate(y_classes[i]):
                labels[y] = x_labels[i][l] + 1
        return _checked(graph, labels, expected_span=expected)
    if p < q:
        cert = PartitionCertificate(
            clique=tuple(v for part in [*y_classes, z_class] for v in part),
            a_parts=tuple(tuple(part) for part in x_classes),
            c_parts=tuple(tuple(part) for part in [*y_classes, z_class]),
        )
    else:
        cert = PartitionCertificate(
            clique=tuple(v for part in [*x_classes, z_class] for v in part),
            a_parts=tuple(tuple(part) for part in y_classes),
            c_parts=tuple(tuple(part) for part in [*x_classes, z_class]),
        )
    labeling = construct_partition_labeling(graph, cert)
    if labeling.span != expected:
        raise InternalError(
            f"order-class labeling has span {labeling.span}, expected {expected}"
        )
    return labeling


# ---------------------------------------------------------------------------
# Orchestration


def _complete_graph_labeling(graph: Graph) -> Labeling:
    return _checked(graph, [2 * v for v in range(graph.n)])


def _family_witness(g: FiniteGroup, value: int) -> Labeling | None:
    """Constructive witness in the constructor's own index layout, if any.

    Only descriptor families built by this package's constructors are
    eligible; structurally recognized but foreign-indexed groups fall back
    to the path-cover witness.
    """
    family = g.descriptor.family
    if family == "cyclic":
        if is_cyclic_prime_power(g):
            return None  # handled by the complete-graph labeling
        params = two_prime_cyclic_params(g)
        if params is not None:
            labeling = construct_zpqn_labeling(*params)
            if labeling.span != value:
                raise InternalError("family labeling disagrees with pinned value")
            return labeling
        return None
    if family == "dihedral":
        labeling = construct_dihedral_labeling(g.order // 2)
    elif family == "quaternion":
        labeling = construct_quaternion_labeling(g.order // 4)
    else:
        return None
    if labeling.span != value:
        raise InternalError("family labeling disagrees with pinned value")
    return labeling


def lambda_exact(g: FiniteGroup, *, method: str = "auto", verify: bool = False,
                 dp_limit: int = DEFAULT_DP_LIMIT,
                 backtrack_limit: int = DEFAULT_BACKTRACK_LIMIT,
                 clique_limit: int = DEFAULT_CLIQUE_LIMIT,
                 with_witness: bool = True,
                 budget_ms: int | None = None) -> LambdaReport:
    """Exact span of the power graph of ``g`` with witness and provenance.

    Strategy cascade for ``method="auto"``: a pinned bound ledger wins, then
    the path-cover reduction, then backtracking. ``verify=True`` runs every
    applicable method and raises VerificationError on disagreement. When no
    method fits the limits the report is bounds-only with ``exact=False``.
    """
    if method not in ("auto", "ledger", "pathcover", "backtrack"):
        raise ValueError(f"unknown method {method!r}")
    check_dp_limit(dp_limit)
    started = time.monotonic()
    deadline = started + budget_ms / 1000.0 if budget_ms is not None else None
    graph = build_power_graph(g)
    prediction = predict_lambda(g)
    bounds = bound_ledger(g, graph, clique_limit=clique_limit)
    lower, upper = _bound_window(bounds)
    pinned = lower == upper
    notes: list[str] = []
    results: dict[str, int] = {}
    labelings: dict[str, Labeling] = {}

    def out_of_time() -> bool:
        return deadline is not None and time.monotonic() > deadline

    def run_pathcover() -> None:
        sub = lambda_via_path_cover(graph, dp_limit=dp_limit, deadline=deadline)
        results["path-cover"] = sub.value  # type: ignore[assignment]
        labelings["path-cover"] = sub.labeling  # type: ignore[assignment]

    def run_backtrack() -> None:
        sub = lambda_backtrack(graph, limit=backtrack_limit, deadline=deadline)
        results["backtrack"] = sub.value  # type: ignore[assignment]
        labelings["backtrack"] = sub.labeling  # type: ignore[assignment]

    if pinned and (verify or method in ("auto", "ledger")):
        results["ledger"] = lower

    want = [method] if method != "auto" else ["ledger", "pathcover", "backtrack"]
    if verify:
        want = ["ledger", "pathcover", "backtrack"]

    if ("pathcover" in want and ("path-cover" not in results)
            and (verify or method == "pathcover"
                 or ("ledger" not in results and not out_of_time()))):
        try:
            run_pathcover()
        except CapacityExceeded as exc:
            notes.append(f"path-cover unavailable: {exc}")
    if ("backtrack" in want
            and (verify or method == "backtrack"
                 or (not results and not out_of_time()))):
        try:
            run_backtrack()
        except CapacityExceeded as exc:
            notes.append(f"backtrack unavailable: {exc}")

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

    for tag in ("ledger", "path-cover", "backtrack"):
        if tag in results:
            chosen_method = tag
            value = results[tag]
            break

    labeling = None
    if with_witness:
        labeling = labelings.get("path-cover") or labelings.get("backtrack")
        if labeling is None:
            if is_cyclic_prime_power(g):
                labeling = _complete_graph_labeling(graph)
            else:
                try:
                    labeling = _family_witness(g, value)
                except InternalError:
                    raise
                if labeling is None:
                    try:
                        cover_report = lambda_via_path_cover(graph, dp_limit=dp_limit,
                                                             deadline=deadline)
                        if cover_report.value != value:
                            raise VerificationError(
                                f"path-cover witness disagrees for {g.descriptor.name}",
                                values={"ledger": value,
                                        "path-cover": cover_report.value},
                            )
                        labeling = cover_report.labeling
                    except CapacityExceeded as exc:
                        notes.append(f"witness unavailable: {exc}")
        if labeling is not None:
            if labeling.span != value:
                raise InternalError("witness span disagrees with the computed value")
            check = validate_l21(graph, labeling)
            if not check.ok:
                raise InternalError("witness labeling failed validation")
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
