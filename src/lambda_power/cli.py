"""Command-line front end: group specs, span reports, sweeps and exports.

Spec grammar (whitespace-insensitive between tokens)::

    spec    := atom ( "x" atom )*
    atom    := "Z" int | "C" int | "D" int | "Q" int | "A5"
             | "perm:" cycles ( ";" cycles )*
    cycles  := ( "(" int+ ")" )+        disjoint cycles, 1-based

Exit codes: 0 exact, 1 error, 2 inexact (bounds only), 3 verification
mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .errors import CapacityExceeded, GroupSpecError, VerificationError
from .groups import (
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    direct_product,
    from_permutations,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
    permutation_from_cycles,
)
from .invariants import (
    DEFAULT_DP_LIMIT,
    clique_number,
    cut_vertex_component_profile,
    find_complement_p4,
    independence_number,
    path_cover_number,
)
from .labeling import LambdaReport, bound_ledger, lambda_exact
from .oracle import (
    check_lower_equality,
    check_upper_classification,
    classify_alpha2,
    decomposition_conditions,
    factorize,
    is_cyclic_prime_power,
    predict_lambda,
)
from .powergraph import build_power_graph, complement

A5_CYCLES = (((1, 2, 3, 4, 5),), ((1, 2, 3),))

__all__ = [
    "GroupSpec",
    "build_group",
    "builtin_corpus",
    "canonical_spec",
    "main",
    "parse_group_spec",
]


# ---------------------------------------------------------------------------
# Group spec mini-language


@dataclass(frozen=True)
class _Cyclic:
    n: int


@dataclass(frozen=True)
class _Dihedral:
    order: int


@dataclass(frozen=True)
class _Quaternion:
    order: int


@dataclass(frozen=True)
class _Permutation:
    generators: tuple[tuple[tuple[int, ...], ...], ...]  # cycles per generator
    alias: str | None = None


@dataclass(frozen=True)
class _Product:
    factors: tuple


@dataclass(frozen=True)
class GroupSpec:
    text: str
    root: object


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, token: str) -> None:
        self._skip_ws()
        if not self.text.startswith(token, self.pos):
            raise GroupSpecError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def _int(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise GroupSpecError("expected an integer", start)
        return int(self.text[start:self.pos])

    def parse(self) -> GroupSpec:
        factors = [self._atom()]
        while self._peek() == "x":
            self.pos += 1
            factors.append(self._atom())
        self._skip_ws()
        if self.pos != len(self.text):
            raise GroupSpecError("unexpected trailing input", self.pos)
        root = factors[0] if len(factors) == 1 else _Product(tuple(factors))
        return GroupSpec(self.text, root)

    def _atom(self):
        head = self._peek()
        at = self.pos
        if head in ("Z", "C"):
            self.pos += 1
            n = self._int()
            if n < 1:
                raise GroupSpecError("cyclic order must be positive", at)
            return _Cyclic(n)
        if head == "D":
            self.pos += 1
            m = self._int()
            if m < 6 or m % 2 != 0:
                raise GroupSpecError(
                    f"dihedral order must be even and at least 6, got {m}", at)
            return _Dihedral(m)
        if head == "Q":
            self.pos += 1
            m = self._int()
            if m < 8 or m % 4 != 0:
                raise GroupSpecError(
                    f"generalized quaternion order must be a multiple of 4, at least 8, got {m}",
                    at)
            return _Quaternion(m)
        if head == "A":
            self._expect("A5")
            return _Permutation(A5_CYCLES, alias="A5")
        if head == "p":
            self._expect("perm:")
            generators = [self._cycles()]
            while self._peek() == ";":
                self.pos += 1
                generators.append(self._cycles())
            return _Permutation(tuple(generators))
        raise GroupSpecError("expected a group atom (Z, C, D, Q, A5 or perm:)", at)

    def _cycles(self) -> tuple[tuple[int, ...], ...]:
        cycles = []
        self._expect("(")
        while True:
            entries = [self._int()]
            while self._peek() not in (")", ""):
                entries.append(self._int())
            self._expect(")")
            cycles.append(tuple(entries))
            if self._peek() != "(":
                break
            self.pos += 1
        return tuple(cycles)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a group spec string; raises GroupSpecError with a position."""
    return _Parser(text).parse()


def canonical_spec(spec: GroupSpec) -> str:
    return _print_node(spec.root)


def _print_node(node) -> str:
    if isinstance(node, _Cyclic):
        return f"Z{node.n}"
    if isinstance(node, _Dihedral):
        return f"D{node.order}"
    if isinstance(node, _Quaternion):
        return f"Q{node.order}"
    if isinstance(node, _Permutation):
        if node.alias:
            return node.alias
        parts = []
        for cycles in node.generators:
            nontrivial = [c for c in cycles if len(c) > 1]
            if nontrivial:
                parts.append("".join(
                    "(" + " ".join(map(str, c)) + ")" for c in nontrivial))
        return "perm:" + ";".join(parts) if parts else "Z1"
    if isinstance(node, _Product):
        return "x".join(_print_node(f) for f in node.factors)
    raise TypeError(f"unknown spec node {node!r}")


def build_group(spec: GroupSpec, *, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    return _build_node(spec.root, max_order)


def _build_node(node, max_order: int) -> FiniteGroup:
    if isinstance(node, _Cyclic):
        return make_cyclic(node.n, max_order=max_order)
    if isinstance(node, _Dihedral):
        return make_dihedral(node.order, max_order=max_order)
    if isinstance(node, _Quaternion):
        return make_generalized_quaternion(node.order, max_order=max_order)
    if isinstance(node, _Permutation):
        images = [permutation_from_cycles(cycles) for cycles in node.generators]
        domain = max((len(p) for p in images), default=1)
        padded = [tuple(p) + tuple(range(len(p) + 1, domain + 1)) for p in images]
        return from_permutations(padded, max_order=max_order, alias=node.alias)
    if isinstance(node, _Product):
        group = _build_node(node.factors[0], max_order)
        for factor in node.factors[1:]:
            group = direct_product(group, _build_node(factor, max_order),
                                   max_order=max_order)
        return group
    raise TypeError(f"unknown spec node {node!r}")


def group_from_text(text: str, *, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    return build_group(parse_group_spec(text), max_order=max_order)


# ---------------------------------------------------------------------------
# Built-in corpus


def _partitions(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, cap), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return out


def _abelian_specs(order: int) -> list[str]:
    """Primary-decomposition specs of the noncyclic abelian groups of this order."""
    factors = factorize(order)
    primes = sorted(factors)
    specs: list[str] = []

    def rec(i: int, acc: list[int], cyclic: bool) -> None:
        if i == len(primes):
            if not cyclic:  # one factor per prime would be the cyclic group
                specs.append("x".join(f"Z{f}" for f in acc))
            return
        p = primes[i]
        for partition in _partitions(factors[p]):
            parts = [p ** e for e in sorted(partition)]
            rec(i + 1, acc + parts, cyclic and len(parts) == 1)

    rec(0, [], True)
    return sorted(set(specs))


def builtin_corpus(max_order: int) -> list[tuple[str, FiniteGroup]]:
    """Cyclic, abelian, dihedral and generalized quaternion groups up to a cap.

    Other nonabelian groups are out of corpus; supply them explicitly as
    permutation generators instead.
    """
    entries: list[tuple[str, FiniteGroup]] = []
    for n in range(2, max_order + 1):
        entries.append((f"Z{n}", make_cyclic(n)))
    for n in range(4, max_order + 1):
        for spec in _abelian_specs(n):
            entries.append((spec, group_from_text(spec)))
    for m in range(6, max_order + 1, 2):
        entries.append((f"D{m}", make_dihedral(m)))
    for m in range(8, max_order + 1, 4):
        entries.append((f"Q{m}", make_generalized_quaternion(m)))
    entries.sort(key=lambda item: (item[1].order, item[0]))
    return entries


# ---------------------------------------------------------------------------
# Serialization


def report_to_dict(report: LambdaReport) -> dict:
    return {
        "group": report.group,
        "order": report.order,
        "lambda": report.value,
        "exact": report.exact,
        "method": report.method,
        "bounds": [
            {"kind": b.kind, "value": b.value, "source": b.source, "exact": b.exact}
            for b in report.bounds
        ],
        "labeling": list(report.labeling.labels) if report.labeling else None,
        "oracle": (
            {"value": report.oracle.value, "source": report.oracle.source}
            if report.oracle is not None else None
        ),
        "agreement": report.agreement,
        "runtime_ms": report.runtime_ms,
        "methods_run": list(report.methods_run),
        "notes": list(report.notes),
    }


def _print_report(report: LambdaReport, stream) -> None:
    value = report.value if report.value is not None else "unknown"
    print(f"group      {report.group}", file=stream)
    print(f"order      {report.order}", file=stream)
    print(f"lambda     {value}{'' if report.exact else ' (inexact)'}", file=stream)
    print(f"method     {report.method}", file=stream)
    for bound in report.bounds:
        marker = "" if bound.exact else "  [inexact]"
        print(f"  {bound.kind:<5} {bound.value:>6}  {bound.source}{marker}", file=stream)
    if report.oracle is not None and report.oracle.value is not None:
        print(f"oracle     {report.oracle.value} via {report.oracle.source}", file=stream)
        print(f"agreement  {report.agreement}", file=stream)
    if report.labeling is not None:
        print(f"labeling   {list(report.labeling.labels)}", file=stream)
    for note in report.notes:
        print(f"note       {note}", file=stream)
    print(f"runtime    {report.runtime_ms} ms", file=stream)


class _Cache:
    """Append-only JSON-lines result cache keyed by spec, method and limits."""

    def __init__(self, path: str):
        self.path = path
        self.entries: dict[str, dict] = {}
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    self.entries[record["key"]] = record["report"]

    def get(self, key: str) -> dict | None:
        return self.entries.get(key)

    def put(self, key: str, report: dict) -> None:
        if key in self.entries:
            return
        self.entries[key] = report
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": key, "report": report}, sort_keys=True))
            handle.write("\n")


def _dp_limit_default() -> int:
    env = os.environ.get("LAMBDA_POWER_DP_LIMIT")
    if env:
        try:
            return int(env)
        except ValueError:
            print(f"warning: LAMBDA_POWER_DP_LIMIT={env!r} is not an integer; "
                  f"using the default {DEFAULT_DP_LIMIT}", file=sys.stderr)
    return DEFAULT_DP_LIMIT


# ---------------------------------------------------------------------------
# Commands


def cmd_lambda(args) -> int:
    try:
        spec = parse_group_spec(args.spec)
        group = build_group(spec)
    except (GroupSpecError, ValueError, CapacityExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name = canonical_spec(spec)
    cache = _Cache(args.cache) if args.cache else None
    cache_key = (f"{name}|method={args.method}|dp={args.dp_limit}"
                 f"|verify={args.verify}|witness={not args.no_witness}")
    if cache is not None:
        hit = cache.get(cache_key)
        if hit is not None:
            _emit_lambda(hit, args)
            return 0 if hit["exact"] else 2
    try:
        report = lambda_exact(
            group,
            method={"auto": "auto", "ledger": "ledger", "pathcover": "pathcover",
                    "backtrack": "backtrack"}[args.method],
            verify=args.verify,
            dp_limit=args.dp_limit,
            with_witness=not args.no_witness,
            budget_ms=args.budget_ms,
        )
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    payload = report_to_dict(report)
    payload["group"] = name
    if cache is not None and report.exact:
        cache.put(cache_key, payload)
    _emit_lambda(payload, args, report=report)
    return 0 if report.exact else 2


def _emit_lambda(payload: dict, args, report: LambdaReport | None = None) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    elif report is not None:
        _print_report(report, sys.stdout)
    else:
        for key in ("group", "order", "lambda", "method"):
            print(f"{key:<10} {payload[key]}")


def _parse_range(text: str, default: tuple[int, int]) -> tuple[int, int]:
    if not text:
        return default
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    value = int(text)
    return value, value


_ZPQN_CASES = ((2, 3, 1), (3, 2, 1), (2, 3, 2), (3, 2, 2), (2, 5, 1), (5, 2, 1))


def cmd_verify(args) -> int:
    family = args.family
    instances: list[str] = []
    if family == "dihedral":
        lo, hi = _parse_range(args.range, (3, 8))
        instances = [f"D{2 * k}" for k in range(lo, hi + 1)]
    elif family == "quaternion":
        lo, hi = _parse_range(args.range, (2, 5))
        instances = [f"Q{4 * k}" for k in range(lo, hi + 1)]
    elif family == "cyclic":
        lo, hi = _parse_range(args.range, (2, 20))
        instances = [f"Z{n}" for n in range(lo, hi + 1)]
    elif family == "elementary-abelian":
        lo, hi = _parse_range(args.range, (4, 16))
        for p in (2, 3, 5, 7, 11, 13):
            power = p * p
            exponent = 2
            while power <= hi:
                if power >= lo:
                    instances.append("x".join([f"Z{p}"] * exponent))
                power *= p
                exponent += 1
        instances.sort(key=lambda s: (group_from_text(s).order, s))
    elif family == "zpqn":
        instances = [f"Z{p * q ** n}" for p, q, n in _ZPQN_CASES]
    else:
        print(f"error: unknown family {family!r}", file=sys.stderr)
        return 1

    print("spec,order,lambda_solver,lambda_oracle,source,match")
    all_match = True
    failed = False
    for text in instances:
        group = group_from_text(text)
        prediction = predict_lambda(group)
        try:
            report = lambda_exact(group, dp_limit=args.dp_limit)
            solver = report.value if report.exact else None
        except CapacityExceeded:
            solver = None
        if solver is None:
            print(f"{text},{group.order},,"
                  f"{prediction.value if prediction.value is not None else ''},"
                  f"{prediction.source or ''},skipped")
            if args.strict:
                failed = True
            continue
        match = prediction.value is None or prediction.value == solver
        all_match = all_match and match
        print(f"{text},{group.order},{solver},"
              f"{prediction.value if prediction.value is not None else ''},"
              f"{prediction.source or ''},{'yes' if match else 'NO'}")
    if failed or not all_match:
        return 3 if not all_match else 2
    return 0


def cmd_invariants(args) -> int:
    try:
        spec = parse_group_spec(args.spec)
        group = build_group(spec)
    except (GroupSpecError, ValueError, CapacityExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    graph = build_power_graph(group)
    payload: dict[str, object] = {"group": canonical_spec(spec), "order": group.order}
    try:
        payload["clique_number"] = clique_number(graph).value
    except CapacityExceeded:
        payload["clique_number"] = None
    try:
        payload["independence_number"] = independence_number(graph).value
    except CapacityExceeded:
        payload["independence_number"] = None
    try:
        payload["complement_path_cover"] = path_cover_number(
            complement(graph), dp_limit=args.dp_limit).count
    except CapacityExceeded:
        payload["complement_path_cover"] = None
    payload["identity_deleted_components"] = cut_vertex_component_profile(
        graph, graph.identity_vertex or 0)
    trivially_meeting, balanced = decomposition_conditions(group)
    payload["cyclic_decomposition_conditions"] = {
        "pairwise_trivial": trivially_meeting, "balanced_sizes": balanced}
    p4 = find_complement_p4(graph)
    payload["complement_p4"] = list(p4) if p4 else None
    payload["bounds"] = [
        {"kind": b.kind, "value": b.value, "source": b.source, "exact": b.exact}
        for b in bound_ledger(group, graph)
    ]
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key:<32} {value}")
    return 0


def cmd_graph(args) -> int:
    try:
        spec = parse_group_spec(args.spec)
        group = build_group(spec)
    except (GroupSpecError, ValueError, CapacityExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    graph = build_power_graph(group)
    edges = graph.edges()
    if args.format == "json":
        print(json.dumps({
            "n": graph.n,
            "identity": graph.identity_vertex,
            "edges": [list(e) for e in edges],
        }, indent=2))
    elif args.format == "csv":
        print("u,v")
        for u, v in edges:
            print(f"{u},{v}")
    elif args.format == "dot":
        name = canonical_spec(spec)
        print(f'graph "{name}" {{')
        for v in range(graph.n):
            print(f'  {v} [label="{v} (ord {group.orders[v]})"];')
        for u, v in edges:
            print(f"  {u} -- {v};")
        print("}")
    else:
        print(f"error: unknown format {args.format!r}", file=sys.stderr)
        return 1
    return 0


def cmd_enumerate(args) -> int:
    if args.max_order > 30:
        print("error: enumerate corpus is capped at order 30", file=sys.stderr)
        return 1
    rows = []
    failures = 0
    for spec, group in builtin_corpus(args.max_order):
        graph = build_power_graph(group)
        alpha = independence_number(graph).value
        try:
            report = lambda_exact(group, dp_limit=args.dp_limit, with_witness=False)
            lam = report.value if report.exact else None
        except CapacityExceeded:
            lam = None
        alpha2_ok = classify_alpha2(group) == (alpha == 2)
        if lam is None:
            rows.append((spec, group.order, "", alpha, "skipped", "skipped",
                         "ok" if alpha2_ok else "FAIL"))
            failures += 0 if alpha2_ok else 1
            continue
        lower = check_lower_equality(group, lam, dp_limit=args.dp_limit)
        lower_status = {True: "ok", False: "FAIL", None: "inconclusive"}[lower.ok]
        if is_cyclic_prime_power(group):
            upper_status = "n/a"
        else:
            upper_status = "ok" if check_upper_classification(group, lam).ok else "FAIL"
        rows.append((spec, group.order, lam, alpha, lower_status, upper_status,
                     "ok" if alpha2_ok else "FAIL"))
        failures += sum(1 for s in (lower_status, upper_status) if s == "FAIL")
        failures += 0 if alpha2_ok else 1
    print("spec,order,lambda,alpha,lower_equality,upper_classification,alpha2_iff")
    for row in rows:
        print(",".join(str(x) for x in row))
    return 3 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lambda-power",
        description="Exact L(2,1)-labeling spans of power graphs of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    dp_limit = _dp_limit_default()

    p_lambda = sub.add_parser("lambda", help="compute the span of one group")
    p_lambda.add_argument("spec")
    p_lambda.add_argument("--method", choices=["auto", "ledger", "pathcover", "backtrack"],
                          default="auto")
    p_lambda.add_argument("--verify", action="store_true",
                          help="run all applicable methods and require agreement")
    p_lambda.add_argument("--json", action="store_true")
    p_lambda.add_argument("--no-witness", action="store_true")
    p_lambda.add_argument("--budget-ms", type=int, default=None)
    p_lambda.add_argument("--dp-limit", type=int, default=dp_limit)
    p_lambda.add_argument("--cache", default=None)
    p_lambda.set_defaults(func=cmd_lambda)

    p_verify = sub.add_parser("verify", help="sweep a family against the closed forms")
    p_verify.add_argument("family", choices=["dihedral", "quaternion", "cyclic",
                                             "elementary-abelian", "zpqn"])
    p_verify.add_argument("range", nargs="?", default="")
    p_verify.add_argument("--strict", action="store_true")
    p_verify.add_argument("--dp-limit", type=int, default=dp_limit)
    p_verify.set_defaults(func=cmd_verify)

    p_inv = sub.add_parser("invariants", help="structural probes for one group")
    p_inv.add_argument("spec")
    p_inv.add_argument("--json", action="store_true")
    p_inv.add_argument("--dp-limit", type=int, default=dp_limit)
    p_inv.set_defaults(func=cmd_invariants)

    p_graph = sub.add_parser("graph", help="export the power graph")
    p_graph.add_argument("spec")
    p_graph.add_argument("--format", choices=["dot", "json", "csv"], default="dot")
    p_graph.set_defaults(func=cmd_graph)

    p_enum = sub.add_parser("enumerate", help="sweep the built-in corpus")
    p_enum.add_argument("--max-order", type=int, default=16)
    p_enum.add_argument("--dp-limit", type=int, default=dp_limit)
    p_enum.set_defaults(func=cmd_enumerate)

    args = parser.parse_args(argv)
    if getattr(args, "dp_limit", 0) < 0:
        print(f"error: --dp-limit must be non-negative, got {args.dp_limit}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
