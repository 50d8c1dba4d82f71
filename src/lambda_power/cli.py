"""Command-line front end: group specs, span reports, sweeps and exports.

Spec grammar (whitespace-insensitive between tokens)::

    spec    := atom ( "x" atom )*
    atom    := "Z" int | "C" int | "D" int | "Q" int | "A5"
             | "perm:" cycles ( ";" cycles )*
    cycles  := ( "(" int+ ")" )+        disjoint cycles, 1-based

Exit codes: 0 exact, 1 error (a usage error too), 2 inexact (bounds only),
3 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import CapacityExceeded, GroupSpecError, VerificationError
from .groups import (
    FiniteGroup,
    GroupDescriptor,
    _check_capacity,
    from_descriptor,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
    permutation_from_cycles,
)
from .invariants import (
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
)
from .powergraph import build_power_graph

A5_CYCLES = (((1, 2, 3, 4, 5),), ((1, 2, 3),))

__all__ = [
    "build_group",
    "builtin_corpus",
    "canonical_spec",
    "main",
    "parse_group_spec",
]


# ---------------------------------------------------------------------------
# Group spec mini-language

_ATOM_FAMILIES = {"Z": "cyclic", "C": "cyclic", "D": "dihedral", "Q": "quaternion"}


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

    def parse(self) -> GroupDescriptor:
        descriptor = self._atom()
        while self._peek() == "x":
            self.pos += 1
            descriptor = GroupDescriptor.product(descriptor, self._atom())
        self._skip_ws()
        if self.pos != len(self.text):
            raise GroupSpecError("unexpected trailing input", self.pos)
        return descriptor

    def _atom(self) -> GroupDescriptor:
        head = self._peek()
        at = self.pos
        family = _ATOM_FAMILIES.get(head)
        if family is not None:
            self.pos += 1
            m = self._int()
            if family == "cyclic" and m < 1:
                raise GroupSpecError("cyclic order must be positive", at)
            if family == "dihedral" and (m < 6 or m % 2 != 0):
                raise GroupSpecError(
                    f"dihedral order must be even and at least 6, got {m}", at)
            if family == "quaternion" and (m < 8 or m % 4 != 0):
                raise GroupSpecError(
                    f"generalized quaternion order must be a multiple of 4, at least 8, got {m}",
                    at)
            return GroupDescriptor.atom(family, m)
        if head == "A":
            self._expect("A5")
            return _permutation_descriptor(A5_CYCLES, at, alias="A5")
        if head == "p":
            self._expect("perm:")
            generators = [self._cycles()]
            while self._peek() == ";":
                self.pos += 1
                generators.append(self._cycles())
            return _permutation_descriptor(generators, at)
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


def _permutation_descriptor(generators, at: int, alias: str | None = None) -> GroupDescriptor:
    try:
        images = [permutation_from_cycles(cycles) for cycles in generators]
    except ValueError as exc:
        raise GroupSpecError(str(exc), at) from None
    return GroupDescriptor.permutation(images, alias)


def parse_group_spec(text: str) -> GroupDescriptor:
    """Parse a group spec string; raises GroupSpecError with a position."""
    return _Parser(text).parse()


def canonical_spec(descriptor: GroupDescriptor) -> str:
    return descriptor.name


def build_group(descriptor: GroupDescriptor) -> FiniteGroup:
    return from_descriptor(descriptor)


def group_from_text(text: str) -> FiniteGroup:
    return build_group(parse_group_spec(text))


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


def builtin_corpus(cap: int) -> list[tuple[str, FiniteGroup]]:
    """Cyclic, abelian, dihedral and generalized quaternion groups up to order ``cap``.

    Other nonabelian groups are out of corpus; supply them explicitly as
    permutation generators instead.
    """
    entries: list[tuple[str, FiniteGroup]] = []
    for n in range(2, cap + 1):
        entries.append((f"Z{n}", make_cyclic(n)))
    for n in range(4, cap + 1):
        for spec in _abelian_specs(n):
            entries.append((spec, group_from_text(spec)))
    for m in range(6, cap + 1, 2):
        entries.append((f"D{m}", make_dihedral(m)))
    for m in range(8, cap + 1, 4):
        entries.append((f"Q{m}", make_generalized_quaternion(m)))
    entries.sort(key=lambda item: (item[1].order, item[0]))
    return entries


# ---------------------------------------------------------------------------
# Serialization


def _bounds_to_list(bounds) -> list[dict]:
    return [{"kind": b.kind, "value": b.value, "source": b.source, "exact": b.exact}
            for b in bounds]


def report_to_dict(report: LambdaReport) -> dict:
    return {
        "group": report.group,
        "order": report.order,
        "lambda": report.value,
        "exact": report.exact,
        "method": report.method,
        "bounds": _bounds_to_list(report.bounds),
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


def _print_report(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
        return
    value = payload["lambda"] if payload["lambda"] is not None else "unknown"
    print(f"group      {payload['group']}")
    print(f"order      {payload['order']}")
    print(f"lambda     {value}{'' if payload['exact'] else ' (inexact)'}")
    print(f"method     {payload['method']}")
    for bound in payload["bounds"]:
        marker = "" if bound["exact"] else "  [inexact]"
        print(f"  {bound['kind']:<5} {bound['value']:>6}  {bound['source']}{marker}")
    oracle = payload["oracle"]
    if oracle is not None and oracle["value"] is not None:
        print(f"oracle     {oracle['value']} via {oracle['source']}")
        print(f"agreement  {payload['agreement']}")
    if payload["labeling"] is not None:
        print(f"labeling   {payload['labeling']}")
    for note in payload["notes"]:
        print(f"note       {note}")
    print(f"runtime    {payload['runtime_ms']} ms")


class _Cache:
    """Append-only JSON-lines result cache keyed by spec, options and
    package version, so a solver change never serves a stale result.

    A line that is not a ``{"key": ..., "report": {...}}`` record is skipped
    with a warning on stderr.
    """

    def __init__(self, path: str):
        self.path = path
        self.entries: dict[str, dict] = {}
        self.needs_newline = False
        if not os.path.exists(path):
            return
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        self.needs_newline = bool(text) and not text.endswith("\n")
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                key, report = record["key"], record["report"]
                valid = isinstance(key, str) and isinstance(report, dict)
            except (ValueError, KeyError, TypeError):
                valid = False
            if not valid:
                print(f"warning: {path}:{number}: skipping corrupt cache line",
                      file=sys.stderr)
                continue
            self.entries[key] = report

    def get(self, key: str) -> dict | None:
        return self.entries.get(key)

    def put(self, key: str, report: dict) -> None:
        if key in self.entries:
            return
        self.entries[key] = report
        with open(self.path, "a", encoding="utf-8") as handle:
            if self.needs_newline:  # do not extend a truncated last line
                handle.write("\n")
                self.needs_newline = False
            handle.write(json.dumps({"key": key, "report": report}))
            handle.write("\n")


# ---------------------------------------------------------------------------
# Commands


def _load_group(text: str) -> FiniteGroup | None:
    """The group a spec names, or None after an ``error:`` line on stderr."""
    try:
        return build_group(parse_group_spec(text))
    except (ValueError, CapacityExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_lambda(args) -> int:
    group = _load_group(args.spec)
    if group is None:
        return 1
    cache = _Cache(args.cache) if args.cache else None
    cache_key = (f"{group.descriptor.name}|method={args.method}"
                 f"|verify={args.verify}|witness={not args.no_witness}"
                 f"|version={__version__}")
    if cache is not None:
        hit = cache.get(cache_key)
        if hit is not None:
            _print_report(hit, args.json)
            return 0 if hit["exact"] else 2
    try:
        report = lambda_exact(
            group,
            method=args.method,
            verify=args.verify,
            with_witness=not args.no_witness,
            budget_ms=args.budget_ms,
        )
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    payload = report_to_dict(report)
    if cache is not None and report.exact:
        cache.put(cache_key, payload)
    _print_report(payload, args.json)
    return 0 if report.exact else 2


def _parse_range(text: str, default: tuple[int, int]) -> tuple[int, int]:
    if not text:
        return default
    lo, sep, hi = text.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise ValueError(f"range must be N or LO..HI, got {text!r}") from None


_ZPQN_CASES = ((2, 3, 1), (3, 2, 1), (2, 3, 2), (3, 2, 2), (2, 5, 1), (5, 2, 1))
_RANGE_FAMILIES = {  # spec prefix, order step, default range
    "dihedral": ("D", 2, (3, 8)),
    "quaternion": ("Q", 4, (2, 5)),
    "cyclic": ("Z", 1, (2, 20)),
}


def _family_specs(family: str, range_text: str) -> list[tuple[int, str]]:
    """(order, spec) for each member of a ``verify`` family, in row order."""
    if family == "zpqn":
        return [(p * q ** n, f"Z{p * q ** n}") for p, q, n in _ZPQN_CASES]
    if family == "elementary-abelian":
        lo, hi = _parse_range(range_text, (4, 16))
        found = []
        for p in (2, 3, 5, 7, 11, 13):
            power, exponent = p * p, 2
            while power <= hi:
                if power >= lo:
                    found.append((power, "x".join([f"Z{p}"] * exponent)))
                power *= p
                exponent += 1
        return sorted(found)
    prefix, step, default = _RANGE_FAMILIES[family]
    lo, hi = _parse_range(range_text, default)
    return [(step * k, f"{prefix}{step * k}") for k in range(lo, hi + 1)]


def cmd_verify(args) -> int:
    try:
        members = _family_specs(args.family, args.range)
        descriptors = [parse_group_spec(text) for _, text in members]
        for order, _ in members:  # refuse before the first row is printed
            _check_capacity(order)
    except (ValueError, CapacityExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("spec,order,lambda_solver,lambda_oracle,source,match")
    all_match = True
    failed = False
    for descriptor in descriptors:
        group = build_group(descriptor)
        report = lambda_exact(group)
        prediction = report.oracle
        solver = report.value if report.exact else None
        if solver is None:
            status = "skipped"
            failed = failed or args.strict
        else:
            match = prediction.value is None or prediction.value == solver
            all_match = all_match and match
            status = "yes" if match else "NO"
        fields = (descriptor.name, group.order, solver, prediction.value,
                  prediction.source, status)
        print(",".join("" if f is None else str(f) for f in fields))
    return 3 if not all_match else 2 if failed else 0


def cmd_invariants(args) -> int:
    group = _load_group(args.spec)
    if group is None:
        return 1
    graph = build_power_graph(group)
    payload: dict[str, object] = {"group": group.descriptor.name, "order": group.order}
    try:
        payload["clique_number"] = clique_number(graph).value
    except CapacityExceeded:
        payload["clique_number"] = None
    try:
        payload["independence_number"] = independence_number(graph).value
    except CapacityExceeded:
        payload["independence_number"] = None
    try:
        payload["complement_path_cover"] = path_cover_number(graph.complement).count
    except CapacityExceeded:
        payload["complement_path_cover"] = None
    payload["identity_deleted_components"] = cut_vertex_component_profile(graph, 0)
    trivially_meeting, balanced = decomposition_conditions(group)
    payload["cyclic_decomposition_conditions"] = {
        "pairwise_trivial": trivially_meeting, "balanced_sizes": balanced}
    p4 = find_complement_p4(graph)
    payload["complement_p4"] = list(p4) if p4 else None
    payload["bounds"] = _bounds_to_list(bound_ledger(group))
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key:<32} {value}")
    return 0


def cmd_graph(args) -> int:
    group = _load_group(args.spec)
    if group is None:
        return 1
    graph = build_power_graph(group)
    edges = graph.edges()
    if args.format == "json":
        print(json.dumps({
            "n": graph.n,
            "identity": 0,
            "edges": [list(e) for e in edges],
        }, indent=2))
    elif args.format == "csv":
        print("u,v")
        for u, v in edges:
            print(f"{u},{v}")
    else:
        print(f'graph "{group.descriptor.name}" {{')
        for v in range(graph.n):
            print(f'  {v} [label="{v} (ord {group.orders[v]})"];')
        for u, v in edges:
            print(f"  {u} -- {v};")
        print("}")
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
        report = lambda_exact(group, with_witness=False)
        lam = report.value if report.exact else None
        alpha2_ok = classify_alpha2(group) == (alpha == 2)
        if lam is None:
            rows.append((spec, group.order, "", alpha, "skipped", "skipped",
                         "ok" if alpha2_ok else "FAIL"))
            failures += 0 if alpha2_ok else 1
            continue
        lower = check_lower_equality(group, lam)
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

    p_lambda = sub.add_parser("lambda", help="compute the span of one group")
    p_lambda.add_argument("spec")
    p_lambda.add_argument("--method", choices=["auto", "ledger", "pathcover", "backtrack"],
                          default="auto")
    p_lambda.add_argument("--verify", action="store_true",
                          help="run all applicable methods and require agreement")
    p_lambda.add_argument("--json", action="store_true")
    p_lambda.add_argument("--no-witness", action="store_true")
    p_lambda.add_argument("--budget-ms", type=int, default=None)
    p_lambda.add_argument("--cache", default=None)
    p_lambda.set_defaults(func=cmd_lambda)

    p_verify = sub.add_parser("verify", help="sweep a family against the closed forms")
    p_verify.add_argument("family", choices=["dihedral", "quaternion", "cyclic",
                                             "elementary-abelian", "zpqn"])
    p_verify.add_argument("range", nargs="?", default="")
    p_verify.add_argument("--strict", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_inv = sub.add_parser("invariants", help="structural probes for one group")
    p_inv.add_argument("spec")
    p_inv.add_argument("--json", action="store_true")
    p_inv.set_defaults(func=cmd_invariants)

    p_graph = sub.add_parser("graph", help="export the power graph")
    p_graph.add_argument("spec")
    p_graph.add_argument("--format", choices=["dot", "json", "csv"], default="dot")
    p_graph.set_defaults(func=cmd_graph)

    p_enum = sub.add_parser("enumerate", help="sweep the built-in corpus")
    p_enum.add_argument("--max-order", type=int, default=16)
    p_enum.set_defaults(func=cmd_enumerate)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 means inexact here
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
