"""Per-layer tracing of the lambda_power package, applied from outside.

Each public function listed in ``TRACED`` is replaced by a wrapper that
records one span per call: name, start, end, parent span and instance id.
A module that imported the function with ``from .x import y`` holds its own
reference, so the wrapper is bound into every module of the package that
holds one; otherwise internal calls would bypass it. Spans stay in memory
and are written out once, when the run ends.

Generator functions (``powergraph.bits``) are not traced: their body runs
after the call returns, so a span would time only the generator's creation.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

# Public functions per layer (the ``__all__`` functions of each module).
TRACED = {
    "groups": (
        "cyclic_subgroup", "direct_product", "element_order", "from_permutations",
        "is_P_group", "make_cyclic", "make_dihedral", "make_generalized_quaternion",
        "maximal_cyclic_subgroups", "permutation_from_cycles",
    ),
    "powergraph": (
        "build_power_graph", "complement", "connected_components", "delete_vertex",
        "diameter_at_most_two",
    ),
    "invariants": (
        "clique_number", "cut_vertex_component_profile", "find_complement_p4",
        "hamilton_path", "independence_number", "path_cover_number",
    ),
    "labeling": (
        "bound_ledger", "construct_dihedral_labeling", "construct_partition_labeling",
        "construct_quaternion_labeling", "construct_zpqn_labeling", "lambda_backtrack",
        "lambda_exact", "lambda_via_path_cover", "validate_l21",
    ),
    "oracle": (
        "check_lower_equality", "check_upper_classification", "classify_alpha2",
        "decomposition_conditions", "dihedral_params", "euler_phi", "factorize",
        "is_cyclic", "is_cyclic_prime_power", "predict_lambda", "quaternion_params",
        "two_prime_cyclic_params",
    ),
    "cli": ("build_group", "builtin_corpus", "canonical_spec", "main", "parse_group_spec"),
}

# Functions that raise CapacityExceeded themselves or let it propagate.
REFUSING = frozenset({
    "groups.make_cyclic", "groups.make_dihedral", "groups.make_generalized_quaternion",
    "groups.direct_product", "groups.from_permutations",
    "invariants.clique_number", "invariants.independence_number",
    "invariants.hamilton_path", "invariants.path_cover_number",
    "labeling.lambda_via_path_cover", "labeling.lambda_backtrack", "cli.build_group",
})

# Derived objects that should be computed once per group.
PER_INSTANCE = (
    "powergraph.build_power_graph", "powergraph.complement", "labeling.validate_l21",
    "groups.maximal_cyclic_subgroups", "groups.make_cyclic", "groups.make_dihedral",
    "groups.make_generalized_quaternion",
)

LAMBDA_EXACT = "labeling.lambda_exact"


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


def layer_metric_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units: dict[str, str] = {}
    for name in traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        if name in REFUSING:
            units[f"{name}.capacity_exceeded"] = "count"
    for name in PER_INSTANCE:
        units[f"{name}.calls_per_instance"] = "1/instance"
    units[f"{LAMBDA_EXACT}.pinned_ratio"] = "ratio"
    units[f"{LAMBDA_EXACT}.budget_overrun_ms_max"] = "ms"
    units["trace.overhead_s"] = "s"
    return units


# Span fields.
NAME, START, END, PARENT, INSTANCE, CHILD_S, REFUSED, NOTE = range(8)


class Tracer:
    """Records spans while ``enabled``; passes calls straight through otherwise."""

    def __init__(self, package: str = "lambda_power"):
        self.package = package
        self.spans: list[list] = []
        self.enabled = False
        self.instance: str | None = None
        self._stack: list[int] = []

    def install(self) -> None:
        refusal = sys.modules[f"{self.package}.errors"].CapacityExceeded
        wrappers = {}
        for name in traced_names():
            layer, attr = name.split(".")
            fn = getattr(sys.modules[f"{self.package}.{layer}"], attr, None)
            if fn is not None:
                observe = _observe_lambda_exact if name == LAMBDA_EXACT else None
                wrappers[fn] = self._wrap(name, fn, refusal, observe)
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(prefix):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _wrap(self, name, fn, refusal, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.instance, 0.0, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except refusal:
                span[REFUSED] = True
                raise
            finally:
                end = time.perf_counter()
                span[END] = end
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_S] += end - span[START]
            if observe is not None:
                span[NOTE] = observe(kwargs, result)
            return result

        return traced

    def layer_metrics(self, passes: int, instances: int) -> dict[str, float]:
        """Per-layer metrics from the recorded spans; totals are per traced pass."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        refused: dict[str, int] = {}
        pinned = exact_calls = 0
        overrun_ms = 0.0
        for span in self.spans:
            name = span[NAME]
            duration = span[END] - span[START]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + duration - span[CHILD_S]
            refused[name] = refused.get(name, 0) + span[REFUSED]
            if name == LAMBDA_EXACT and span[NOTE] is not None:
                budget_ms, was_pinned = span[NOTE]
                exact_calls += 1
                pinned += was_pinned
                if budget_ms is not None:
                    overrun_ms = max(overrun_ms, duration * 1000.0 - budget_ms)
        metrics: dict[str, float] = {}
        for name in traced_names():
            metrics[f"{name}.calls"] = calls.get(name, 0) / passes
            metrics[f"{name}.self_ms"] = self_s.get(name, 0.0) * 1000.0 / passes
            if name in REFUSING:
                metrics[f"{name}.capacity_exceeded"] = refused.get(name, 0) / passes
        for name in PER_INSTANCE:
            metrics[f"{name}.calls_per_instance"] = calls.get(name, 0) / instances
        metrics[f"{LAMBDA_EXACT}.pinned_ratio"] = pinned / exact_calls if exact_calls else 0.0
        metrics[f"{LAMBDA_EXACT}.budget_overrun_ms_max"] = overrun_ms
        return metrics

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "instance"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": [s[:INSTANCE + 1] for s in self.spans]},
                      handle, separators=(",", ":"))


def _observe_lambda_exact(kwargs, report):
    return kwargs.get("budget_ms"), "ledger" in report.methods_run
