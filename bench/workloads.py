"""The benchmark's workloads: their instances, the timed call and the answer checks.

Every instance starts from its spec string, so group construction is part
of the timed call, and is checked right after it, untimed. The seed only
permutes the order of the instances. NOTES.md says why each workload was
chosen.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_JSON = HERE / "expected.json"
EXPECTED_CSV = HERE / "expected_enumerate_20.csv"

PINNED_SPECS = (
    "D512", "D1024", "Q512", "Q1024", "Z729", "x".join(["Z2"] * 9), "x".join(["Z3"] * 5),
    "perm:(1 2 3 4 5 6);(1 2)",
)
ENUMERATE_MAX_ORDER = 20
SMOKE_MAX_ORDER = 6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "library": lambda_exact per spec; "cli": one enumerate call
    solve_kwargs: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w for w in (
        Workload("enumerate-20", "cli"),
        Workload("reach-21-48", "library", {"budget_ms": 1000}),
        Workload("pinned-large", "library", {}),
        Workload("verify-16", "library", {"verify": True, "budget_ms": 3000}),
    )
}


def corpus_specs(lp, name: str) -> list[str]:
    """The instance list of a library workload, from the package's own corpus."""
    if name == "reach-21-48":
        return [s for s, g in lp.cli.builtin_corpus(48) if 21 <= g.order <= 48]
    if name == "verify-16":
        return [s for s, _ in lp.cli.builtin_corpus(16)]
    if name == "pinned-large":
        return list(PINNED_SPECS)
    raise KeyError(name)


@dataclass
class PassResult:
    seconds: float = 0.0  # wall time of the timed calls
    samples: list[float] = field(default_factory=list)  # per-instance seconds
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    exact: int = 0
    bounds_only: int = 0
    verified: int = 0
    peak_rss_mb: float = 0.0  # process high-water mark when the pass ended


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs and checks passes of one workload against the recorded seed answers."""

    def __init__(self, lp, workload: Workload, seed: int, smoke: bool = False):
        self.lp = lp
        self.workload = workload
        with open(EXPECTED_JSON, encoding="utf-8") as handle:
            recorded = json.load(handle)
        if workload.kind == "cli":
            self.max_order = SMOKE_MAX_ORDER if smoke else ENUMERATE_MAX_ORDER
            self.expected_exit = recorded["enumerate-20"]["exit_code"]
            lines = EXPECTED_CSV.read_text(encoding="utf-8").splitlines()
            self.expected_lines = lines[:1] + [
                line for line in lines[1:] if int(line.split(",")[1]) <= self.max_order
            ]
        else:
            self.expected = recorded[workload.name]
            specs = list(self.expected)
            random.Random(seed).shuffle(specs)
            self.specs = specs[:1] if smoke else specs

    def run_pass(self, tracer=None) -> PassResult:
        if self.workload.kind == "cli":
            return self._cli_pass(tracer)
        return self._library_pass(tracer)

    # -- library workloads -------------------------------------------------

    def _library_pass(self, tracer) -> PassResult:
        """Each instance is timed from its spec string, then checked untimed."""
        cli, labeling = self.lp.cli, self.lp.labeling
        kwargs = self.workload.solve_kwargs
        result = PassResult()
        for spec in self.specs:
            group = report = None
            gc.collect()  # no instance pays for, or holds memory of, the one before
            if tracer is not None:
                tracer.instance = spec
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                group = cli.build_group(cli.parse_group_spec(spec))
                report = labeling.lambda_exact(group, **kwargs)
            except Exception as exc:  # every failure is counted, the pass goes on
                report = exc
            result.samples.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.enabled = False
            result.attempted += 1
            problem = self._check(spec, group, report)
            if problem is not None:
                result.failures.append(f"{spec}: {problem}")
                continue
            result.exact += report.exact
            result.bounds_only += not report.exact
            result.verified += len(report.methods_run) >= 2
        result.seconds = sum(result.samples)
        result.peak_rss_mb = _peak_rss_mb()
        return result

    def _check(self, spec: str, group, report) -> str | None:
        """Why the answer is wrong, or None."""
        if isinstance(report, Exception):
            return f"raised {type(report).__name__}: {report}"
        lp = self.lp
        seed_answer = self.expected[spec]
        lower = max((b.value for b in report.bounds if b.kind == "lower"), default=0)
        upper = min((b.value for b in report.bounds if b.kind == "upper"), default=1 << 30)
        predicted = lp.oracle.predict_lambda(group).value
        if report.exact:
            value = report.value
            if seed_answer["exact"] and value != seed_answer["value"]:
                return f"value {value}, the seed had {seed_answer['value']}"
            if not seed_answer["exact"] and not (
                    seed_answer["lower"] <= value <= seed_answer["upper"]):
                return (f"value {value} outside the seed window "
                        f"[{seed_answer['lower']}, {seed_answer['upper']}]")
            if predicted is not None and value != predicted:
                return f"value {value}, the closed form gives {predicted}"
            if not lower <= value <= upper:
                return f"value {value} outside its own bounds [{lower}, {upper}]"
            if report.labeling is None:
                return "exact value without a witness labeling"
            if report.labeling.span != value:
                return f"witness span {report.labeling.span} differs from value {value}"
            graph = lp.powergraph.build_power_graph(group)
            if not lp.labeling.validate_l21(graph, report.labeling).ok:
                return "witness labeling fails validate_l21"
            return None
        known = seed_answer["value"] if seed_answer["exact"] else predicted
        if known is not None and not lower <= known <= upper:
            return f"bounds [{lower}, {upper}] exclude the known value {known}"
        if lower > upper:
            return f"empty bound window [{lower}, {upper}]"
        return None

    # -- the enumerate CLI sweep -------------------------------------------

    def _cli_pass(self, tracer) -> PassResult:
        """One in-process ``enumerate`` call: the pass's single timed instance."""
        cli = self.lp.cli
        result = PassResult()
        out = io.StringIO()
        if tracer is not None:
            tracer.instance = "enumerate"
            tracer.enabled = True
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                exit_code = cli.main(["enumerate", "--max-order", str(self.max_order)])
        except Exception as exc:  # counted as a failed pass below
            exit_code = exc
        finally:
            ended = time.perf_counter()
            if tracer is not None:
                tracer.enabled = False
        result.seconds = ended - started
        result.samples = [result.seconds]
        result.peak_rss_mb = _peak_rss_mb()
        expected_rows = self.expected_lines[1:]
        result.attempted = len(expected_rows)
        lines = out.getvalue().splitlines()
        if exit_code != self.expected_exit or lines[:1] != self.expected_lines[:1]:
            result.failures = [f"enumerate: exit {exit_code!r}, header {lines[:1]}"] * len(
                expected_rows)
            return result
        rows = lines[1:]
        for i, expected in enumerate(expected_rows):
            got = rows[i] if i < len(rows) else None
            if got != expected:
                result.failures.append(f"enumerate row {i}: {got!r}, expected {expected!r}")
            elif expected.split(",")[2]:
                result.exact += 1
            else:
                result.bounds_only += 1
        if len(rows) > len(expected_rows):
            result.failures.append(f"enumerate: {len(rows) - len(expected_rows)} extra rows")
        return result
