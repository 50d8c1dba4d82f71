"""Benchmark driver for the lambda_power solver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload in this process, in a closed loop: one caller, one
instance at a time. Whole passes over the workload repeat until another
pass would overrun ``--seconds``; every answer is checked right after its
call, outside the timed region. With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` passes alternate untraced and traced, and the
per-layer metrics of the traced passes are reported, with the tracing
overhead. Human-readable ``metric NAME VALUE UNIT`` lines come first; the
last line of standard output is one JSON object. The exit code is 1 when
any answer was wrong. NOTES.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PACKAGE = "lambda_power"
# Set-ups timed before the first pass and after each untraced pass. Spreading
# them over the run samples the host's speed over the run, not over one
# half-second; setup_s is their median.
SETUP_FIRST = 4
SETUP_AFTER_PASS = 2
TAIL_BEYOND = 10  # samples a tail percentile must leave above it

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))
from tracer import Tracer, layer_metric_units  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402

# End-to-end metrics of the result line; each is steady enough across runs
# to carry a regression bound. NOTES.md says why the others are only printed.
END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "exact_count": "count"}
PRINTED_UNITS = {"solve_p50_ms": "ms", "solve_tail_ms": "ms", "peak_rss_mb": "MB",
                 "bounds_only_count": "count"}


def import_package() -> SimpleNamespace:
    """A fresh import of the package from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
               for layer in ("cli", "labeling", "oracle", "powergraph")}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"{PACKAGE} was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


def set_up(workload, seed: int, smoke: bool, times: list[float]) -> Runner:
    """Import the package and build the workload's instance list, timed."""
    t0 = time.perf_counter()
    runner = Runner(import_package(), workload, seed, smoke)
    times.append(time.perf_counter() - t0)
    return runner


def tail_rank(n: int) -> int:
    """0-based rank of the tail sample: the highest with ``TAIL_BEYOND`` samples
    above it, or the largest sample when there are too few."""
    return n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1


def percentile_label(n: int) -> str:
    return f"p{100 * (tail_rank(n) + 1) // n}"


def run_passes(runner: Runner, seconds: float, smoke: bool, tracer: Tracer | None,
               after_pass=None):
    """Alternate untraced and traced passes when tracing, else untraced only.

    Stops before a pass that would end after ``seconds``; one pass of each
    kind always runs. ``after_pass`` runs after every pass.
    """
    kinds = ("plain", "traced") if tracer is not None else ("plain",)
    passes = {kind: [] for kind in kinds}
    started = time.perf_counter()
    longest = 0.0
    for kind in itertools.cycle(kinds):
        gc.collect()  # the previous pass's garbage is not charged to this one
        t0 = time.perf_counter()
        passes[kind].append(runner.run_pass(tracer if kind == "traced" else None))
        longest = max(longest, time.perf_counter() - t0)
        if after_pass is not None:
            after_pass()
        done = all(passes.values())
        if done and (smoke or time.perf_counter() - started + longest > seconds):
            break
    return passes


def report_failures(passes) -> tuple[int, int]:
    attempted = failed = 0
    for result in passes:
        attempted += result.attempted
        failed += len(result.failures)
        for failure in result.failures[:5]:
            print(f"FAILED {failure}", file=sys.stderr)
    return attempted, failed


def end_to_end(passes, setup_s: float) -> tuple[dict, list[str]]:
    """Metrics of the untraced passes.

    Each instance's time is its median over the run's passes; the p50 and
    the tail are taken over those per-instance times. Peak memory is taken
    when the first pass ends: later passes only add heap fragmentation that
    depends on how many passes fit in the run.
    """
    per_instance = sorted(statistics.median(times) for times in zip(*(p.samples for p in passes)))
    n = len(per_instance)
    values = {
        "setup_s": setup_s,
        "sweep_s": statistics.median(p.seconds for p in passes),
        "exact_count": statistics.median_low(p.exact for p in passes),
        "solve_p50_ms": statistics.median(per_instance) * 1000.0,
        "solve_tail_ms": per_instance[tail_rank(n)] * 1000.0,
        "peak_rss_mb": passes[0].peak_rss_mb,
        "bounds_only_count": statistics.median_low(p.bounds_only for p in passes),
    }
    info = [
        f"info solve_tail_ms is {percentile_label(n)} of {n} instances",
        f"info pass_s {' '.join(f'{p.seconds:.4f}' for p in passes)}",
    ]
    return values, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one instance and one pass, for the benchmark's own check")
    args = parser.parse_args(argv)

    # The CLI reads its DP limit default from the environment; pin the default.
    os.environ.pop("LAMBDA_POWER_DP_LIMIT", None)
    workload = WORKLOADS[args.workload]
    setup_times: list[float] = []
    try:
        for _ in range(SETUP_FIRST):
            runner = set_up(workload, args.seed, args.smoke, setup_times)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    tracer = after_pass = None
    if args.trace:
        tracer = Tracer(PACKAGE)
        tracer.install()
    else:
        def after_pass():
            # The runner keeps the modules it was built with; these are discarded.
            for _ in range(SETUP_AFTER_PASS):
                set_up(workload, args.seed, args.smoke, setup_times)
    try:
        passes = run_passes(runner, args.seconds, args.smoke, tracer, after_pass)
    except Exception:
        traceback.print_exc()
        return 2

    plain = passes["plain"]
    attempted, failed = report_failures(plain)
    lines = [f"info workload {workload.name} seed {args.seed}"]
    printed = {}
    if tracer is None:
        metrics, info = end_to_end(plain, statistics.median(setup_times))
        info.append(f"info setup_s is the median of {len(setup_times)} set-ups")
        units = END_TO_END_UNITS
        printed = dict(PRINTED_UNITS)
        lines += info
        if workload.name == "verify-16":
            metrics["verified_count"] = statistics.median_low(p.verified for p in plain)
            printed["verified_count"] = "count"
    else:
        traced = passes["traced"]
        more_attempted, more_failed = report_failures(traced)
        attempted += more_attempted
        failed += more_failed
        n_instances = sum(len(p.samples) for p in traced)
        metrics = tracer.layer_metrics(len(traced), n_instances)
        plain_s = statistics.median(p.seconds for p in plain)
        traced_s = statistics.median(p.seconds for p in traced)
        metrics["trace.overhead_s"] = traced_s - plain_s
        units = layer_metric_units()
        top = sum(metrics[f"invariants.{fn}.self_ms"]
                  for fn in ("path_cover_number", "hamilton_path"))
        lines += [
            f"info traced passes {len(traced)}, untraced passes {len(plain)}",
            f"info sweep_s untraced {plain_s:.4f} s, traced {traced_s:.4f} s",
            f"info path_cover_number + hamilton_path self time is "
            f"{100.0 * top / 1000.0 / traced_s:.1f}% of the traced sweep",
        ]
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.write_spans(spans_path)
        lines.append(f"info {len(tracer.spans)} spans written to "
                      f"{spans_path.relative_to(ROOT)}")
    error_rate = failed / attempted if attempted else 1.0
    lines.append(f"metric error_rate {error_rate:.6f} ratio")
    lines += [f"metric {name} {metrics[name]!r} {unit}"
              for name, unit in {**units, **printed}.items()]
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
