"""Smoke check of the benchmark itself: one instance per workload, both modes.

    python3 bench/smoke.py

For every workload, runs ``run.py --smoke`` untraced and traced, and checks
that the result line carries exactly the metrics BENCHMARK.json names, with
their units, that every end-to-end metric, bound or not, is printed by name
and unit, and that ``error_rate`` is 0. Takes under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# End-to-end metrics printed as "metric" lines but not in the result line.
PRINTED_ONLY = {"solve_p50_ms": "ms", "solve_tail_ms": "ms", "peak_rss_mb": "MB",
                "bounds_only_count": "count"}


def run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, text = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, f"{workload} trace={trace}: {set(got) ^ set(wanted)}"
            printed = dict(wanted, error_rate="ratio")
            if trace == 0:
                printed.update(PRINTED_ONLY)
                if workload == "verify-16":
                    printed["verified_count"] = "count"
            for name, unit in printed.items():
                line = next((x for x in text.splitlines() if x.startswith(f"metric {name} ")),
                            None)
                assert line is not None and line.endswith(f" {unit}"), (workload, name, line)
            assert "metric error_rate 0.000000 ratio" in text
            print(f"ok {workload} trace={trace}: {len(got)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
