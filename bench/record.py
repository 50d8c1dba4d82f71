"""Record the current solver's answers as the benchmark's expected results.

    python3 bench/record.py

Writes ``bench/expected.json`` (per library workload, each instance's value,
exact flag and bound window; the enumerate exit code) and
``bench/expected_enumerate_20.csv``. The recorded files are the reference
the benchmark checks every answer against, so re-record only when a change
is meant to alter answers, and say so in that change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from run import import_package
from workloads import (ENUMERATE_MAX_ORDER, EXPECTED_CSV, EXPECTED_JSON, WORKLOADS,
                       corpus_specs)


def main() -> int:
    lp = import_package()
    recorded: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exit_code = lp.cli.main(["enumerate", "--max-order", str(ENUMERATE_MAX_ORDER)])
    recorded["enumerate-20"] = {"exit_code": exit_code}
    EXPECTED_CSV.write_text(out.getvalue(), encoding="utf-8")
    for workload in WORKLOADS.values():
        if workload.kind != "library":
            continue
        answers = {}
        for spec in corpus_specs(lp, workload.name):
            group = lp.cli.build_group(lp.cli.parse_group_spec(spec))
            report = lp.labeling.lambda_exact(group, **workload.solve_kwargs)
            answers[spec] = {
                "value": report.value,
                "exact": report.exact,
                "lower": max(b.value for b in report.bounds if b.kind == "lower"),
                "upper": min(b.value for b in report.bounds if b.kind == "upper"),
                "methods_run": list(report.methods_run),
            }
            print(workload.name, spec, answers[spec], file=sys.stderr)
        recorded[workload.name] = answers
    EXPECTED_JSON.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
