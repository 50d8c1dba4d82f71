"""Golden CLI output over the order <= 20 corpus.

Each line of ``data/lambda_corpus20.jsonl`` is one ``lambda <spec> --json``
report with ``runtime_ms`` removed, and each line of
``data/invariants_corpus20.jsonl`` one ``invariants <spec> --json`` report,
both in corpus order. A refactor must leave every line unchanged. After an
intended output change, rewrite both files with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

from lambda_power.cli import builtin_corpus, main

DATA = Path(__file__).parent / "data"
GOLDEN = {
    "lambda": DATA / "lambda_corpus20.jsonl",
    "invariants": DATA / "invariants_corpus20.jsonl",
}


def corpus_records(command: str) -> list[str]:
    records = []
    for spec, _ in builtin_corpus(20):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, spec, "--json"])
        payload = json.loads(out.getvalue())
        payload.pop("runtime_ms", None)
        records.append(json.dumps({"spec": spec, "exit": code, "report": payload}))
    return records


def assert_matches_golden(command: str) -> None:
    expected = GOLDEN[command].read_text(encoding="utf-8").splitlines()
    actual = corpus_records(command)
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert got == want


def test_lambda_json_matches_golden():
    assert_matches_golden("lambda")


def test_invariants_json_matches_golden():
    assert_matches_golden("invariants")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for command, path in GOLDEN.items():
        path.write_text("\n".join(corpus_records(command)) + "\n", encoding="utf-8")
