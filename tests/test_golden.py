"""Golden CLI output: ``lambda <spec> --json`` over the order <= 20 corpus.

Each line of ``data/lambda_corpus20.jsonl`` is one report with
``runtime_ms`` removed, in corpus order. A refactor must leave every line
unchanged. After an intended output change, rewrite the file with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

from lambda_power.cli import builtin_corpus, main

GOLDEN = Path(__file__).parent / "data" / "lambda_corpus20.jsonl"


def corpus_records() -> list[str]:
    records = []
    for spec, _ in builtin_corpus(20):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["lambda", spec, "--json"])
        payload = json.loads(out.getvalue())
        del payload["runtime_ms"]
        records.append(json.dumps({"spec": spec, "exit": code, "report": payload}))
    return records


def test_lambda_json_matches_golden():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = corpus_records()
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert got == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(corpus_records()) + "\n", encoding="utf-8")
