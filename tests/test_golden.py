"""Golden CLI output over the order <= 20 corpus.

Each line of ``data/lambda_corpus20.jsonl`` is one ``lambda <spec> --json``
report with ``runtime_ms`` removed, and each line of
``data/invariants_corpus20.jsonl`` one ``invariants <spec> --json`` report,
both in corpus order. ``data/enumerate_corpus20.csv`` is the stdout of
``enumerate --max-order 20``, the one output that reads the lower-equality
oracle's verdicts; that run must exit 0. Each line of
``data/graph_corpus12.jsonl`` holds the exit code and stdout of
``graph <spec> --format dot`` and ``--format json`` for one order <= 12
corpus spec, and each line of ``data/verify_families.jsonl`` those of
``verify <family>`` at its default range. ``data/tables_large.json`` maps
each of ``LARGE_SPECS`` to the sha256 of its Cayley table, element orders,
inverses, power-graph rows and maximal cyclic decomposition. A refactor
must leave every line unchanged. After an intended output change, rewrite
all six files with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from lambda_power.cli import build_group, builtin_corpus, main, parse_group_spec

DATA = Path(__file__).parent / "data"
GOLDEN = {
    "lambda": DATA / "lambda_corpus20.jsonl",
    "invariants": DATA / "invariants_corpus20.jsonl",
}
ENUMERATE_GOLDEN = DATA / "enumerate_corpus20.csv"
GRAPH_GOLDEN = DATA / "graph_corpus12.jsonl"
VERIFY_GOLDEN = DATA / "verify_families.jsonl"
VERIFY_FAMILIES = ("dihedral", "quaternion", "cyclic", "elementary-abelian", "zpqn")
TABLES_GOLDEN = DATA / "tables_large.json"
LARGE_SPECS = (
    "D512", "D1024", "Q512", "Q1024", "Z729", "x".join(["Z2"] * 9), "x".join(["Z3"] * 5),
    "perm:(1 2 3 4 5 6);(1 2)", "Z2048", "D60", "Q60", "Z2xZ2xZ5", "A5",
)


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


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def enumerate_output() -> tuple[int, str]:
    return run(["enumerate", "--max-order", "20"])


def graph_records() -> list[str]:
    records = []
    for spec, _ in builtin_corpus(12):
        for fmt in ("dot", "json"):
            code, stdout = run(["graph", spec, "--format", fmt])
            records.append(json.dumps({"spec": spec, "format": fmt, "exit": code,
                                       "stdout": stdout}))
    return records


def verify_records() -> list[str]:
    records = []
    for family in VERIFY_FAMILIES:
        code, stdout = run(["verify", family])
        records.append(json.dumps({"family": family, "exit": code, "stdout": stdout}))
    return records


def _sha256(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def table_digests() -> dict[str, dict[str, str]]:
    """Per large spec, one digest per derived object, in a fixed text form."""
    digests = {}
    for spec in LARGE_SPECS:
        group = build_group(parse_group_spec(spec))
        decomposition = group.maximal_cyclic_subgroups
        digests[spec] = {
            "table": _sha256(map(repr, group.table)),
            "orders": _sha256([repr(group.orders)]),
            "inverses": _sha256([repr(group.inverses)]),
            "power_graph": _sha256(format(row, "x") for row in group._power_graph.adj),
            "maximal_cyclic": _sha256(
                [repr(sorted(s)) for s in decomposition.subgroups]
                + [repr(decomposition.sizes), repr(decomposition.pairwise_trivial)]),
        }
    return digests


def assert_lines_equal(path: Path, actual: list[str]) -> None:
    expected = path.read_text(encoding="utf-8").splitlines()
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert got == want


def assert_matches_golden(command: str) -> None:
    assert_lines_equal(GOLDEN[command], corpus_records(command))


def test_lambda_json_matches_golden():
    assert_matches_golden("lambda")


def test_invariants_json_matches_golden():
    assert_matches_golden("invariants")


def test_graph_exports_match_golden():
    assert_lines_equal(GRAPH_GOLDEN, graph_records())


def test_verify_families_match_golden():
    assert_lines_equal(VERIFY_GOLDEN, verify_records())


def test_large_group_tables_match_golden():
    assert table_digests() == json.loads(TABLES_GOLDEN.read_text(encoding="utf-8"))


def test_enumerate_csv_matches_golden():
    code, stdout = enumerate_output()
    assert code == 0
    assert stdout == ENUMERATE_GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for command, path in GOLDEN.items():
        path.write_text("\n".join(corpus_records(command)) + "\n", encoding="utf-8")
    GRAPH_GOLDEN.write_text("\n".join(graph_records()) + "\n", encoding="utf-8")
    VERIFY_GOLDEN.write_text("\n".join(verify_records()) + "\n", encoding="utf-8")
    TABLES_GOLDEN.write_text(json.dumps(table_digests(), indent=1) + "\n", encoding="utf-8")
    code, stdout = enumerate_output()
    if code != 0:
        raise SystemExit(f"enumerate exited {code}; golden files not complete")
    ENUMERATE_GOLDEN.write_text(stdout, encoding="utf-8")
