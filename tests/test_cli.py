"""Spec parsing, command behavior, exit codes and export formats."""

import json

import pytest

from lambda_power.cli import (
    builtin_corpus,
    canonical_spec,
    group_from_text,
    main,
    parse_group_spec,
)
from lambda_power.errors import GroupSpecError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_simple_atoms():
    assert group_from_text("Z6").order == 6
    assert group_from_text("C6").order == 6
    assert group_from_text("D12").order == 12
    assert group_from_text("Q8").order == 8
    assert group_from_text("A5").order == 60


def test_parse_products():
    g = group_from_text("Z2xZ2xZ2")
    assert g.order == 8
    assert all(o in (1, 2) for o in g.orders)
    assert group_from_text("Z2 x Z3").order == 6


def test_parse_permutations():
    g = group_from_text("perm:(1 2 3 4 5);(1 2 3)")
    assert g.order == 60
    assert group_from_text("perm:(1 2)(3 4)").order == 2


def test_parse_errors_carry_position():
    with pytest.raises(GroupSpecError) as info:
        parse_group_spec("Z6xD5")
    assert info.value.position == 3
    with pytest.raises(GroupSpecError):
        parse_group_spec("Q6")
    with pytest.raises(GroupSpecError):
        parse_group_spec("Z6)")
    with pytest.raises(GroupSpecError):
        parse_group_spec("hello")


def test_canonical_roundtrip():
    for text in ("Z6", "D12", "Q8", "Z2xZ2xZ2", "A5", "perm:(1 2 3 4 5);(1 2 3)"):
        spec = parse_group_spec(text)
        printed = canonical_spec(spec)
        assert printed == text
        # printing is idempotent through a reparse
        assert canonical_spec(parse_group_spec(printed)) == printed


def test_canonical_normalizes_whitespace_and_alias():
    assert canonical_spec(parse_group_spec(" Z2 x Z2 ")) == "Z2xZ2"
    assert canonical_spec(parse_group_spec("C6")) == "Z6"


def test_cmd_lambda_json(capsys):
    code, out, _ = run(capsys, "lambda", "Z6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == 8
    assert payload["exact"] is True
    assert payload["oracle"]["source"] == "two-prime-cyclic"
    assert payload["agreement"] is True
    assert len(payload["labeling"]) == 6


def test_cmd_lambda_verify(capsys):
    code, out, _ = run(capsys, "lambda", "Q12", "--verify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == 12
    assert len(payload["methods_run"]) >= 2


def test_cmd_lambda_a5_ledger(capsys):
    code, out, _ = run(capsys, "lambda", "A5", "--no-witness", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == 60
    assert payload["method"] == "ledger"
    assert payload["labeling"] is None


def test_cmd_lambda_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "lambda", "D5")
    assert code == 1
    assert "dihedral" in err


def test_cmd_lambda_rejects_negative_dp_limit(capsys):
    code, _, err = run(capsys, "lambda", "Z6", "--dp-limit", "-5")
    assert code == 1
    assert "--dp-limit" in err


def test_non_integer_dp_limit_environment_warns(capsys, monkeypatch):
    monkeypatch.setenv("LAMBDA_POWER_DP_LIMIT", "abc")
    code, out, err = run(capsys, "lambda", "Z6", "--json")
    assert code == 0
    assert json.loads(out)["lambda"] == 8
    assert "LAMBDA_POWER_DP_LIMIT" in err


def test_cmd_lambda_inexact_exit_code(capsys):
    code, out, _ = run(capsys, "lambda", "Q8", "--method", "ledger", "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["exact"] is False
    assert payload["lambda"] is None


def test_cmd_lambda_report_schema(capsys):
    import importlib.resources
    import jsonschema

    schema = json.loads(
        importlib.resources.files("lambda_power")
        .joinpath("schema/lambda_report.schema.json").read_text())
    for args in (["lambda", "Z6", "--json"],
                 ["lambda", "A5", "--no-witness", "--json"],
                 ["lambda", "Q8", "--method", "ledger", "--json"]):
        code, out, _ = run(capsys, *args)
        jsonschema.validate(json.loads(out), schema)


def test_cmd_verify_dihedral(capsys):
    code, out, _ = run(capsys, "verify", "dihedral", "3..8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "spec,order,lambda_solver,lambda_oracle,source,match"
    assert len(lines) == 7
    assert all(line.endswith(",yes") for line in lines[1:])


def test_cmd_verify_quaternion_values(capsys):
    code, out, _ = run(capsys, "verify", "quaternion", "2..5")
    assert code == 0
    values = [int(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
    assert values == [9, 12, 17, 20]


def test_cmd_verify_zpqn_values(capsys):
    code, out, _ = run(capsys, "verify", "zpqn")
    assert code == 0
    values = [int(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
    assert values == [8, 8, 28, 16, 16, 16]


def test_cmd_graph_json(capsys):
    code, out, _ = run(capsys, "graph", "Z4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    assert payload["identity"] == 0
    assert len(payload["edges"]) == 6
    assert payload["edges"] == sorted(payload["edges"])


def test_cmd_graph_csv(capsys):
    code, out, _ = run(capsys, "graph", "Z6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u,v"
    assert len(lines) == 14  # 13 edges
    pairs = [tuple(map(int, line.split(","))) for line in lines[1:]]
    assert pairs == sorted(pairs)
    assert all(u < v for u, v in pairs)


def test_cmd_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "D6", "--format", "dot")
    assert code == 0
    assert out.startswith('graph "D6" {')
    assert out.rstrip().endswith("}")
    assert out.count(" -- ") == 6  # rotation triangle + 3 identity-reflection edges
    assert '0 [label="0 (ord 1)"]' in out


def test_cmd_invariants_json(capsys):
    code, out, _ = run(capsys, "invariants", "Z6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["clique_number"] == 5
    assert payload["independence_number"] == 2
    assert payload["complement_path_cover"] == 4
    assert payload["complement_p4"] is None
    assert payload["identity_deleted_components"] == [5]


def test_cmd_invariants_klein(capsys):
    code, out, _ = run(capsys, "invariants", "Z2xZ2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["clique_number"] == 2
    assert payload["independence_number"] == 3
    assert payload["complement_path_cover"] == 2
    assert payload["cyclic_decomposition_conditions"] == {
        "pairwise_trivial": True, "balanced_sizes": True}


def test_cmd_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-order", "8")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",") for line in out.strip().splitlines()[1:]}
    lam = {spec: int(row[2]) for spec, row in rows.items()}
    assert lam["Z2"] == 2
    assert lam["Z2xZ2"] == 4
    assert lam["Z6"] == 8
    assert lam["D6"] == 6
    assert lam["Q8"] == 9
    assert lam["Z8"] == 14
    assert lam["Z2xZ2xZ2"] == 8
    assert all(row[4] in ("ok", "n/a") for row in rows.values())


def test_cmd_enumerate_caps_order(capsys):
    code, _, err = run(capsys, "enumerate", "--max-order", "40")
    assert code == 1
    assert "capped" in err


def test_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    code1, out1, _ = run(capsys, "lambda", "Z12", "--json", "--cache", str(cache))
    assert code1 == 0
    assert cache.exists()
    code2, out2, _ = run(capsys, "lambda", "Z12", "--json", "--cache", str(cache))
    assert code2 == 0
    assert json.loads(out1)["lambda"] == json.loads(out2)["lambda"] == 16


def test_builtin_corpus_shape():
    corpus = builtin_corpus(16)
    specs = [spec for spec, _ in corpus]
    assert "Z16" in specs and "D16" in specs and "Q16" in specs
    assert "Z2xZ4" in specs and "Z4xZ4" in specs and "Z2xZ2xZ2xZ2" in specs
    assert len(specs) == len(set(specs))
    orders = [g.order for _, g in corpus]
    assert orders == sorted(orders)


def test_builtin_corpus_abelian_types_of_order_16():
    specs = {spec for spec, g in builtin_corpus(16) if g.order == 16}
    assert specs == {"Z16", "Z2xZ8", "Z4xZ4", "Z2xZ2xZ4", "Z2xZ2xZ2xZ2",
                     "D16", "Q16"}
