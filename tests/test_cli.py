"""Spec parsing, command behavior, exit codes and export formats."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

from lambda_power import __version__, cli, groups
from lambda_power.cli import (
    build_group,
    builtin_corpus,
    canonical_spec,
    group_from_text,
    main,
    parse_group_spec,
)
from lambda_power.errors import CapacityExceeded, GroupSpecError


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


@pytest.mark.parametrize("text", ["Z\u00b2", "Z\u0663", "Z\uff13"],
                         ids=["superscript-two", "arabic-indic-three", "fullwidth-three"])
def test_parse_accepts_only_ascii_digits(text):
    with pytest.raises(GroupSpecError, match="expected an integer") as info:
        parse_group_spec(text)
    assert info.value.position == 1


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


def test_permutations_are_named_by_least_entry_first():
    assert canonical_spec(parse_group_spec("perm:(2 3 1)")) == "perm:(1 2 3)"
    assert canonical_spec(parse_group_spec("perm:(3 4)(1 2)")) == "perm:(1 2)(3 4)"


def test_parse_yields_the_descriptor_the_group_carries():
    texts = [spec for spec, _ in builtin_corpus(20)]
    texts += ["A5", "perm:(2 3 1)", "perm:(3 4)(1 2)"]
    for text in texts:
        descriptor = parse_group_spec(text)
        assert build_group(descriptor).descriptor == descriptor, text


def test_parse_rejects_bad_cycles_with_position():
    with pytest.raises(GroupSpecError, match="repeated"):
        parse_group_spec("perm:(1 1)")
    with pytest.raises(GroupSpecError) as info:
        parse_group_spec("Z2xperm:(0 1)")
    assert info.value.position == 3


# The spec grammar's alphabet, with integers up to 64 and cycle entries up to 5,
# plus two characters that are digits to str.isdigit but not to the grammar.
SPEC_TOKENS = ("Z", "C", "D", "Q", "A5", "A", "perm:", "x", ";", "(", ")", " ",
               "\u00b2", "\u0663")
cycle = st.lists(st.integers(0, 5), min_size=1, max_size=4).map(
    lambda entries: "(" + " ".join(map(str, entries)) + ")")
atom = st.one_of(
    st.builds("{}{}".format, st.sampled_from("ZCDQ"), st.integers(0, 64)),
    st.just("A5"),
    st.lists(st.lists(cycle, min_size=1, max_size=3).map("".join), min_size=1, max_size=2)
    .map(lambda generators: "perm:" + ";".join(generators)))
grammatical = st.lists(atom, min_size=1, max_size=3).map("x".join)
spec_texts = st.one_of(
    grammatical,
    st.tuples(grammatical, st.integers(0, 40)).map(lambda cut: cut[0][:cut[1]]),
    st.lists(st.one_of(st.sampled_from(SPEC_TOKENS), st.integers(0, 64).map(str)),
             max_size=8).map("".join))


def descriptor_order(descriptor):
    """The order of the group a descriptor names, building no product table;
    None when an atom is over the order cap."""
    if descriptor.family == "product":
        left, right = (descriptor_order(part) for part in descriptor.params)
        return None if left is None or right is None else left * right
    try:
        return build_group(descriptor).order
    except CapacityExceeded:
        return None


@settings(max_examples=150, deadline=None)
@given(spec_texts)
@example("Z11000")
def test_fuzzed_specs_parse_or_fail_with_a_position(text):
    try:
        descriptor = parse_group_spec(text)
    except GroupSpecError as exc:
        assert 0 <= exc.position <= len(text)
        descriptor = None
    order = 0 if descriptor is None else descriptor_order(descriptor)
    if order is None or order <= 64:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["lambda", text, "--json", "--budget-ms", "200"])
        assert code == 1 if order is None else code in (0, 1, 2, 3)


def test_text_and_json_report_the_same_group_name(capsys):
    _, text_out, _ = run(capsys, "lambda", "perm:(2 3 1)")
    _, json_out, _ = run(capsys, "lambda", "perm:(2 3 1)", "--json")
    assert text_out.splitlines()[0] == "group      perm:(1 2 3)"
    assert json.loads(json_out)["group"] == "perm:(1 2 3)"


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


@pytest.mark.parametrize("spec, value, methods", [
    ("Q20", 20, ["certificate", "path-cover"]),
    ("D1024", 1024, ["certificate", "ledger", "path-cover"]),
])
def test_cmd_lambda_verify_certifies_past_twenty_vertices(capsys, spec, value, methods):
    # Q20's span search once ran past 30 s, and no second method ran above
    # 20 vertices; the certified lower bound settles both at once
    code, out, _ = run(capsys, "lambda", spec, "--verify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["lambda"], payload["exact"]) == (value, True)
    assert payload["methods_run"] == methods
    assert payload["notes"] == []


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


def test_cmd_lambda_refuses_an_oversized_product_before_building_it(capsys):
    # Z2^14 has 16384 elements; Z2^13's table alone would take about 0.5 GB.
    code, out, err = run(capsys, "lambda", "x".join(["Z2"] * 14))
    assert code == 1
    assert out == ""
    assert err == "error: group order 16384 exceeds the configured maximum 10000\n"


def test_cmd_lambda_rejects_negative_dp_limit(capsys):
    code, _, err = run(capsys, "lambda", "Z6", "--dp-limit", "-5")
    assert code == 1
    assert "--dp-limit" in err


def test_cmd_lambda_rejects_a_negative_budget(capsys):
    code, out, err = run(capsys, "lambda", "Z30", "--budget-ms", "-5")
    assert code == 1
    assert out == ""
    assert err == "error: --budget-ms must be at least 0, got -5\n"


def test_cmd_lambda_names_a_budget_spent_before_the_search(capsys):
    code, out, err = run(capsys, "lambda", "Z30", "--budget-ms", "0", "--json")
    assert code == 2 and err == ""
    payload = json.loads(out)
    assert payload["exact"] is False and payload["methods_run"] == []
    assert payload["notes"] == ["path-cover unavailable: time budget exhausted before the search"]


def test_cli_imports_without_dataclasses_or_inspect():
    # Every record is a NamedTuple or a plain class, so a CLI call pays for
    # neither module; -S keeps site hooks from importing them first.
    probe = ("import sys; sys.path.insert(0, 'src'); import lambda_power.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          cwd=Path(__file__).resolve().parents[1], check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("argv", [("lambda", "Z6", "--dp-limit", "5"),
                                  ("lambda", "Z6", "--bogus"),
                                  ("verify", "octahedral"),
                                  ("lambda",),
                                  ("lambda", "Z6", "--method", "backtrack")],
                         ids=["removed-flag", "unknown-flag", "bad-choice", "no-spec",
                              "removed-method"])
def test_usage_error_exit_code(capsys, argv):
    # a usage error is an error (1), not an inexact answer (2)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: lambda-power") and "error:" in err


def test_help_exit_code(capsys):
    code, out, _ = run(capsys, "lambda", "--help")
    assert code == 0
    assert "--dp-limit" not in out


def test_dp_limit_environment_variable_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("LAMBDA_POWER_DP_LIMIT", "abc")
    code, out, err = run(capsys, "lambda", "Z6", "--json")
    assert code == 0
    assert json.loads(out)["lambda"] == 8
    assert err == ""


def test_cmd_lambda_inexact_exit_code(capsys):
    code, out, _ = run(capsys, "lambda", "Q12", "--method", "ledger", "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["exact"] is False
    assert payload["lambda"] is None


def test_cmd_lambda_ledger_method_says_why_it_is_inexact(capsys):
    code, out, _ = run(capsys, "lambda", "Z30", "--method", "ledger", "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["exact"] is False
    assert payload["notes"] == ["ledger: bounds do not meet (lower 40, upper 55)"]


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


# "10001..10002" is past the order cap and "5..3" is empty, both refused
# before the CSV header.
@pytest.mark.parametrize("bad_range", ["5..x", "0..3", "10001..10002", "5..3"])
def test_cmd_verify_bad_range_is_an_error(capsys, bad_range):
    code, out, err = run(capsys, "verify", "cyclic", bad_range)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


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


def test_enumerate_runs_no_clique_search(capsys, monkeypatch):
    # The alpha column and the bound ledger read one poset of cyclic
    # subgroups per group; no graph is searched for a clique.
    searched, posets = [], []
    antichain = groups._widest_antichain

    def counting(below):
        posets.append(below)
        return antichain(below)

    monkeypatch.setattr(oracles, "_clique_search", searched.append)
    monkeypatch.setattr(groups, "_widest_antichain", counting)
    code, out, _ = run(capsys, "enumerate", "--max-order", "12")
    assert code == 0
    rows = out.splitlines()[1:]
    assert searched == []
    assert len(posets) == len(rows)
    assert len({id(below) for below in posets}) == len(posets)


def test_cmd_invariants_reads_the_poset_past_the_clique_limit(capsys):
    code, out, _ = run(capsys, "invariants", "D1024", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["clique_number"] == 512
    assert payload["independence_number"] == 513
    assert all(bound["exact"] for bound in payload["bounds"])


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


def test_cache_hit_prints_what_its_miss_printed(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    code1, miss, _ = run(capsys, "lambda", "Q12", "--cache", str(cache))
    code2, hit, _ = run(capsys, "lambda", "Q12", "--cache", str(cache))
    assert code1 == code2 == 0
    assert len(miss.splitlines()) > 4
    assert hit == miss


def test_corrupt_cache_line_is_skipped_with_warning(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    cache.write_text('{"key": "Z6|x", "rep', encoding="utf-8")
    code, out, err = run(capsys, "lambda", "Z6", "--json", "--cache", str(cache))
    assert code == 0
    assert json.loads(out)["lambda"] == 8
    assert err == f"warning: {cache}:1: skipping corrupt cache line\n"
    # the new record starts on a line of its own, so a rerun hits it
    code, hit, err = run(capsys, "lambda", "Z6", "--json", "--cache", str(cache))
    assert code == 0
    assert hit == out
    assert err.count("warning:") == 1
    assert len(cache.read_text(encoding="utf-8").splitlines()) == 2


def test_undecodable_cache_line_is_skipped_with_warning(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    cache.write_bytes(b'{"key": "\xff", "report": {}}\n')
    code, out, err = run(capsys, "lambda", "Z6", "--json", "--cache", str(cache))
    assert code == 0
    assert json.loads(out)["lambda"] == 8
    assert err == f"warning: {cache}:1: skipping corrupt cache line\n"


@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_unusable_cache_path_is_refused_before_the_solve(tmp_path, capsys, monkeypatch, where):
    path = tmp_path if where == "directory" else tmp_path / "missing" / "cache.jsonl"

    def refuse(*args, **kwargs):
        raise AssertionError("the group was solved")

    monkeypatch.setattr(cli, "lambda_exact", refuse)
    code, out, err = run(capsys, "lambda", "Z6", "--cache", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot use cache file {path}: ")
    assert len(err.splitlines()) == 1


def test_cache_record_of_another_version_is_a_miss(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    run(capsys, "lambda", "Z12", "--json", "--cache", str(cache))
    record = json.loads(cache.read_text(encoding="utf-8"))
    assert record["key"].endswith(f"|version={__version__}")
    # the same query answered by another solver version, with a stale value
    record["key"] = record["key"].replace(f"|version={__version__}", "|version=0.0.0")
    record["report"]["lambda"] = 99
    cache.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "lambda", "Z12", "--json", "--cache", str(cache))
    assert code == 0
    assert json.loads(out)["lambda"] == 16
    assert len(cache.read_text(encoding="utf-8").splitlines()) == 2


def test_verify_settles_z2xz2xz5_within_budget(capsys):
    # the certified lower bound meets the path-cover witness's span, so
    # nothing is searched a second time
    code, out, _ = run(capsys, "lambda", "Z2xZ2xZ5", "--verify", "--json",
                       "--budget-ms", "2000")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == 21  # 5p - 4
    assert payload["methods_run"] == ["certificate", "path-cover"]


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
