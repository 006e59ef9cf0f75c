import json
import sys

import pytest

from click.testing import CliRunner

from eqsat.cli import main


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_simplify_division_demo():
    result = invoke("simplify", "--rules", "math", "--unsafe-math", "(/ (* a 2) 2)")
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "a"
    assert result.output.splitlines()[1] == "cost: 1"


def test_simplify_lambda_golden():
    result = invoke(
        "simplify", "--rules", "lambda", "(lam x (+ 4 (app (lam y (var y)) 4)))"
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "(lam x 8)"


def test_simplify_constant_fold():
    result = invoke("simplify", "--rules", "math", "(+ 1 2)")
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "3"


def test_simplify_depth_cost_and_scheduler_flags():
    result = invoke(
        "simplify", "--rules", "math", "--cost", "ast-depth",
        "--scheduler", "every", "--iters", "6", "(* 1 (+ a b))",
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "(+ a b)"
    assert result.output.splitlines()[1] == "cost: 2"


def test_simplify_parse_error_exit_code():
    result = invoke("simplify", "--rules", "math", "(+ 1")
    assert result.exit_code == 2


def test_simplify_literal_past_the_digit_limit_is_exit_two():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no limit on the digits int() reads")
    result = invoke("simplify", "(+ 1 1" + "0" * limit + ")")
    assert result.exit_code == 2
    assert "too long" in result.output and "Traceback" not in result.output


def test_simplify_contradiction_exit_code(tmp_path):
    rules = tmp_path / "bad.rules"
    rules.write_text("one-two: 1 => 2\n")
    result = invoke("simplify", "--rules", str(rules), "--lang", "math", "(+ 1 0)")
    assert result.exit_code == 3


def test_simplify_far_shift_is_one_line_exit_three():
    result = invoke("simplify", "(<< 1 20000)")
    assert result.exit_code == 3
    assert result.output.splitlines() == [
        "analysis contradiction: folded constant out of range: 1 << 20000"
    ]


def test_simplify_json_report():
    result = invoke("simplify", "--rules", "math", "--json", "(+ 1 2)")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["schema"] == 1
    assert doc["best"] == {"term": "3", "cost": "1"}
    assert doc["stop_reason"] in ("saturated", "iter_limit", "node_limit")
    assert all("index" in it for it in doc["iterations"])


def test_simplify_json_stable_apart_from_timing():
    def strip(doc):
        for it in doc["iterations"]:
            for key in ("search_time", "apply_time", "rebuild_time"):
                it.pop(key)
        return doc

    a = strip(json.loads(invoke("simplify", "--rules", "math", "--json", "(* 1 a)").output))
    b = strip(json.loads(invoke("simplify", "--rules", "math", "--json", "(* 1 a)").output))
    assert a == b


def test_check_equiv_equal():
    result = invoke(
        "check-equiv", "--rules", "math", "--unsafe-math", "(/ (* a 2) 2)", "a"
    )
    assert result.exit_code == 0
    assert result.output.startswith("equal")


def test_check_equiv_identical_terms():
    result = invoke("check-equiv", "--rules", "math", "(+ a b)", "(+ a b)")
    assert result.exit_code == 0
    assert "iterations: 0" in result.output


def test_check_equiv_unknown_is_exit_one():
    result = invoke(
        "check-equiv", "--rules", "math", "--iters", "4", "(+ a b)", "(* a b)"
    )
    assert result.exit_code == 1
    assert result.output.startswith("unknown")


def test_check_equiv_parse_error():
    result = invoke("check-equiv", "--rules", "math", "(+ a", "a")
    assert result.exit_code == 2


def test_check_equiv_pairs_file(tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(
        "(+ a b) (+ b a)\n"
        "(* x y) (* y x)\n"
    )
    result = invoke(
        "check-equiv", "--rules", "math", "--pairs", str(pairs), "--batched"
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert all(line.startswith("equal") for line in lines)


def test_check_equiv_pairs_json(tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("(+ a b) (+ b a)\n(+ a b) (* a b)\n")
    result = invoke(
        "check-equiv", "--rules", "math", "--pairs", str(pairs), "--json",
        "--iters", "4",
    )
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert doc["schema"] == 1
    assert [r["equal"] for r in doc["results"]] == [True, False]


def test_check_equiv_malformed_pairs_line_is_exit_two(tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("(+ a b) (+ b a)\n\n(+ a b)\n")
    for batched in ((), ("--batched",)):
        result = invoke(
            "check-equiv", "--rules", "math", "--pairs", str(pairs), *batched
        )
        assert result.exit_code == 2
        assert "parse error:" in result.output
        assert "(line 3)" in result.output


def test_check_equiv_pairs_file_without_pairs_is_exit_two(tmp_path):
    pairs = tmp_path / "pairs.txt"
    for text in ("", "# only a comment\n\n"):
        pairs.write_text(text)
        for batched in ((), ("--batched",)):
            result = invoke(
                "check-equiv", "--rules", "math", "--pairs", str(pairs), *batched
            )
            assert result.exit_code == 2
            assert f"no pairs in {pairs}" in result.output


def test_malformed_rules_file_is_exit_two(tmp_path):
    rules = tmp_path / "bad.rules"
    for text in ("r: (* ?x 1) => ?x if is-const ?y\n", "r: (* ?x 1 => ?x\n"):
        rules.write_text(text)
        for command in (
            ("simplify", "(* a 1)"),
            ("check-equiv", "(* a 1)", "a"),
        ):
            result = invoke(
                command[0], "--rules", str(rules), "--lang", "math", *command[1:]
            )
            assert result.exit_code == 2
            assert "line 1" in result.output


def test_duplicate_rule_name_is_exit_two(tmp_path):
    rules = tmp_path / "dup.rules"
    rules.write_text("r: (+ ?a ?b) => (+ ?b ?a)\nr: (* ?a ?b) => (* ?b ?a)\n")
    for command in (("simplify", "--json", "(+ (* a b) c)"), ("check-equiv", "a", "a")):
        result = invoke(command[0], "--rules", str(rules), "--lang", "math", *command[1:])
        assert result.exit_code == 2, command
        assert result.output.splitlines() == [
            "rules error: line 2: duplicate rule name 'r' (first on line 1)"
        ]


def test_unreadable_rules_file_is_exit_two(tmp_path):
    binary = tmp_path / "binary.rules"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path / "nosuchfile", tmp_path, binary):
        for command in (("simplify", "a"), ("check-equiv", "a", "a")):
            result = invoke(command[0], "--rules", str(path), *command[1:])
            assert result.exit_code == 2, (path, command)
            assert result.exception is None or isinstance(result.exception, SystemExit)
            lines = result.output.splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"rules error: cannot read {path}")


def test_non_positive_limit_is_exit_two():
    for flag in ("--iters", "--nodes", "--time-ms"):
        for value in ("0", "-1"):
            for command in (("simplify", "a"), ("check-equiv", "a", "a")):
                result = invoke(command[0], "--rules", "math", flag, value, *command[1:])
                assert result.exit_code == 2, (flag, value, command)
                assert result.exception is None or isinstance(result.exception, SystemExit)
                assert result.output.splitlines() == [
                    f"usage error: {flag} must be at least 1, got {value}"
                ]


def test_bench_repeats_below_one_is_exit_two(monkeypatch):
    import eqsat.bench as bench_module

    def no_run(**kwargs):
        raise AssertionError("bench ran despite a usage error")

    monkeypatch.setattr(bench_module, "run_bench", no_run)
    for value in ("0", "-1"):
        result = invoke("bench", "--repeats", value)
        assert result.exit_code == 2, value
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            f"usage error: --repeats must be at least 1, got {value}"
        ]


def test_bench_unwritable_output_is_exit_two_before_the_bench(monkeypatch, tmp_path):
    import eqsat.bench as bench_module

    def no_run(**kwargs):
        raise AssertionError("bench ran despite an unwritable output")

    monkeypatch.setattr(bench_module, "run_bench", no_run)
    missing = tmp_path / "no-such-dir" / "bench.out"
    for flag in ("--out", "--json-lines"):
        result = invoke("bench", flag, str(missing), "--repeats", "1")
        assert result.exit_code == 2, flag
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            f"output error: cannot write {missing}: No such file or directory"
        ]


def test_rules_file_via_cli(tmp_path):
    rules = tmp_path / "my.rules"
    rules.write_text("swap: (+ ?a ?b) => (+ ?b ?a)\n")
    result = invoke(
        "check-equiv", "--rules", str(rules), "--lang", "math", "(+ a b)", "(+ b a)"
    )
    assert result.exit_code == 0


def test_bench_smoke(tmp_path):
    # the full default suite is exercised in the acceptance tests; here a
    # cheap invocation proves the CLI wiring and CSV output
    import eqsat.bench as bench_module

    csv_path = tmp_path / "bench.csv"
    jsonl_path = tmp_path / "bench.jsonl"
    original = bench_module.run_bench

    def tiny_run_bench(repeats=1, **kwargs):
        return original(
            [bench_module.chain_workload(6, 4)], repeats=1
        )

    bench_module.run_bench = tiny_run_bench
    try:
        result = invoke(
            "bench", "--out", str(csv_path), "--json-lines", str(jsonl_path),
            "--repeats", "1",
        )
    finally:
        bench_module.run_bench = original
    assert result.exit_code == 0
    assert "geometric mean speedup" in result.output
    assert csv_path.read_text().startswith("workload,")
    assert jsonl_path.read_text().strip()


def test_json_reports_skipped_repeats_per_rule(tmp_path):
    doc = json.loads(invoke("simplify", "--rules", "math", "--json", "(* a b)").output)
    rules = [st for it in doc["iterations"] for st in it["rules"].values()]
    assert rules and all(
        set(st) == {"searched", "skipped", "applied", "banned"} for st in rules
    )
    assert sum(st["skipped"] for st in rules) > 0

    single = json.loads(invoke(
        "check-equiv", "--rules", "math", "--json", "(* a b)", "(* b a)"
    ).output)
    assert [run["stop_reason"] for run in single["runs"]] == ["hook_stop"]
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("(+ a b) (+ b a)\n(* a b) (* b a)\n")
    for batched, n_runs in (((), 2), (("--batched",), 1)):
        doc = json.loads(invoke(
            "check-equiv", "--rules", "math", "--pairs", str(pairs), "--json", *batched
        ).output)
        assert len(doc["runs"]) == n_runs
        for run in doc["runs"]:
            for it in run["iterations"]:
                assert all("skipped" in st for st in it["rules"].values())


def test_check_equiv_contradiction_is_exit_three(tmp_path):
    rules = tmp_path / "bad.rules"
    rules.write_text("bad: 1 => 2\n")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("(+ a b) (+ b a)\n(+ a 1) (+ a 2)\n")
    for args in (
        ("(+ a 1)", "(+ a 2)"),
        ("--json", "(+ a 1)", "(+ a 2)"),
        ("--batched", "(+ a 1)", "(+ a 2)"),
        ("--pairs", str(pairs)),
        ("--pairs", str(pairs), "--batched", "--json"),
    ):
        result = invoke("check-equiv", "--rules", str(rules), "--lang", "math", *args)
        assert result.exit_code == 3, args
        assert result.stdout == "", args
        assert result.output.splitlines() == [
            "analysis contradiction: conflicting constants: 1 vs 2"
        ], args


def test_unreadable_pairs_file_is_exit_two(tmp_path):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path, binary):
        for batched in ((), ("--batched",)):
            result = invoke("check-equiv", "--rules", "math", "--pairs", str(path), *batched)
            assert result.exit_code == 2, (path, batched)
            assert result.exception is None or isinstance(result.exception, SystemExit)
            lines = result.output.splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"pairs error: cannot read {path}")


def test_terms_with_pairs_file_is_exit_two(tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("(+ a b) (+ b a)\n")
    for terms in (("a", "a"), ("a",)):
        result = invoke("check-equiv", "--rules", "math", "--pairs", str(pairs), *terms)
        assert result.exit_code == 2, terms
        assert result.output.splitlines() == ["provide LHS and RHS, or --pairs FILE"]


def test_single_pair_and_one_line_pairs_file_report_alike(tmp_path):
    def strip(doc):
        for run in doc["runs"]:
            for it in run["iterations"]:
                for key in ("search_time", "apply_time", "rebuild_time"):
                    it.pop(key)
        return doc

    pairs = tmp_path / "pairs.txt"
    pairs.write_text("(+ a (+ b (+ c d))) (+ (+ d c) (+ b a))\n")
    docs = [
        strip(json.loads(invoke("check-equiv", "--rules", "math", "--json", *args).output))
        for batched in ((), ("--batched",))
        for args in (
            (*batched, "(+ a (+ b (+ c d)))", "(+ (+ d c) (+ b a))"),
            (*batched, "--pairs", str(pairs)),
        )
    ]
    assert [r["equal"] for r in docs[0]["results"]] == [True]
    assert all(doc == docs[0] for doc in docs[1:])


def test_simplify_json_key_set():
    doc = json.loads(invoke("simplify", "--rules", "math", "--json", "(* 1 (+ a b))").output)
    assert set(doc) == {"schema", "stop_reason", "iterations", "best"}
    assert doc["iterations"]
    for it in doc["iterations"]:
        assert set(it) == {
            "index", "rules", "enodes", "eclasses", "search_time", "apply_time",
            "rebuild_time", "repair_calls", "stop_reason",
        }
        assert it["rules"]
        for stats in it["rules"].values():
            assert set(stats) == {"searched", "skipped", "applied", "banned"}
