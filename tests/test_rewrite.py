import pytest

from eqsat import (
    ConditionEqual,
    ENode,
    Rewrite,
    apply_rewrite,
    num,
    parse_pattern,
    parse_rules,
    parse_term,
    sym,
)
from eqsat.rewrite import (
    RewriteError,
    is_const,
    is_nonzero_const,
    is_not_same_var,
)
from eqsat.domains.lam import LAMBDA, RenameBinder, lambda_rules, make_egraph as lam_egraph
from eqsat.domains.math import MATH, make_egraph as math_egraph

from helpers import kept_matches


def lambda_rule(name):
    return next(r for r in lambda_rules() if r.name == name)


def test_search_counts_matches():
    g = math_egraph()
    g.add_term(parse_term("(+ 1 2)", MATH))
    g.rebuild()
    comm = Rewrite.parse("add-comm", "(+ ?a ?b)", "(+ ?b ?a)", MATH)
    matches = comm.search(g)
    assert sum(len(m.substs) for m in matches) == 1


def test_search_without_operator_is_empty():
    g = lam_egraph()
    g.add_term(parse_term("(+ 1 2)", LAMBDA))
    g.rebuild()
    if_true = Rewrite.parse("if-true", "(if true ?then ?else)", "?then", LAMBDA)
    assert if_true.search(g) == []


def test_beta_matches_inner_application():
    g = lam_egraph()
    g.add_term(parse_term("(lam x (+ 4 (app (lam y (var y)) 4)))", LAMBDA))
    g.rebuild()
    beta = lambda_rule("beta")
    matches = beta.search(g)
    assert sum(len(m.substs) for m in matches) == 1


def test_apply_shift_rewrite_adds_two_nodes():
    g = math_egraph()
    root = g.add_term(parse_term("(/ (* a 2) 2)", MATH))
    rule = Rewrite.parse("double-to-shift", "(* ?x 2)", "(<< ?x 1)", MATH)
    matches = rule.search(g)
    classes_before, nodes_before = g.n_classes(), g.n_nodes()
    applied = apply_rewrite(g, rule, matches)
    g.rebuild()
    assert applied == 1
    # the shift node lands in the * class; the literal 1 is one new class
    assert g.n_classes() == classes_before + 1
    assert g.n_nodes() == nodes_before + 2


def test_merge_only_rules_add_no_nodes():
    # cancelling x/x and stripping *1 only merge classes, adding nothing new
    g = math_egraph()
    two = g.add(ENode(num(2), ()))
    a = g.add(ENode(sym("a"), ()))
    div = g.add(ENode("/", (two, two)))
    mul = g.add(ENode("*", (a, div)))
    one = g.add(ENode(num(1), ()))
    g.rebuild()
    nodes_before = g.n_nodes()
    div_self = Rewrite.parse("div-self", "(/ ?x ?x)", "1", MATH)
    mul_one = Rewrite.parse("mul-one", "(* ?x 1)", "?x", MATH)
    apply_rewrite(g, div_self, div_self.search(g))
    g.rebuild()
    apply_rewrite(g, mul_one, mul_one.search(g))
    g.rebuild()
    assert g.n_nodes() <= nodes_before
    assert g.find(mul) == g.find(a)
    assert g.find(div) == g.find(one)


def test_reapplication_performs_no_new_merges():
    g = math_egraph()
    g.add_term(parse_term("(* 1 2)", MATH))
    g.rebuild()
    comm = Rewrite.parse("mul-comm", "(* ?x ?y)", "(* ?y ?x)", MATH)
    first = apply_rewrite(g, comm, comm.search(g))
    g.rebuild()
    assert first >= 1
    second = apply_rewrite(g, comm, comm.search(g))
    g.rebuild()
    assert second == 0


def test_conditions_never_mutate():
    g = lam_egraph()
    g.add_term(parse_term("(let x (+ 1 2) (if (= (var x) 3) 1 0))", LAMBDA))
    g.rebuild()
    cond = ConditionEqual.parse("(let ?x ?e ?then)", "(let ?x ?e ?else)", LAMBDA)
    rule = lambda_rule("if-elim")
    matches = rule.search(g)
    before = (g.n_nodes(), g.n_classes(), g.union_count)
    for m in matches:
        for s in m.substs:
            cond(g, m.eclass, s)
    assert (g.n_nodes(), g.n_classes(), g.union_count) == before


def test_condition_equal_lookup_semantics():
    g = math_egraph()
    root = g.add_term(parse_term("(+ a b)", MATH))
    g.rebuild()
    same = ConditionEqual.parse("(+ ?a ?b)", "(+ ?a ?b)", MATH)
    absent = ConditionEqual.parse("(+ ?a ?b)", "(+ ?b ?a)", MATH)
    a = g.lookup(ENode(sym("a"), ()))
    b = g.lookup(ENode(sym("b"), ()))
    subst = {"?a": a, "?b": b}
    assert same(g, root, subst)
    # (+ b a) was never added: lookup-only instantiation says false
    assert not absent(g, root, subst)


def test_unbound_applier_variable_rejected():
    with pytest.raises(RewriteError):
        Rewrite.parse("bad", "(+ ?a ?b)", "(+ ?a ?c)", MATH)


def test_rename_binder_variables_must_be_searched_or_fresh():
    lhs = parse_pattern("(lam ?v ?body)", LAMBDA)
    # the fresh variable needs no binding by the left-hand side
    Rewrite("ok", lhs, RenameBinder("?fresh", "(lam ?fresh (let ?v (var ?fresh) ?body))"))
    with pytest.raises(RewriteError, match=r"unbound variables: \?other"):
        Rewrite("bad", lhs, RenameBinder("?fresh", "(lam ?fresh ?other)"))
    assert any(r.name == "let-lam-rename" for r in lambda_rules())


@pytest.mark.parametrize(
    "condition",
    [
        is_const("?y"),
        is_nonzero_const("?y"),
        is_not_same_var("?x", "?y"),
        ConditionEqual.parse("?x", "(+ ?x ?y)", MATH),
    ],
    ids=["is_const", "is_nonzero_const", "is_not_same_var", "ConditionEqual"],
)
def test_python_condition_variables_must_be_bound_by_lhs(condition):
    with pytest.raises(RewriteError, match=r"does not bind: \?y"):
        Rewrite.parse("r", "(* ?x 1)", "?x", MATH, [condition])
    # an iterator is read once for the check and still kept whole
    rule = Rewrite.parse("r", "(* ?x ?y)", "?x", MATH, iter([condition]))
    assert rule.conditions == (condition,)


def test_capture_avoid_not_free_branch():
    # y is not free in 4: the let dives under the lambda unchanged
    g = lam_egraph()
    root = g.add_term(parse_term("(let x 4 (lam y (var y)))", LAMBDA))
    diff, rename = lambda_rule("let-lam-diff"), lambda_rule("let-lam-rename")
    assert rename.search(g) and kept_matches(g, rename, rename.search(g)) == []
    applied = apply_rewrite(g, diff, kept_matches(g, diff, diff.search(g)))
    g.rebuild()
    assert applied == 1
    expected = g.add_term(parse_term("(lam y (let x 4 (var y)))", LAMBDA))
    g.rebuild()
    assert g.find(root) == g.find(expected)


def test_capture_avoid_free_branch_renames():
    # y IS free in (var y): the binder must be renamed before substitution
    g = lam_egraph()
    root = g.add_term(parse_term("(let x (var y) (lam y (var x)))", LAMBDA))
    diff, rename = lambda_rule("let-lam-diff"), lambda_rule("let-lam-rename")
    assert diff.search(g) and kept_matches(g, diff, diff.search(g)) == []
    applied = apply_rewrite(g, rename, kept_matches(g, rename, rename.search(g)))
    g.rebuild()
    assert applied == 1
    fresh_name = f"_{g.find(root)}"
    expected = g.add_term(
        parse_term(
            f"(lam {fresh_name} (let x (var y) (let y (var {fresh_name}) (var x))))",
            LAMBDA,
        )
    )
    g.rebuild()
    assert g.find(root) == g.find(expected)


def test_capture_avoid_fresh_symbol_deterministic():
    g = lam_egraph()
    root = g.add_term(parse_term("(let x (var y) (lam y (var x)))", LAMBDA))
    rule = lambda_rule("let-lam-rename")
    apply_rewrite(g, rule, kept_matches(g, rule, rule.search(g)))
    g.rebuild()
    assert g.lookup(ENode(sym(f"_{g.find(root)}"), ())) is not None


def test_rules_file_round_trip(tmp_path):
    text = """
# demo rules
add-comm: (+ ?a ?b) => (+ ?b ?a)
eq-comm: (= ?a ?b) => (= ?b ?a)
strip-let: (let ?v ?e ?c) => ?c if is-const ?c
rename: (let ?v1 ?e (var ?v2)) => (var ?v2) if not-same-var ?v1 ?v2
branch-drop: (if (= (var ?x) ?e) ?t ?f) => ?f if eq (let ?x ?e ?t) (let ?x ?e ?f)
"""
    rules = parse_rules(text, LAMBDA)
    assert [r.name for r in rules] == [
        "add-comm", "eq-comm", "strip-let", "rename", "branch-drop",
    ]
    g = lam_egraph()
    g.add_term(parse_term("(+ 1 (var q))", LAMBDA))
    g.rebuild()
    matches = rules[0].search(g)
    assert sum(len(m.substs) for m in matches) == 1


def test_rules_file_errors():
    with pytest.raises(RewriteError):
        parse_rules("oops (+ ?a ?b) => ?a", MATH)
    with pytest.raises(RewriteError):
        parse_rules("name: (+ ?a ?b) -> ?a", MATH)
    with pytest.raises(RewriteError):
        parse_rules("name: (+ ?a ?b) => ?a if magic ?a", MATH)


@pytest.mark.parametrize(
    "line",
    [
        "r: (* ?x 1) => ?x if is-const ?y",
        "r: (* ?x 1) => ?x if eq ?x ?q",
        "r: (* ?x 1) => ?x if not-same-var ?x ?z",
    ],
)
def test_rules_file_condition_variables_must_be_bound_by_lhs(line):
    with pytest.raises(RewriteError, match="line 2"):
        parse_rules("ok: (+ ?a ?b) => (+ ?b ?a)\n" + line, MATH)


@pytest.mark.parametrize(
    "text",
    [
        "r: (* ?x 1) => (+ ?x",
        "r: (* ?x) => ?x",
        "r: (* ?x 1) => ?x if eq ?x",
        "r: (* ?x 1) => ?x if eq ?x ?x ?x",
        "r: => ?x",
    ],
)
def test_rules_file_malformed_pattern_names_line(text):
    with pytest.raises(RewriteError, match="line 3"):
        parse_rules("\n# comment\n" + text, MATH)


def test_rules_file_duplicate_name_names_both_lines():
    text = "r: (+ ?a ?b) => (+ ?b ?a)\n# comment\nr: (* ?a ?b) => (* ?b ?a)\n"
    with pytest.raises(
        RewriteError, match=r"line 3: duplicate rule name 'r' \(first on line 1\)"
    ):
        parse_rules(text, MATH)


def test_saturation_apply_counts_zero_for_all_rules():
    g = math_egraph()
    g.add_term(parse_term("(/ (* a 2) 2)", MATH))
    g.rebuild()
    from eqsat.domains.math import strength_reduction_rules

    rules = strength_reduction_rules()
    for _ in range(10):
        total = 0
        for rule in rules:
            total += apply_rewrite(g, rule, rule.search(g))
            g.rebuild()
        if total == 0:
            break
    for rule in rules:
        assert apply_rewrite(g, rule, rule.search(g)) == 0
