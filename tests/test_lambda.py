import random
import re

import pytest

from eqsat import (
    ENode,
    Extractor,
    RunnerConfig,
    StopReason,
    Term,
    ast_depth,
    ast_size,
    check_equiv,
    extract_best,
    num,
    parse_pattern,
    parse_term,
    Rewrite,
    run,
    sym,
)
from eqsat.bench import partition_signature
from eqsat.language import Leaf
from eqsat.rewrite import apply_rewrite
from eqsat.domains.lam import (
    LAMBDA,
    eval_closed,
    lambda_rules,
    make_egraph,
)

from helpers import enumerate_terms, kept_matches, matches_in_class


def saturate(text, config=None):
    report = run(
        make_egraph(),
        [parse_term(text, LAMBDA)],
        lambda_rules(),
        config or RunnerConfig(),
    )
    return report


def lambda_rule(name):
    return next(r for r in lambda_rules() if r.name == name)


def test_rule_inventory():
    names = [r.name for r in lambda_rules()]
    assert len(names) == 19 and len(set(names)) == 19
    assert "beta" in names and "let-lam-diff" in names and "fix" in names
    assert "let-lam-rename" in names and "if-elim-probe" in names


def test_golden_partial_evaluation_under_lambda():
    report = saturate("(lam x (+ 4 (app (lam y (var y)) 4)))")
    best, _ = extract_best(report.egraph, report.root_ids[0])
    assert str(best) == "(lam x 8)"


def test_golden_branch_elimination():
    report = saturate(
        "(if (= (var a) (var b)) (+ (var a) (var a)) (+ (var a) (var b)))"
    )
    best, _ = extract_best(report.egraph, report.root_ids[0])
    assert str(best) == "(+ (var a) (var b))"


def test_small_composition_chain():
    text = """(let compose (lam f (lam g (lam x (app (var f) (app (var g) (var x))))))
              (let add1 (lam y (+ (var y) 1))
              (app (app (var compose) (var add1)) (var add1))))"""
    report = saturate(text)
    goal = parse_pattern("(lam ?x (+ (var ?x) 2))", LAMBDA)
    assert matches_in_class(report.egraph, goal, report.root_ids[0])


EVAL_CORPUS = [
    ("(+ 1 (+ 2 3))", 6),
    ("(if (= 1 2) 3 4)", 4),
    ("(if (= 2 2) 3 4)", 3),
    ("(app (lam y (+ (var y) 1)) 4)", 5),
    ("(let x 3 (+ (var x) (var x)))", 6),
    ("(app (lam f (app (var f) 2)) (lam x (+ (var x) 10)))", 12),
    ("(fix f (+ 1 2))", 3),
    ("(if (= (+ 1 1) 2) 10 20)", 10),
    ("(if (= 1 true) 5 7)", 7),
]


def test_reference_evaluator():
    for text, expected in EVAL_CORPUS:
        assert eval_closed(parse_term(text, LAMBDA)) == expected


def test_extracted_constants_agree_with_evaluator():
    for text, expected in EVAL_CORPUS:
        report = saturate(text)
        g = report.egraph
        data = g[report.root_ids[0]].data
        assert data.constant is not None, f"no constant learned for {text}"
        assert data.constant.value == expected
        best, cost = extract_best(g, report.root_ids[0])
        assert cost == 1 and str(best) in (str(expected), "true", "false")


def test_free_vars_are_over_approximation():
    # every sampled represented term's true free variables are contained in
    # the analysis data of its class
    report = saturate("(let x (var y) (app (lam z (var z)) (+ (var x) 1)))")
    g = report.egraph

    def true_free(term: Term):
        def go(t):
            op = t.root_op
            kids = t.children()
            if isinstance(op, Leaf):
                return frozenset()
            if op == "var":
                return frozenset({kids[0].root_op.value})
            if op == "let":
                v = kids[0].root_op.value
                return (go(kids[2]) - {v}) | go(kids[1])
            if op in ("lam", "fix"):
                return go(kids[1]) - {kids[0].root_op.value}
            out = frozenset()
            for k in kids:
                out |= go(k)
            return out

        return go(term)

    checked = 0
    for class_id in list(g.classes):
        for sampled in enumerate_terms(g, class_id, depth=4)[:20]:
            names = true_free(sampled)
            assert names <= g[class_id].data.free
            checked += 1
    assert checked > 30


def test_binder_symbols_never_merge():
    # distinct symbol leaves stay in distinct classes under the rule set
    report = saturate("(let x 4 (lam y (+ (var x) (var y))))")
    g = report.egraph
    x = g.lookup(ENode(sym("x"), ()))
    y = g.lookup(ENode(sym("y"), ()))
    assert x is not None and y is not None and g.find(x) != g.find(y)


def test_beta_under_binder_with_capture_risk():
    # substituting under (lam y ...) where y is free in the argument forces
    # the capture-avoiding rename and still evaluates correctly
    text = "(app (lam x (lam y (+ (var x) (var y)))) (var y))"
    report = saturate(text)
    g = report.egraph
    root_free = g[report.root_ids[0]].data.free
    y = g.lookup(ENode(sym("y"), ()))
    assert y is not None and "y" in root_free
    # any lambda the root reduces to must not capture the free y: the class
    # must contain a lam whose binder is a fresh renamed symbol
    fresh = [
        node
        for node in g[report.root_ids[0]].nodes
        if node.op == "lam"
        and any(
            getattr(n.op, "kind", None) == "sym" and n.op.value.startswith("_")
            for n in g[g.find(node.children[0])].nodes
        )
    ]
    assert fresh, "expected a capture-avoiding renamed lambda in the root class"


def test_saturation_under_default_limits_is_clean():
    for text, _ in EVAL_CORPUS:
        report = saturate(text)
        assert report.egraph.invariant_check() == []
        assert report.stop_reason in (
            StopReason.SATURATED,
            StopReason.ITER_LIMIT,
            StopReason.NODE_LIMIT,
        )


def test_node_limit_is_decided_on_the_rebuilt_graph():
    # its apply phases pass 3000 nodes with duplicates that the rebuild
    # removes; the rebuilt graph never does, so the run reaches the
    # iteration limit
    text = (
        "(= (+ (+ (if false 3 2) (let z (lam y (var y)) 2)) (let x (lam y (var y)) 1))"
        " (let x (if (if false true false) (let x 1 (let z (var x)"
        " (app (lam x (+ (var z) 1)) 2))) (app (lam y (var y)) 2))"
        " (let z (var x) (app (lam x (var z))"
        " (if (if false true true) (+ 1 3) (if false 3 1))))))"
    )
    report = saturate(text, RunnerConfig(iter_limit=8, node_limit=3000))
    assert report.stop_reason is StopReason.ITER_LIMIT
    assert all(it.enodes <= 3000 for it in report.iterations)


def merge_symbols(g, *names):
    ids = [g.lookup(ENode(sym(name), ())) for name in names]
    assert None not in ids
    for other in ids[1:]:
        g.merge(ids[0], other)
    g.rebuild()


def test_merged_symbol_binder_keeps_free_set_sound():
    # once x and y share a class, (lam x (var y)) also represents
    # (lam y (var y)) and (lam x (var y)); the binder removes nothing, so y
    # stays in the over-approximation
    g = make_egraph()
    root = g.add_term(parse_term("(lam x (var y))", LAMBDA))
    merge_symbols(g, "x", "y")
    assert g.invariant_check() == []
    assert "y" in g[root].data.free


def test_merged_symbol_let_binder_keeps_free_set_sound():
    g = make_egraph()
    root = g.add_term(parse_term("(let x (var z) (var y))", LAMBDA))
    merge_symbols(g, "x", "y")
    assert g.invariant_check() == []
    assert g[root].data.free == {"x", "y", "z"}


def test_single_symbol_binder_still_binds():
    # merging two symbols the binder does not name leaves the binder one
    # name, which it still removes
    g = make_egraph()
    root = g.add_term(parse_term("(lam x (+ (var x) (var y)))", LAMBDA))
    g.add(ENode(sym("z"), ()))
    merge_symbols(g, "y", "z")
    assert g.invariant_check() == []
    assert g[root].data.free == {"y", "z"}


def capture_renamed(g, class_id):
    return [
        node
        for node in g[class_id].nodes
        if node.op == "lam"
        and any(
            getattr(n.op, "kind", None) == "sym" and n.op.value.startswith("_")
            for n in g[node.children[0]].nodes
        )
    ]


def test_capture_avoidance_renames_under_merged_binder():
    # the binder class holds y and w; w is free in the substituted
    # expression, so pushing the let under the lam must rename the binder
    g = make_egraph()
    root = g.add_term(parse_term("(let a (var w) (lam y (var a)))", LAMBDA))
    merge_symbols(g, "y", "w")
    diff, rename = lambda_rule("let-lam-diff"), lambda_rule("let-lam-rename")
    assert diff.search(g) and kept_matches(g, diff, diff.search(g)) == []
    assert apply_rewrite(g, rename, kept_matches(g, rename, rename.search(g))) == 1
    g.rebuild()
    assert g.invariant_check() == []
    assert capture_renamed(g, root)


def test_capture_avoidance_skips_rename_when_binder_not_free():
    g = make_egraph()
    root = g.add_term(parse_term("(let a (var w) (lam y (var a)))", LAMBDA))
    diff, rename = lambda_rule("let-lam-diff"), lambda_rule("let-lam-rename")
    assert rename.search(g) and kept_matches(g, rename, rename.search(g)) == []
    assert apply_rewrite(g, diff, kept_matches(g, diff, diff.search(g))) == 1
    g.rebuild()
    assert not capture_renamed(g, root)


@pytest.mark.parametrize("n", range(40))
def test_fresh_binder_does_not_capture_a_user_symbol(n):
    # the renamed binder is named after a class id; a user symbol of that
    # name, free under the lam, must not be captured by it
    lhs = parse_term(f"(let y (var x) (lam x (+ (var x) (var _{n}))))", LAMBDA)
    rhs = parse_term(f"(lam _{n} (+ (var _{n}) (var _{n})))", LAMBDA)
    assert not check_equiv(make_egraph(), lhs, rhs, lambda_rules()).equal


def test_rules_on_one_left_hand_side_share_one_search(monkeypatch):
    searched = []
    search = Rewrite.search

    def counting(rewrite, egraph):
        searched.append(rewrite.name)
        return search(rewrite, egraph)

    monkeypatch.setattr(Rewrite, "search", counting)
    report = saturate(
        "(if (= (var a) (var b)) (+ (var a) (var a)) (+ (var a) (var b)))",
        RunnerConfig(scheduler="every"),
    )
    searchers = {rw.searcher for rw in lambda_rules()}
    assert len(searchers) == len(lambda_rules()) - 2
    assert len(searched) == len(searchers) * len(report.iterations)
    assert "if-elim-probe" not in searched and "let-lam-rename" not in searched
    # each sibling still keeps its own counts and conditions
    for it in report.iterations:
        assert it.rules["if-elim"].searched == it.rules["if-elim-probe"].searched
        assert it.rules["let-lam-diff"].searched == it.rules["let-lam-rename"].searched
    assert sum(it.rules["if-elim"].applied for it in report.iterations) == 1


# ----------------------------------------------------------------------
# soundness fuzz: saturation keeps a closed program's value


def random_closed_program(rng: random.Random, depth: int) -> str:
    """A closed, well-typed program of type int or bool over let, lam,
    app, if, + and =, with binders drawn from x, y and z so that names
    collide and shadow.  Some int subterms take the capture shape
    ``(let a e (let b (var a) (app (lam a body) arg)))``, where body reads
    b: pushing the inner let under the lam must rename the binder a."""
    return _program(rng, rng.choice(("int", "int", "bool")), {}, depth)


def _program(rng: random.Random, ty: str, env: dict, depth: int) -> str:
    names = [name for name, t in env.items() if t == ty]
    if ty == "fn":  # int -> int
        if names and rng.random() < 0.4:
            return f"(var {rng.choice(names)})"
        x = rng.choice("xyz")
        return f"(lam {x} {_program(rng, 'int', {**env, x: 'int'}, depth - 1)})"
    if depth <= 0 or rng.random() < 0.2:
        if names and rng.random() < 0.6:
            return f"(var {rng.choice(names)})"
        return str(rng.randint(0, 3)) if ty == "int" else rng.choice(("true", "false"))
    shapes = ("+", "if", "let", "app", "capture") if ty == "int" else ("=", "if", "let")
    shape = rng.choice(shapes)

    def sub(t, e=env):
        return _program(rng, t, e, depth - 1)

    if shape == "+":
        return f"(+ {sub('int')} {sub('int')})"
    if shape == "=":
        return f"(= {sub('int')} {sub('int')})"
    if shape == "if":
        return f"(if {sub('bool')} {sub(ty)} {sub(ty)})"
    if shape == "app":
        return f"(app {sub('fn')} {sub('int')})"
    if shape == "let":
        x, bound = rng.choice("xyz"), rng.choice(("int", "fn"))
        return f"(let {x} {sub(bound)} {sub(ty, {**env, x: bound})})"
    a, b = rng.sample("xyz", 2)
    inner = {**env, a: "int", b: "int"}
    body = rng.choice((f"(var {b})", f"(+ (var {b}) {sub('int', inner)})"))
    return f"(let {a} {sub('int')} (let {b} (var {a}) (app (lam {a} {body}) {sub('int')})))"


def random_branch_program(rng: random.Random) -> str:
    """A closed int program around ``(if (= (var a) e) then else)``, where
    ``e`` reads no ``a``.  Mostly ``else`` is ``then`` with some reads of
    ``a`` replaced by ``e``, so the probes ``(let a e then)`` and
    ``(let a e else)`` meet and if-elim fires; otherwise ``else`` is drawn
    on its own."""
    e = rng.choice(("(var b)", str(rng.randint(0, 3)), f"(+ (var b) {rng.randint(0, 3)})"))
    then = [rng.choice(("(var a)", "(var a)", "(var b)", str(rng.randint(0, 3))))
            for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.75:
        other = [e if t == "(var a)" and rng.random() < 0.5 else t for t in then]
    else:
        other = [rng.choice(("(var a)", "(var b)", str(rng.randint(0, 3)))) for _ in then]

    def total(parts):
        return parts[0] if len(parts) == 1 else f"(+ {total(parts[:-1])} {parts[-1]})"

    branch = f"(if (= (var a) {e}) {total(then)} {total(other)})"
    return f"(let a {rng.randint(0, 3)} (let b {rng.randint(0, 3)} {branch}))"


def test_lambda_soundness_fuzz():
    # every program keeps its value through saturation: the root's
    # cheapest and shallowest members evaluate to the input's value
    rng = random.Random(8)
    programs = ["(let y 5 (let x (var y) (app (lam y (var x)) 1)))"]
    programs += [random_closed_program(rng, rng.randint(1, 3)) for _ in range(250)]
    branch_rng = random.Random(20)
    branches = [random_branch_program(branch_rng) for _ in range(40)]
    config = RunnerConfig(iter_limit=6, node_limit=1000)
    if_elim_fired = 0
    for text in programs + branches:
        term = parse_term(text, LAMBDA)
        expected = eval_closed(term)
        report = run(make_egraph(), [term], lambda_rules(), config)
        assert report.stop_reason is not StopReason.ANALYSIS_CONTRADICTION, (
            text, report.message
        )
        for cost_fn in (ast_size, ast_depth):
            best, _ = Extractor(report.egraph, cost_fn).best(report.root_ids[0])
            value = eval_closed(best)
            assert (type(value), value) == (type(expected), expected), (text, str(best))
        if text in branches:
            if_elim_fired += sum(it.rules["if-elim"].applied for it in report.iterations)
    capture = re.compile(r"\(let (\w) \(var (\w)\) \(app \(lam \2 ")
    assert sum(bool(capture.search(text)) for text in programs) >= 40
    assert if_elim_fired > 0


# ----------------------------------------------------------------------
# deferred and eager rebuilding, and every rule order, reach one e-graph

COMPOSE_2 = (
    "(app (app (lam f (lam g (lam x (app (var f) (app (var g) (var x))))))"
    " (lam y (+ (var y) 1))) (lam y (+ (var y) 2)))"
)
ONE_GRAPH_PROGRAMS = [
    COMPOSE_2,
    f"(app {COMPOSE_2} 5)",
    "(if (= (var a) (var b)) (+ (var a) (var a)) (+ (var a) (var b)))",
]


def saturated(text, rules, scheduler, eager=False):
    """Partition, extracted term, iteration count and node count."""
    g = make_egraph(rebuild_after_merge=eager)
    report = run(g, [parse_term(text, LAMBDA)], rules, RunnerConfig(scheduler=scheduler))
    best, _ = extract_best(g, report.root_ids[0])
    return partition_signature(g, report.root_ids), str(best), len(report.iterations), g.n_nodes()


ONE_GRAPH_IDS = ["compose", "compose-applied", "branch"]


@pytest.mark.parametrize("scheduler", ["every", "backoff"])
@pytest.mark.parametrize("text", ONE_GRAPH_PROGRAMS, ids=ONE_GRAPH_IDS)
def test_eager_and_deferred_rebuilding_reach_one_lambda_egraph(text, scheduler):
    # no applier reads the graph in the write phase, where eager has
    # rebuilt and deferred has not
    rules = lambda_rules()
    assert saturated(text, rules, scheduler) == saturated(text, rules, scheduler, eager=True)


@pytest.mark.parametrize("text", ONE_GRAPH_PROGRAMS, ids=ONE_GRAPH_IDS)
def test_lambda_rule_order_keeps_iterations_and_partition(text):
    # fresh binders are named after class ids, so extracted names may differ
    forward = saturated(text, lambda_rules(), "every")
    backward = saturated(text, lambda_rules()[::-1], "every")
    assert (forward[0], forward[2]) == (backward[0], backward[2])
