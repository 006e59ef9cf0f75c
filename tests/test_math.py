import random
from fractions import Fraction

from eqsat import (
    ENode,
    Extractor,
    Leaf,
    RunnerConfig,
    StopReason,
    Term,
    check_equiv,
    extract_best,
    num,
    parse_term,
    run,
    sym,
)
from eqsat.rewrite import PatternApplier
from eqsat.domains.math import (
    MATH,
    eval_term,
    make_egraph,
    math_rules,
    strength_reduction_rules,
)

from helpers import random_rationals


def simplify(text, rules=None, config=None):
    report = run(
        make_egraph(),
        [parse_term(text, MATH)],
        rules if rules is not None else math_rules(),
        config or RunnerConfig(scheduler="every", iter_limit=8, node_limit=5000),
    )
    return str(extract_best(report.egraph, report.root_ids[0])[0])


def test_simplify_division_demo():
    assert simplify("(/ (* a 2) 2)") == "a"


def test_simplify_mul_one():
    assert simplify("(* 1 a)") == "a"


def test_fold_addition():
    assert simplify("(+ 1 2)") == "3"


def test_guarded_division_cancel_needs_nonzero_constant():
    # symbolic denominator: the guard blocks x/x -> 1
    report = run(
        make_egraph(),
        [parse_term("(/ x x)", MATH)],
        math_rules(),
        RunnerConfig(scheduler="every", iter_limit=6),
    )
    one = report.egraph.lookup(ENode(num(1), ()))
    assert one is None or report.egraph.find(one) != report.egraph.find(
        report.root_ids[0]
    )
    # constant nonzero denominator: the guard admits it
    report2 = run(
        make_egraph(),
        [parse_term("(/ 5 5)", MATH)],
        math_rules(),
        RunnerConfig(scheduler="every", iter_limit=6),
    )
    best = extract_best(report2.egraph, report2.root_ids[0])[0]
    assert str(best) == "1"


def test_unsafe_mode_cancels_symbolic_division():
    result = check_equiv(
        make_egraph(),
        parse_term("(/ x x)", MATH),
        parse_term("1", MATH),
        math_rules(unsafe_math=True),
        RunnerConfig(scheduler="every", iter_limit=6),
    )
    assert result.equal


def test_eval_term_reference():
    env = {"a": Fraction(3), "b": Fraction(1, 2)}
    assert eval_term(parse_term("(+ a b)", MATH), env) == Fraction(7, 2)
    assert eval_term(parse_term("(<< a 1)", MATH), env) == 6
    assert eval_term(parse_term("(/ a 0)", MATH), env) is None
    assert eval_term(parse_term("(/ a (- b b))", MATH), env) is None
    assert eval_term(parse_term("(<< a b)", MATH), env) is None


def symbols_of(term: Term):
    return sorted(
        {
            op.value
            for op, _ in term.postorder()
            if getattr(op, "kind", None) == "sym"
        }
    )


def rhs_pattern(rule):
    """The rule's right-hand-side pattern (None for a dynamic applier) and
    its conditions."""
    if isinstance(rule.applier, PatternApplier):
        return rule.applier.pattern, rule.conditions
    return None, rule.conditions


def pattern_to_term(pattern, index, subst, extractor):
    op, kids = pattern.nodes[index]
    if isinstance(op, Leaf) and op.kind == "var":
        return extractor.best(subst[op.value])[0]
    if isinstance(op, Leaf):
        return Term.leaf(op)
    return Term.apply(
        op, *(pattern_to_term(pattern, k, subst, extractor) for k in kids)
    )


def fuzz_fired_instances(exprs, rules, rng, assignments_per_instance=6, max_substs=40):
    """Saturate each expression, then every surviving match of every rule is
    a fired instance: both sides must agree under random rational
    assignments (where defined).  Returns the number of evaluations."""
    evaluations = 0
    for text in exprs:
        report = run(
            make_egraph(),
            [parse_term(text, MATH)],
            rules,
            RunnerConfig(scheduler="every", iter_limit=6, node_limit=4000),
        )
        g = report.egraph
        extractor = Extractor(g)
        for rule in rules:
            pattern, conditions = rhs_pattern(rule)
            if pattern is None:
                continue
            for match in rule.search(g):
                for subst in match.substs[:max_substs]:
                    if not all(cond(g, match.eclass, subst) for cond in conditions):
                        continue
                    lhs = pattern_to_term(rule.searcher, -1, subst, extractor)
                    rhs = pattern_to_term(pattern, -1, subst, extractor)
                    names = set(symbols_of(lhs)) | set(symbols_of(rhs))
                    for _ in range(assignments_per_instance):
                        env = random_rationals(rng, names)
                        left = eval_term(lhs, env)
                        right = eval_term(rhs, env)
                        evaluations += 1
                        if left is None and right is None:
                            continue
                        assert left is not None and right is not None, (
                            f"{rule.name}: definedness diverges on {lhs} vs {rhs}"
                        )
                        assert left == right, (
                            f"{rule.name}: {lhs} != {rhs} under {env}"
                        )
    return evaluations


FUZZ_EXPRS = [
    "(/ (* a 2) 2)",
    "(* (+ a b) 1)",
    "(+ (* a b) (* b a))",
    "(/ (* (+ a b) 2) 2)",
    "(* 1 (* a (+ b 2)))",
    "(<< (+ a b) 1)",
    "(/ 6 3)",
]


def test_fired_rewrites_are_semantically_sound():
    rng = random.Random(99)
    done = fuzz_fired_instances(FUZZ_EXPRS, math_rules(), rng)
    assert done >= 1000


def test_demo_rule_subset_is_sound_on_demo_graph():
    rng = random.Random(7)
    done = fuzz_fired_instances(["(/ (* a 2) 2)"], strength_reduction_rules()[:2], rng)
    assert done > 0


def test_equivalence_partition_grows_monotonically():
    g = make_egraph()
    t = parse_term("(/ (* a 2) 2)", MATH)
    report = run(g, [t], strength_reduction_rules(), RunnerConfig(scheduler="every"))
    assert report.stop_reason is StopReason.SATURATED
    a = g.lookup(ENode(sym("a"), ()))
    assert g.find(a) == g.find(report.root_ids[0])
    # the initial term is still represented after saturation
    again = g.add_term(t)
    assert g.find(again) == g.find(report.root_ids[0])
