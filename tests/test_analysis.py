import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eqsat import (
    AnalysisContradiction,
    ConstantOverflow,
    EGraph,
    ENode,
    num,
    parse_term,
    sym,
)
from eqsat.analysis import join_optional_constant
from eqsat.domains.lam import LAMBDA, LamAnalysis, LamData, make_egraph as lam_egraph
from eqsat.domains.math import MATH, make_egraph as math_egraph
from eqsat.extraction import MinCostExtraction


def test_make_leaf_is_its_own_constant():
    g = math_egraph()
    three = g.add(ENode(num(3), ()))
    assert g[three].data == 3


def test_make_folds_addition():
    g = math_egraph()
    root = g.add_term(parse_term("(+ 1 2)", MATH))
    assert g[root].data == 3


def test_make_with_unknown_child_is_absent():
    g = math_egraph()
    root = g.add_term(parse_term("(+ x 2)", MATH))
    assert g[root].data is None


def test_join_absent_absent():
    assert join_optional_constant(None, None) == (None, False)


def test_join_present_absent_keeps_left_unchanged():
    assert join_optional_constant(3, None) == (3, False)
    value, changed = join_optional_constant(None, 3)
    assert value == 3 and changed


def test_join_conflicting_constants_raises():
    with pytest.raises(AnalysisContradiction):
        join_optional_constant(3, 4)


def test_conflict_surfaces_through_merge():
    g = math_egraph()
    three = g.add(ENode(num(3), ()))
    four = g.add(ENode(num(4), ()))
    with pytest.raises(AnalysisContradiction):
        g.merge(three, four)


def test_modify_no_constant_is_noop():
    g = math_egraph()
    x = g.add(ENode(sym("x"), ()))
    nodes_before = g.n_nodes()
    g.analysis.modify(g, x)
    assert g.n_nodes() == nodes_before


def test_modify_adds_constant_and_is_idempotent():
    g = math_egraph()
    root = g.add_term(parse_term("(+ 4 4)", MATH))
    g.rebuild()
    eight = g.lookup(ENode(num(8), ()))
    assert eight is not None and g.find(eight) == g.find(root)
    counts = (g.n_nodes(), g.n_classes(), g.union_count)
    g.analysis.modify(g, g.find(root))
    assert (g.n_nodes(), g.n_classes(), g.union_count) == counts


def test_folded_class_extracts_constant():
    from eqsat import extract_best

    g = math_egraph()
    root = g.add_term(parse_term("(+ 4 4)", MATH))
    g.rebuild()
    best, cost = extract_best(g, root)
    assert str(best) == "8" and cost == 1


def test_fold_propagates_through_rebuild():
    # (+ x 2) learns its constant only once x is merged with 1
    g = math_egraph()
    root = g.add_term(parse_term("(+ x 2)", MATH))
    one = g.add(ENode(num(1), ()))
    x = g.add(ENode(sym("x"), ()))
    assert g[root].data is None
    g.merge(x, one)
    g.rebuild()
    assert g[root].data == 3
    assert g.invariant_check() == []


def test_fold_overflow_is_checked_error():
    g = math_egraph()
    big = 2**62
    g.add(ENode(num(big), ()))
    g.add(ENode(num(2), ()))
    with pytest.raises(ConstantOverflow):
        g.add_term(parse_term(f"(* {big} 2)", MATH))


def test_division_by_zero_never_folds():
    g = math_egraph()
    root = g.add_term(parse_term("(/ 1 0)", MATH))
    assert g[root].data is None


def test_rational_folding():
    g = math_egraph()
    root = g.add_term(parse_term("(/ 1 2)", MATH))
    assert g[root].data == Fraction(1, 2)


def test_null_analysis_core_works_without_hooks():
    g = EGraph()
    a, b = g.add(ENode(sym("a"), ())), g.add(ENode(sym("b"), ()))
    g.merge(a, b)
    g.rebuild()
    assert g.invariant_check() == []
    assert g[a].data is None


constants = st.one_of(st.none(), st.integers(-5, 5))


@settings(max_examples=200, deadline=None)
@given(constants, constants, constants)
def test_optional_constant_join_semilattice(a, b, c):
    def join(x, y):
        return join_optional_constant(x, y)[0]

    def ok(x, y):
        # conflicting constants are outside the domain of one run
        return x is None or y is None or x == y

    if ok(a, a):
        assert join(a, a) == a
    if ok(a, b):
        assert join(a, b) == join(b, a)
    if ok(a, b) and ok(b, c) and ok(a, c):
        assert join(a, join(b, c)) == join(join(a, b), c)


name_sets = st.frozensets(st.sampled_from("uvwxyz"), max_size=4)
lam_data = st.builds(
    LamData,
    free=name_sets,
    constant=st.one_of(st.none(), st.just(num(1)), st.just(num(2))),
    symbols=name_sets,
)


@settings(max_examples=200, deadline=None)
@given(lam_data, lam_data, lam_data)
def test_lambda_join_semilattice(a, b, c):
    analysis = LamAnalysis()

    def join(x, y):
        return analysis.join(x, y)[0]

    def ok(x, y):
        return x.constant is None or y.constant is None or x.constant == y.constant

    if ok(a, a):
        assert join(a, a) == a
    if ok(a, b):
        assert join(a, b) == join(b, a)
    if ok(a, b) and ok(b, c) and ok(a, c):
        assert join(a, join(b, c)) == join(join(a, b), c)


def test_join_changed_flag_tracks_left_side():
    analysis = LamAnalysis()
    a = LamData(frozenset({1}), None)
    b = LamData(frozenset({1, 2}), num(3))
    _, changed = analysis.join(a, b)
    assert changed
    joined, changed = analysis.join(b, a)
    assert not changed and joined == b


def test_analysis_data_order_independent():
    # permuting the merge order must not change the final per-class data
    def build(order):
        g = lam_egraph()
        roots = [
            g.add_term(parse_term(t, LAMBDA))
            for t in ["(var x)", "(var y)", "(+ (var z) 1)"]
        ]
        for i, j in order:
            g.merge(roots[i], roots[j])
        g.rebuild()
        return g[roots[0]].data

    reference = build([(0, 1), (1, 2)])
    for order in ([(1, 2), (0, 1)], [(0, 2), (0, 1)], [(2, 1), (2, 0)]):
        assert build(order) == reference


def test_math_constant_order_independent():
    def build(order):
        g = math_egraph()
        roots = [g.add_term(parse_term(t, MATH)) for t in ["(+ 1 2)", "x", "y"]]
        for i, j in order:
            g.merge(roots[i], roots[j])
        g.rebuild()
        return [g[r].data for r in roots]

    reference = build([(0, 1), (1, 2)])
    assert reference == [3, 3, 3]
    for order in ([(1, 2), (0, 1)], [(0, 2), (0, 1)]):
        assert build(order) == reference


def test_analysis_invariant_checked_after_rebuild():
    rng = random.Random(21)
    for _ in range(15):
        g = math_egraph()
        terms = ["(+ 1 2)", "(* x (+ 1 1))", "(/ 8 (+ 2 2))", "(- 5 1)"]
        roots = [g.add_term(parse_term(t, MATH)) for t in terms]
        pool = list(g.classes)
        sym_classes = [c for c in pool if any(
            getattr(n.op, "kind", None) == "sym" for n in g.classes[c].nodes
        )]
        if len(sym_classes) >= 2:
            g.merge(sym_classes[0], sym_classes[1])
        g.rebuild()
        assert g.invariant_check() == []


def test_lambda_free_vars_of_var():
    g = lam_egraph()
    root = g.add_term(parse_term("(var x)", LAMBDA))
    x = g.add(ENode(sym("x"), ()))
    assert g[x].data.symbols == {"x"}
    assert g[root].data.free == {"x"}


def test_lambda_bound_var_removed():
    g = lam_egraph()
    root = g.add_term(parse_term("(lam x (var x))", LAMBDA))
    assert g[root].data.free == frozenset()


def test_lambda_let_free_vars():
    g = lam_egraph()
    root = g.add_term(parse_term("(let x (var y) (var x))", LAMBDA))
    y = g.add(ENode(sym("y"), ()))
    assert g[y].data.symbols == {"y"}
    assert g[root].data.free == {"y"}


class CountingLam(LamAnalysis):
    def __init__(self):
        self.make_calls = 0

    def make(self, egraph, node):
        self.make_calls += 1
        return super().make(egraph, node)


def counting_lam_egraph():
    analysis = CountingLam()
    return EGraph(analysis), analysis


def test_merge_of_equal_data_remakes_no_parent():
    g, analysis = counting_lam_egraph()
    a = g.add_term(parse_term("(+ (var x) (var y))", LAMBDA))
    b = g.add_term(parse_term("(+ (var y) (var x))", LAMBDA))
    pa = g.add_term(parse_term("(lam z (+ (var x) (var y)))", LAMBDA))
    pb = g.add_term(parse_term("(lam z (+ (var y) (var x)))", LAMBDA))
    assert g[a].data == g[b].data
    before = analysis.make_calls
    g.merge(a, b)
    g.rebuild()
    assert analysis.make_calls == before
    assert g.equiv(pa, pb)
    assert g.analysis_pending == []
    assert g.invariant_check() == []


def test_follower_data_change_reaches_follower_parents():
    # the leader (lower id, equal node count) already holds the join, so
    # only the follower's data changes; its parents must still be re-made
    g = lam_egraph()
    leader = g.add_term(parse_term("(+ (var x) (var y))", LAMBDA))
    follower = g.add_term(parse_term("(app (var x) 1)", LAMBDA))
    parent = g.add_term(parse_term("(lam w (app (var x) 1))", LAMBDA))
    assert g[parent].data.free == {"x"}
    assert g.merge(leader, follower) == leader
    g.rebuild()
    assert g[parent].data.free == {"x", "y"}
    assert g.invariant_check() == []


def test_pending_remake_survives_a_merge_that_changes_nothing():
    # the follower's data changed in a merge whose parents are not yet
    # re-made; it then merges into a leader with equal data
    g = lam_egraph()
    leader = g.add_term(parse_term("(+ (var x) (var y))", LAMBDA))
    g.merge(leader, g.add_term(parse_term("(+ (var y) (var x))", LAMBDA)))
    g.rebuild()
    follower = g.add_term(parse_term("(app (var x) 1)", LAMBDA))
    parent = g.add_term(parse_term("(lam w (app (var x) 1))", LAMBDA))
    g.merge(follower, g.add_term(parse_term("(app (var y) 1)", LAMBDA)))
    assert g[follower].data == g[leader].data
    assert g.merge(leader, follower) == leader
    g.rebuild()
    assert g[parent].data.free == {"x", "y"}
    assert g.invariant_check() == []


def test_data_rise_repairs_only_the_merged_class():
    # merging (* a 1) with a lowers the cost of both ancestors; their nodes
    # did not change, so only the merged class is repaired
    g = EGraph(MinCostExtraction())
    root = g.add_term(parse_term("(+ (+ (* a 1) 1) 1)", MATH))
    times_one = g.add_term(parse_term("(* a 1)", MATH))
    a = g.add_term(parse_term("a", MATH))
    g.rebuild()
    before = g.repair_calls
    g.merge(times_one, a)
    g.rebuild()
    assert g.repair_calls - before == 1
    assert g[root].data == 5
    assert g.invariant_check() == []


LAM_LEAVES = [sym("x"), sym("y"), sym("z"), num(1), num(2)]
LAM_OPS = {"var": 1, "+": 2, "=": 2, "app": 2, "lam": 2, "fix": 2, "let": 3, "if": 3}


def random_lambda_script(rng: random.Random, n_adds=30, n_merges=10):
    """Random adds over the lambda language, with merges and rebuilds
    interleaved; half the merges join two symbol classes."""
    script = [("add", leaf, ()) for leaf in LAM_LEAVES]
    for added in range(len(LAM_LEAVES), len(LAM_LEAVES) + n_adds):
        op = rng.choice(sorted(LAM_OPS))
        if op == "var" or (op in ("lam", "fix", "let") and rng.random() < 0.8):
            first = rng.randrange(3)  # a symbol leaf
        else:
            first = rng.randrange(added)
        rest = [rng.randrange(added) for _ in range(LAM_OPS[op] - 1)]
        script.append(("add", op, (first, *rest)))
        if rng.random() < n_merges / n_adds:
            if rng.random() < 0.5:
                i, j = rng.sample(range(3), 2)
            else:
                i, j = rng.randrange(added + 1), rng.randrange(added + 1)
            script.append(("merge", i, j))
        if rng.random() < 0.2:
            script.append(("rebuild",))
    return script + [("rebuild",)]


@pytest.mark.parametrize("eager", [False, True], ids=["deferred", "eager"])
def test_lambda_analysis_invariant_checked_after_rebuild(eager):
    rng = random.Random(22)
    completed = symbol_merges = 0
    for _ in range(40):
        g = lam_egraph(rebuild_after_merge=eager)
        ids: list[int] = []
        try:
            for step in random_lambda_script(rng):
                if step[0] == "add":
                    _, op, slots = step
                    ids.append(g.add(ENode(op, tuple(ids[s] for s in slots))))
                elif step[0] == "merge":
                    symbol_merges += step[1] < 3 and step[2] < 3
                    g.merge(ids[step[1]], ids[step[2]])
                else:
                    g.rebuild()
                    assert g.invariant_check() == []
                    assert g.analysis_pending == []
        except AnalysisContradiction:
            # a random merge may equate two different constants
            continue
        completed += 1
    assert completed >= 25 and symbol_merges >= 40


class _HookRecorder:
    """Delegates every attribute to a real analysis and records its name."""

    def __init__(self, inner):
        self.inner = inner
        self.called = set()

    def __getattr__(self, name):
        self.called.add(name)
        return getattr(self.inner, name)


@pytest.mark.parametrize("eager", [False, True], ids=["deferred", "eager"])
def test_rebuild_calls_only_make_join_and_modify(eager):
    from eqsat.domains.math import MathFolding

    recorder = _HookRecorder(MathFolding())
    g = EGraph(recorder, rebuild_after_merge=eager)
    x = g.add_term(parse_term("x", MATH))
    y = g.add_term(parse_term("y", MATH))
    g.add_term(parse_term("(+ x 1)", MATH))
    g.add_term(parse_term("(* (+ y 1) 2)", MATH))
    g.merge(x, g.add_term(parse_term("2", MATH)))  # x's data changes
    g.merge(x, y)  # congruence: (+ x 1) = (+ y 1)
    g.rebuild()
    assert g.clean and g[y].data == 2
    assert recorder.called == {"make", "join", "modify"}
