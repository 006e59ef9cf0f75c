import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import eqsat.pattern as pattern_module
from eqsat import (
    Applier,
    ArityError,
    ConditionEqual,
    DirtyGraphError,
    EGraph,
    ENode,
    LanguageDef,
    Leaf,
    ParseError,
    Pattern,
    RunnerConfig,
    UnknownOperatorError,
    apply_subst,
    build_cost_table,
    compile_pattern,
    ematch,
    num,
    parse_pattern,
    parse_term,
    run,
    sym,
)
from eqsat.pattern import Bind, Compare, Start
from eqsat.domains.lam import LAMBDA, lambda_rules
from eqsat.domains.math import MATH, make_egraph, math_rules

from helpers import (
    enumerate_decorated,
    naive_ematch,
    pattern_depth,
    random_small_egraph,
    random_term,
    shallow_recursion_limit,
    syntactic_match,
)


def division_demo_graph():
    g = EGraph()
    root = g.add_term(parse_term("(/ (* a 2) 2)", MATH))
    return g, root


def test_parse_pattern_variables():
    p = parse_pattern("(let ?v ?e (+ ?a ?b))", MATH.__class__(
        "mini", {"let": 3, "+": 2}, frozenset({"num", "sym"})
    ))
    assert p.vars() == ("?v", "?e", "?a", "?b")


def test_variable_pattern_matches_every_class():
    g, _ = division_demo_graph()
    matches = ematch(g, parse_pattern("?x", MATH))
    assert [m.eclass for m in matches] == sorted(g.classes)
    for m in matches:
        assert m.substs == [{"?x": m.eclass}]


def test_substitutions_view_reads_as_the_list_of_dicts():
    g = make_egraph()
    root = parse_term("(+ (* a b) (+ (* b c) (* c a)))", MATH)
    run(g, [root], math_rules(), RunnerConfig(iter_limit=3, scheduler="every"))
    pattern = parse_pattern("(+ ?x (* ?y ?z))", MATH)
    names = [name for name, _ in pattern.program.var_regs]
    found = ematch(g, pattern)
    roots = [(m.eclass, g.classes[m.eclass].nodes) for m in found]
    vm = dict(pattern_module.run_program(g, pattern.program, roots))
    assert max(len(m.substs) for m in found) >= 3
    for m in found:
        substs = m.substs
        expected = [dict(zip(names, ids)) for ids in sorted(vm[m.eclass])]
        assert not isinstance(substs, list)
        assert len(substs) == len(expected)
        assert substs == expected and expected == substs
        assert not substs != expected
        assert substs != expected[:-1] and substs != expected + [{}]
        assert substs != tuple(expected)  # a list of dicts is no tuple either
        assert list(substs) == expected and [s for s in substs] == expected
        for i in range(-len(expected), len(expected)):
            assert substs[i] == expected[i]
        for bad in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                substs[bad]
        for cut in (slice(None, 2), slice(1, None), slice(None, None, -1), slice(5, 1)):
            assert substs[cut] == expected[cut]
            assert isinstance(substs[cut], list)
        assert repr(substs) == repr(expected)
        assert expected[-1] in substs and substs.index(expected[-1]) == len(expected) - 1
        assert list(reversed(substs)) == expected[::-1]
        with pytest.raises(TypeError):
            hash(substs)
        substs[0]["?x"] = -1  # every read builds a new dict
        assert substs[0] == expected[0]


def test_substitutions_view_iterates_without_indexing(monkeypatch):
    g = EGraph()
    two = g.add_term(parse_term("2", MATH))
    product = g.add_term(parse_term("(* a 2)", MATH))
    g.add_term(parse_term("(/ (* a 2) 2)", MATH))
    (m,) = ematch(g, parse_pattern("(/ ?n ?d)", MATH))

    def no_index(self, index):
        raise AssertionError("iteration went through __getitem__")

    monkeypatch.setattr(type(m.substs), "__getitem__", no_index)
    assert list(m.substs) == [{"?d": two, "?n": product}]
    assert len(m.substs) == 1


def test_compile_variable_only_program_is_empty():
    program = compile_pattern(parse_pattern("?x", MATH))
    assert program.instructions == ()
    assert dict(program.var_regs) == {"?x": 0}


def test_compile_structure():
    program = compile_pattern(parse_pattern("(* ?x 2)", MATH))
    binds = [i for i in program.instructions if isinstance(i, Bind)]
    assert binds[0].op == "*" and binds[0].arity == 2
    # literal 2 compiles to a leaf bind with no children
    assert binds[1].op == num(2) and binds[1].arity == 0


def test_compile_nonlinear_has_compare():
    program = compile_pattern(parse_pattern("(/ ?x ?x)", MATH))
    assert any(isinstance(i, Compare) for i in program.instructions)


def test_ematch_shift_candidate_single_match():
    g, _ = division_demo_graph()
    matches = ematch(g, parse_pattern("(* ?x 2)", MATH))
    a = g.lookup(ENode(sym("a"), ()))
    assert len(matches) == 1
    assert matches[0].substs == [{"?x": g.find(a)}]


def test_ematch_nonlinear_division():
    g, root = division_demo_graph()
    # numerator and denominator classes differ: no x/x match yet
    assert ematch(g, parse_pattern("(/ ?a ?a)", MATH)) == []
    # after the mul distributes over the division, (/ 2 2) appears
    two = g.lookup(ENode(num(2), ()))
    a = g.lookup(ENode(sym("a"), ()))
    div22 = g.add(ENode("/", (two, two)))
    g.add(ENode("*", (a, div22)))
    g.rebuild()
    matches = ematch(g, parse_pattern("(/ ?a ?a)", MATH))
    assert len(matches) == 1
    assert matches[0].substs == [{"?a": g.find(two)}]


def test_ematch_requires_clean_graph():
    g, _ = division_demo_graph()
    a = g.lookup(ENode(sym("a"), ()))
    two = g.lookup(ENode(num(2), ()))
    g.merge(a, two)
    with pytest.raises(AssertionError):
        ematch(g, parse_pattern("?x", MATH))


def test_ematch_is_read_only():
    g, _ = division_demo_graph()
    before = (g.n_nodes(), g.n_classes(), g.union_count)
    ematch(g, parse_pattern("(* ?x ?y)", MATH))
    ematch(g, parse_pattern("(/ ?a ?a)", MATH))
    assert (g.n_nodes(), g.n_classes(), g.union_count) == before


def test_ematch_results_canonical_under_noncanonical_bindings():
    g = EGraph()
    a, b = g.add(ENode(sym("a"), ())), g.add(ENode(sym("b"), ()))
    fa = g.add(ENode("f", (a,)))
    g.merge(a, b)
    g.rebuild()
    matches = ematch(g, parse_pattern("(f ?x)", MATH.__class__(
        "mini", {"f": 1}, frozenset({"num", "sym"})
    )))
    assert len(matches) == 1
    bound = matches[0].substs[0]["?x"]
    assert g.find(bound) == bound == g.find(a) == g.find(b)


def test_ematch_multiple_substitutions_deduplicated():
    # f(a, b) with a ~ b: patterns over the same class dedupe to one subst
    g = EGraph()
    a, b = g.add(ENode(sym("a"), ())), g.add(ENode(sym("b"), ()))
    g.add(ENode("f", (a, a)))
    g.add(ENode("f", (a, b)))
    g.merge(a, b)
    g.rebuild()
    lang = MATH.__class__("mini", {"f": 2}, frozenset({"num", "sym"}))
    matches = ematch(g, parse_pattern("(f ?x ?y)", lang))
    assert len(matches) == 1
    assert len(matches[0].substs) == 1


def test_apply_subst_variable_returns_binding():
    g, root = division_demo_graph()
    before = g.n_nodes()
    out = apply_subst(parse_pattern("?x", MATH), {"?x": root}, g)
    assert out == root and g.n_nodes() == before


def test_apply_subst_builds_shift():
    g, _ = division_demo_graph()
    a = g.lookup(ENode(sym("a"), ()))
    before = g.n_nodes()
    out = apply_subst(parse_pattern("(<< ?x 1)", MATH), {"?x": a}, g)
    assert g.n_nodes() == before + 2  # the shift node and the literal 1
    again = apply_subst(parse_pattern("(<< ?x 1)", MATH), {"?x": a}, g)
    assert again == out and g.n_nodes() == before + 2


def test_apply_subst_unbound_variable_errors():
    g, _ = division_demo_graph()
    with pytest.raises(KeyError):
        apply_subst(parse_pattern("(<< ?x 1)", MATH), {}, g)


def _as_comparable(matches):
    return [
        (m[0] if isinstance(m, tuple) else m.eclass,
         [tuple(sorted(s.items())) for s in (m[1] if isinstance(m, tuple) else m.substs)])
        for m in matches
    ]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 100_000))
def test_compiled_matcher_agrees_with_naive(seed):
    rng = random.Random(seed)
    g, _ = random_small_egraph(rng, MATH, n_terms=4, n_merges=3)
    pattern = random_pattern(rng)
    assert _as_comparable(ematch(g, pattern)) == _as_comparable(naive_ematch(g, pattern))


def random_pattern(rng):
    lang = MATH
    variables = ["?x", "?y", "?z"]

    def go(depth):
        roll = rng.random()
        if depth <= 1 or roll < 0.35:
            if roll < 0.6:
                return rng.choice(variables)
            return str(random_term(rng, lang, 1))
        op = rng.choice(sorted(lang.operators))
        kids = [go(depth - 1) for _ in range(lang.operators[op])]
        return "(" + " ".join([op] + kids) + ")" if kids else op

    return parse_pattern(go(rng.randint(1, 3)), lang)


def test_ematch_complete_against_enumeration():
    # every substitution derivable by matching the pattern against an
    # enumerated represented term must be reported by ematch
    rng = random.Random(4321)
    checked = 0
    while checked < 40:
        g, _ = random_small_egraph(rng, MATH, n_terms=3, n_merges=2)
        pattern = random_pattern(rng)
        depth = pattern_depth(pattern)
        reported = {
            (m.eclass, tuple(sorted(s.items())))
            for m in ematch(g, pattern)
            for s in m.substs
        }
        expected = set()
        too_big = False
        for class_id in g.classes:
            decorated = enumerate_decorated(g, class_id, depth)
            if len(decorated) > 3000:
                too_big = True
                break
            for d in decorated:
                for subst in syntactic_match(g, pattern, -1, d, {}):
                    expected.add((class_id, tuple(sorted(subst.items()))))
        if too_big:
            continue
        checked += 1
        assert expected <= reported, f"missing matches: {expected - reported}"


def test_match_instantiations_are_represented():
    # soundness: p[subst] lands in the reported class when instantiated
    rng = random.Random(1234)
    for _ in range(25):
        g, _ = random_small_egraph(rng, MATH)
        pattern = random_pattern(rng)
        for m in ematch(g, pattern):
            for s in m.substs:
                built = apply_subst(pattern, s, g)
                assert g.find(built) == g.find(m.eclass)


def test_cyclic_graph_matching_terminates():
    # root class contains a node whose child is the class itself
    g = EGraph()
    a = g.add(ENode(sym("a"), ()))
    one = g.add(ENode(num(1), ()))
    mul = g.add(ENode("*", (a, one)))
    g.merge(mul, a)
    g.rebuild()
    lang = MATH
    matches = ematch(g, parse_pattern("(* (* ?x 1) 1)", lang))
    assert len(matches) == 1
    assert matches[0].substs[0]["?x"] == g.find(a)


def test_run_uses_patterns_compiled_at_construction(monkeypatch):
    rules = math_rules()
    compiled = []
    original = pattern_module.compile_pattern

    def counting(pattern):
        compiled.append(pattern)
        return original(pattern)

    monkeypatch.setattr(pattern_module, "compile_pattern", counting)
    term = parse_term("(/ (* (+ a b) 2) 2)", MATH)
    report = run(make_egraph(), [term], rules, RunnerConfig(scheduler="every", iter_limit=4))
    assert sum(st.applied for it in report.iterations for st in it.rules.values()) > 0
    assert compiled == []


def _rule_patterns(rule):
    """The searcher and every pattern its applier and its conditions hold,
    however nested, in tuples too."""
    found, todo = [], [rule.searcher, rule.applier, rule.conditions]
    while todo:
        value = todo.pop()
        if isinstance(value, Pattern):
            found.append(value)
        elif isinstance(value, tuple):
            todo.extend(value)
        elif isinstance(value, (Applier, ConditionEqual)):
            todo.extend(vars(value).values())
    return found


def test_rule_patterns_print_and_parse_round_trip():
    for rules, lang in ((math_rules(), MATH), (lambda_rules(), LAMBDA)):
        for rule in rules:
            patterns = _rule_patterns(rule)
            assert len(patterns) >= 2, rule.name
            for pattern in patterns:
                text = str(pattern)
                assert str(parse_pattern(text, lang)) == text
                assert parse_pattern(text, lang) == pattern


@pytest.mark.parametrize(
    "text, error",
    [
        ("(+ ?x)", ArityError),
        ("(+ ?x ?y ?z)", ArityError),
        ("(+ + ?x)", ArityError),
        ("(bogus ?x)", UnknownOperatorError),
        ("(+ ? 1)", ParseError),
        ("?", ParseError),
        ("(+ ?x 1) ?y", ParseError),
        ("(+ ?x 1", ParseError),
        ("", ParseError),
    ],
)
def test_parse_pattern_rejects_malformed(text, error):
    with pytest.raises(error):
        parse_pattern(text, MATH)


def test_pattern_is_flat_term_with_variable_leaves():
    p = parse_pattern("(* ?x (+ ?x 2))", MATH)
    assert [op for op, _ in p.nodes] == [Leaf("var", "?x"), Leaf("var", "?x"), num(2), "+", "*"]
    assert p.vars() == ("?x",)
    assert str(p) == "(* ?x (+ ?x 2))"


def test_dirty_graph_error_is_typed_and_survives_python_O():
    g, _ = division_demo_graph()
    g.merge(g.lookup(ENode(sym("a"), ())), g.lookup(ENode(num(2), ())))
    pattern = parse_pattern("(* ?x 2)", MATH)
    queries = (
        lambda: ematch(g, pattern),
        lambda: build_cost_table(g),
    )
    for query in queries:
        with pytest.raises(DirtyGraphError):
            query()
    # the VM trusts canonical ids, so the check must not be an assert
    script = (
        "from eqsat import DirtyGraphError, EGraph, ENode, ematch, parse_pattern, sym\n"
        "from eqsat.domains.math import MATH\n"
        "g = EGraph()\n"
        "a, b = g.add(ENode(sym('a'), ())), g.add(ENode(sym('b'), ()))\n"
        "g.merge(a, b)\n"
        "try:\n"
        "    ematch(g, parse_pattern('?x', MATH))\n"
        "except DirtyGraphError as exc:\n"
        "    print('raised', exc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised ematch needs a clean graph")


def test_compile_order_is_breadth_first():
    # recorded from the compiler that popped its work list from the front
    program = compile_pattern(parse_pattern("(+ (* ?a 2) (/ (- ?b 1) ?a))", MATH))
    assert program.instructions == (
        Bind(0, "+", 2, 1),
        Bind(1, "*", 2, 3),
        Bind(2, "/", 2, 5),
        Bind(4, num(2), 0, 7),
        Bind(5, "-", 2, 7),
        Compare(6, 3),
        Bind(8, num(1), 0, 9),
    )
    assert program.var_regs == (("?a", 3), ("?b", 7)) and program.n_regs == 9


def steps_up(program, at):
    """The ``(op, arity, child position)`` steps from ``program.starts[at]``
    up to the root."""
    starts, steps = program.starts, []
    while at:
        position, at = starts[at].position, starts[at].parent
        steps.append((starts[at].op, starts[at].arity, position))
    return tuple(steps)


def test_compile_records_every_non_variable_node_and_its_path():
    program = compile_pattern(parse_pattern("(+ (* ?a 2) (/ (- ?b 1) ?a))", MATH))
    assert program.starts == (
        Start("+", 2, -1, 0),
        Start("*", 2, 0, 0),
        Start("/", 2, 0, 1),
        Start(num(2), 0, 1, 1),
        Start("-", 2, 2, 0),
        Start(num(1), 0, 4, 1),
    )
    # the ground leaf nearest the root, and its path
    assert steps_up(program, 3) == (("*", 2, 1), ("+", 2, 0))
    assert steps_up(program, 5) == (("-", 2, 1), ("/", 2, 0), ("+", 2, 1))
    program = compile_pattern(parse_pattern("(* (* ?a 2) ?c)", MATH))
    assert [start.op for start in program.starts] == ["*", "*", num(2)]
    assert steps_up(program, 2) == (("*", 2, 1), ("*", 2, 0))
    # no ground leaf below the root
    assert compile_pattern(parse_pattern("?x", MATH)).starts == ()
    assert compile_pattern(parse_pattern("2", MATH)).starts == (Start(num(2), 0, -1, 0),)
    assert compile_pattern(parse_pattern("(+ ?x ?y)", MATH)).starts == (Start("+", 2, -1, 0),)
    assert compile_pattern(parse_pattern("(* (+ ?x ?y) ?z)", MATH)).starts == (
        Start("*", 2, -1, 0),
        Start("+", 2, 0, 0),
    )


def _root_nodes_handed(monkeypatch):
    """Patch run_program to count the root nodes its candidates hand it."""
    handed = []
    original = pattern_module.run_program

    def counting(egraph, program, candidates):
        candidates = list(candidates)
        handed.append(sum(len(nodes) for _, nodes in candidates))
        return original(egraph, program, candidates)

    monkeypatch.setattr(pattern_module, "run_program", counting)
    return handed


def test_anchored_search_hands_the_vm_only_the_nodes_above_the_leaf(monkeypatch):
    n, k = 60, 4
    g = EGraph()
    products = [g.add_term(parse_term(f"(* a{i} b{i})", MATH)) for i in range(n - k)]
    products += [g.add_term(parse_term(f"(* x{i} 2)", MATH)) for i in range(k)]
    for i in range(0, n, 2):  # classes that hold several `*` nodes
        g.merge(products[i], products[i + 1])
    g.rebuild()
    assert g.n_nodes() - n == 2 * (n - k) + k + 1  # the leaves
    handed = _root_nodes_handed(monkeypatch)
    anchored = parse_pattern("(* ?x 2)", MATH)
    found = ematch(g, anchored)
    assert handed == [k]
    assert sum(len(m.substs) for m in found) == k
    assert _listing(found) == _listing(naive_ematch(g, anchored))
    ematch(g, parse_pattern("(* ?x ?y)", MATH))  # no ground leaf: every `*` node
    assert handed == [k, n]
    # the root Bind tries the nodes it is handed, not the whole class
    program = parse_pattern("(* ?x ?y)", MATH).program
    node = g.classes[g.find(products[0])].nodes[-1]
    found = pattern_module.run_program(g, program, [(g.find(products[0]), [node])])
    assert found == [(g.find(products[0]), [node.children])]


def test_anchor_leaf_in_a_merged_class_agrees_with_naive():
    g = EGraph()
    for text in ("(* y 2)", "(* z (+ 1 1))", "(* (+ 1 1) 2)", "(+ 2 (* w 1))"):
        g.add_term(parse_term(text, MATH))
    two = g.lookup(ENode(num(2), ()))
    g.merge(two, g.add_term(parse_term("(+ 1 1)", MATH)))
    g.rebuild()
    for text in ("(* ?x 2)", "(* 2 ?x)", "(* ?x (+ 1 1))", "(+ 2 (* ?x 1))", "(* (+ ?a 1) 2)"):
        pattern = parse_pattern(text, MATH)
        found = _listing(ematch(g, pattern))
        assert found == _listing(naive_ematch(g, pattern)), text
        assert found, text
    # `(* z (+ 1 1))` reaches the anchor only through the merged class
    z = g.lookup(ENode(sym("z"), ()))
    product = g.lookup(ENode("*", (z, g.find(two))))
    assert (product, [{"?x": z}]) in _listing(ematch(g, parse_pattern("(* ?x 2)", MATH)))


def test_substitutions_sort_on_first_read_and_len_does_not():
    unsorted = [(3, 1), (1, 2), (2, 0), (1, 1)]
    names = ("?a", "?b")
    expected = [dict(zip(names, ids)) for ids in sorted(unsorted)]
    reads = {
        "ids": lambda s: s.ids == sorted(unsorted),
        "item": lambda s: [s[i] for i in range(4)] == expected,
        "slice": lambda s: s[:] == expected,
        "iteration": lambda s: list(s) == expected,
        "==": lambda s: s == expected,
        "repr": lambda s: repr(s) == repr(expected),
    }
    for read, reads_sorted in reads.items():
        ids = list(unsorted)
        substs = pattern_module.Substitutions(names, ids)
        assert len(substs) == 4 and ids == unsorted, read  # len does not sort
        assert reads_sorted(substs), read
        assert ids == sorted(unsorted), read  # sorted in place: it owns the list


UNARY = LanguageDef("unary", {"f": 1}, frozenset({"sym"}))


def test_deep_pattern_spine_compiles_and_matches_without_recursion():
    depth = 2000
    pattern_text = "(f " * depth + "?x" + ")" * depth
    term_text = "(f " * (depth + 1) + "a" + ")" * (depth + 1)
    g = EGraph()
    root = g.add_term(parse_term(term_text, UNARY))
    g.rebuild()
    with shallow_recursion_limit():
        pattern = parse_pattern(pattern_text, UNARY)
        matches = ematch(g, pattern)
    a = g.lookup(ENode(sym("a"), ()))
    f_a = g.lookup(ENode("f", (a,)))
    below_root = g.classes[root].nodes[0].children[0]
    assert len(pattern.program.instructions) == depth
    assert matches == [(below_root, [{"?x": a}]), (root, [{"?x": f_a}])]


# Classes that mix leaves, a nullary operator and `lst` nodes of several
# arities (`add` takes any arity), so Bind meets same-op runs of several
# arities and hashcons probes.
MIXED_OPS = {"f": 2, "g": 1, "nil": 0}
MIXED_LEAVES = [num(1), num(2), sym("a"), sym("b")]


def parse_mixed(text):
    """A pattern over MIXED_OPS and `lst`, read with the one `lst` arity
    (0 to 3) that the text uses."""
    for arity in range(4):
        lang = LanguageDef("mixed", {**MIXED_OPS, "lst": arity}, frozenset({"num", "sym"}))
        try:
            return parse_pattern(text, lang)
        except ArityError:
            continue
    raise ValueError(f"no single lst arity reads {text!r}")


def random_mixed_egraph(rng, n_nodes=40, n_merges=12):
    """Random nodes over MIXED_OPS and `lst` plus many merges, so classes hold several
    nodes with the same operator next to leaves and `nil`."""
    g = EGraph()
    ids = [g.add(ENode(leaf, ())) for leaf in MIXED_LEAVES]
    ids.append(g.add(ENode("nil", ())))
    for _ in range(n_nodes):
        op = rng.choice(["f", "f", "g", "lst"])
        arity = {"f": 2, "g": 1}.get(op, rng.randint(0, 3))
        ids.append(g.add(ENode(op, tuple(g.find(rng.choice(ids)) for _ in range(arity)))))
    for _ in range(n_merges):
        g.merge(rng.choice(ids), rng.choice(ids))
    g.rebuild()
    return g, ids


MIXED_PATTERNS = [
    "nil", "2", "a", "(lst)", "(g nil)", "(f nil ?x)", "(f ?x 2)", "(f 1 ?x)",
    "(g (f ?x nil))", "(lst ?x)", "(lst ?x ?y)", "(lst ?x nil ?y)",
    "(f ?x ?x)", "(f ?x (f ?x 1))", "(f (g ?x) (lst ?x 2))",
    "(f ?y (g ?x))", "(f (f ?x ?y) ?z)", "(lst ?x (g ?y) ?x)", "?x",
]


def _listing(matches):
    return [(m[0], m[1]) for m in matches]


def test_matcher_agrees_with_naive_on_mixed_classes_in_order():
    rng = random.Random(2024)
    patterns = [parse_mixed(text) for text in MIXED_PATTERNS]
    busy = 0
    for _ in range(40):
        g, _ = random_mixed_egraph(rng)
        busy += sum(len(c.nodes) >= 4 for c in g.classes.values())
        for pattern in patterns:
            assert _listing(ematch(g, pattern)) == _listing(naive_ematch(g, pattern)), str(pattern)
    assert busy >= 40  # classes that hold many nodes were exercised


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_matcher_agrees_with_naive_on_heavily_merged_graphs(seed):
    rng = random.Random(seed)
    g, _ = random_small_egraph(rng, MATH, n_terms=6, n_merges=12)
    for _ in range(3):
        pattern = random_pattern(rng)
        assert _listing(ematch(g, pattern)) == _listing(naive_ematch(g, pattern))


def skewed_merged_egraph(rng):
    """Random terms where `+` is common, `-` rare and `/` absent, then two
    rounds of random merges, so parent lists hold stale and repeated
    entries."""
    g = EGraph()
    ids = [g.add(ENode(leaf, ())) for leaf in (sym("a"), sym("b"), num(1), num(2))]
    for _ in range(30):
        op = rng.choices(["+", "*", "-"], weights=[6, 3, 1])[0]
        ids.append(g.add(ENode(op, (g.find(rng.choice(ids)), g.find(rng.choice(ids))))))
    for _ in range(2):
        for _ in range(4):
            g.merge(rng.choice(ids), rng.choice(ids))
        g.rebuild()
    return g


def has_stale_or_repeated_parent(g):
    for eclass in g.classes.values():
        canonical = [(g.canonicalize(node), g.find(owner)) for node, owner in eclass.parents]
        if len(set(canonical)) < len(canonical) or canonical != eclass.parents:
            return True
    return False


def test_every_start_agrees_with_naive_on_merged_graphs(monkeypatch):
    patterns = {
        "inner op": "(+ (- ?a ?b) ?c)",
        "absent op": "(+ (/ ?a ?b) ?c)",
        "absent leaf": "(* ?a 7)",
        "variable root": "?x",
        "nonlinear": "(+ ?a (* ?a ?b))",
        "leaf two levels down": "(* (+ ?a 1) ?b)",
    }
    walked_from = []
    original = pattern_module._roots_above

    def spy(egraph, program, at, level):
        walked_from.append(program.starts[at].op)
        return original(egraph, program, at, level)

    monkeypatch.setattr(pattern_module, "_roots_above", spy)
    rng = random.Random(27)
    stale, inner_starts, found = 0, 0, {name: 0 for name in patterns}
    for _ in range(60):
        g = skewed_merged_egraph(rng)
        stale += has_stale_or_repeated_parent(g)
        for name, text in patterns.items():
            pattern = parse_pattern(text, MATH)
            del walked_from[:]
            matches = ematch(g, pattern)
            assert _listing(matches) == _listing(naive_ematch(g, pattern)), (name, g.dump())
            assert g.invariant_check() == [], name
            found[name] += len(matches)
            if name == "inner op":
                inner_starts += walked_from == ["-"]
    assert stale >= 30 and inner_starts >= 30
    assert found["absent op"] == found["absent leaf"] == 0
    assert all(found[name] for name in ("inner op", "nonlinear", "leaf two levels down"))


def test_a_start_op_without_a_class_hands_the_vm_no_candidate(monkeypatch):
    g = EGraph()
    for text in ("(+ (* a b) c)", "(+ 1 2)", "(* (+ a 1) 2)"):
        g.add_term(parse_term(text, MATH))
    g.rebuild()
    handed = _root_nodes_handed(monkeypatch)
    for text in ("(+ (/ ?a ?b) ?c)", "(* ?a 7)", "(/ ?a ?b)"):
        assert ematch(g, parse_pattern(text, MATH)) == [], text
    assert handed == []
    assert ematch(g, parse_pattern("(+ (* ?a ?b) ?c)", MATH))
    assert handed == [1]
