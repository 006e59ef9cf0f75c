import copy
import random

from hypothesis import given, settings, strategies as st

import pytest
from eqsat import EGraph, ENode, boolean, num, parse_term, sym
from eqsat.egraph import enode_sort_key
from eqsat.domains.math import MATH, make_egraph as math_egraph

from helpers import (
    NaiveCongruence,
    random_operations,
    run_script_on_egraph,
    run_script_on_oracle,
    same_partition,
)


def leaf(name):
    return ENode(sym(name), ())


def test_find_is_canonical_on_fresh_class():
    g = EGraph()
    a = g.add(leaf("a"))
    assert g.find(a) == a


def test_find_after_merge():
    g = EGraph()
    a, b = g.add(leaf("a")), g.add(leaf("b"))
    g.merge(a, b)
    assert g.find(a) == g.find(b)


def test_find_transitivity():
    g = EGraph()
    a, b, c = (g.add(leaf(x)) for x in "abc")
    g.merge(a, b)
    g.merge(b, c)
    assert g.find(a) == g.find(c)


def test_find_laws_reflexive_symmetric():
    g = EGraph()
    a, b = g.add(leaf("a")), g.add(leaf("b"))
    assert g.equiv(a, a)
    g.merge(a, b)
    assert g.equiv(a, b) and g.equiv(b, a)


def test_canonicalize_leaf_is_identity():
    g = EGraph()
    g.add(leaf("a"))
    node = leaf("a")
    assert g.canonicalize(node) == node


def test_canonicalize_canonical_node_is_identity():
    g = EGraph()
    a, b = g.add(leaf("a")), g.add(leaf("b"))
    node = ENode("f", (a, b))
    assert g.canonicalize(node) == node


def test_canonicalize_tracks_leader():
    g = EGraph()
    a, b, c = (g.add(leaf(x)) for x in "abc")
    g.merge(a, c)
    node = g.canonicalize(ENode("f", (a, b)))
    # leader-agnostic: children must equal find of the originals
    assert node == ENode("f", (g.find(a), g.find(b)))
    assert g.find(node.children[0]) == g.find(c)


def test_canonicalize_idempotent():
    g = EGraph()
    a, b = g.add(leaf("a")), g.add(leaf("b"))
    g.merge(a, b)
    node = g.canonicalize(ENode("f", (a, b)))
    assert g.canonicalize(node) == node


def test_lookup_absent():
    g = EGraph()
    g.add(leaf("a"))
    assert g.lookup(ENode("f", (0,))) is None


def test_lookup_after_add():
    g = EGraph()
    a = g.add(leaf("a"))
    fa = g.add(ENode("f", (a,)))
    assert g.lookup(ENode("f", (a,))) == g.find(fa)


def test_lookup_congruent_after_rebuild():
    g = EGraph()
    a, b, c = (g.add(leaf(x)) for x in "abc")
    fab = g.add(ENode("f", (a, b)))
    g.merge(b, c)
    g.rebuild()
    assert g.lookup(ENode("f", (a, c))) == g.find(fab)


def test_add_builds_initial_division_graph():
    g = EGraph()
    g.add_term(parse_term("(/ (* a 2) 2)", MATH))
    assert g.n_classes() == 4
    assert g.n_nodes() == 4


def test_double_add_is_identity():
    g = EGraph()
    a = g.add(leaf("a"))
    fa1 = g.add(ENode("f", (a,)))
    before = g.n_classes()
    fa2 = g.add(ENode("f", (a,)))
    assert fa1 == fa2
    assert g.n_classes() == before


def test_add_hits_hashcons_through_merged_child():
    g = EGraph()
    a, b = g.add(leaf("a")), g.add(leaf("b"))
    fa = g.add(ENode("f", (a,)))
    g.merge(a, b)
    g.rebuild()
    fb = g.add(ENode("f", (b,)))
    assert g.find(fa) == g.find(fb)


def test_merge_self_is_noop():
    g = EGraph()
    a = g.add(leaf("a"))
    before = g.union_count
    assert g.merge(a, a) == g.find(a)
    assert g.union_count == before
    assert g.clean


def test_merge_mirrors_shift_rewrite_shape():
    # merging the (* a 2) class with a freshly added (<< a 1) leaves the
    # class count unchanged and adds two nodes (the shift and the 1)
    g = EGraph()
    root = g.add_term(parse_term("(/ (* a 2) 2)", MATH))
    mul = g.lookup(ENode("*", (g.add(leaf("a")), g.add(ENode(num(2), ())))))
    one = g.add(ENode(num(1), ()))
    shift = g.add(ENode("<<", (g.add(leaf("a")), one)))
    assert g.n_classes() == 6
    g.merge(mul, shift)
    g.rebuild()
    assert g.n_classes() == 5
    assert g.n_nodes() == 6
    assert g.find(mul) == g.find(shift)


def test_merge_defers_congruence():
    g = EGraph()
    a, b, c = (g.add(leaf(x)) for x in "abc")
    x = g.add(ENode("f", (a, b)))
    y = g.add(ENode("f", (a, c)))
    g.merge(b, c)
    # merge alone must NOT merge the parents; that is deferred
    assert g.find(x) != g.find(y)
    assert not g.clean
    g.rebuild()
    assert g.find(x) == g.find(y)
    assert g.clean


def test_rebuild_on_clean_graph_is_noop():
    g = EGraph()
    g.add(leaf("a"))
    repairs = g.repair_calls
    g.rebuild()
    assert g.repair_calls == repairs


def test_repair_on_parentless_class():
    g = EGraph()
    a, b = g.add(leaf("a")), g.add(leaf("b"))
    g.merge(a, b)
    repairs = g.repair_calls
    g.rebuild()
    assert g.repair_calls == repairs + 1
    assert g.invariant_check() == []


def test_upward_merge_two_layers():
    g = EGraph()
    a, b, c = (g.add(leaf(x)) for x in "abc")
    fa = g.add(ENode("f", (a,)))
    fb = g.add(ENode("f", (b,)))
    gfa = g.add(ENode("g", (fa,)))
    gfb = g.add(ENode("g", (fb,)))
    g.merge(a, b)
    g.rebuild()
    assert g.find(fa) == g.find(fb)
    assert g.find(gfa) == g.find(gfb)
    assert g.invariant_check() == []


def test_repair_recanonicalizes_parents_after_a_union_in_its_dedupe_loop():
    # a's class holds f(b) once a and f(b) merge; merging a with b then
    # makes the class cyclic (it holds f of itself).  Repairing it meets
    # f(b) after f(a): folding X = f(a) into the class is an upward merge
    # inside the dedupe loop, and it turns the later parent g(b, X) into
    # g(a, a), congruent to the earlier parent g(a, a).
    first = [("add", "a", ()), ("add", "b", ()), ("add", "f", (0,)),
             ("add", "f", (1,)), ("merge", 0, 3)]
    second = [("add", "g", (1, 2)), ("add", "g", (0, 0)), ("merge", 0, 1)]
    g = EGraph()
    ids = run_script_on_egraph(g, first)
    g.rebuild()
    run_script_on_egraph(g, second, ids)
    p3, p4 = ids[4], ids[5]
    g._repair(g.find(ids[0]))
    assert g.equiv(p3, p4), "the repair itself must merge g(b, X) with g(a, a)"
    g.rebuild()
    assert g.invariant_check() == []
    oracle = NaiveCongruence()
    oracle_ids = run_script_on_oracle(oracle, first + second)
    oracle.close()
    assert same_partition(g.equiv, oracle.equiv, ids, oracle_ids)


def test_fanout_deferred_hashcons_updates_linear():
    # n parent terms over one child: a single deferred rebuild touches each
    # parent hashcons entry once (one remove + one insert)
    n = 50
    g = EGraph()
    x = g.add(leaf("x"))
    for i in range(n):
        g.add(ENode(f"f{i}", (x,)))
    ys = [g.add(leaf(f"y{i}")) for i in range(n)]
    updates_before = g.hashcons_updates
    for y in ys:
        g.merge(x, y)
    g.rebuild()
    assert g.hashcons_updates - updates_before <= 2 * n
    assert g.invariant_check() == []


def test_fanout_immediate_hashcons_updates_quadratic():
    n = 50
    g = EGraph(rebuild_after_merge=True)
    x = g.add(leaf("x"))
    for i in range(n):
        g.add(ENode(f"f{i}", (x,)))
    ys = [g.add(leaf(f"y{i}")) for i in range(n)]
    updates_before = g.hashcons_updates
    for y in ys:
        g.merge(x, y)
    assert g.hashcons_updates - updates_before >= 10 * n


def test_chain_workload_repair_counts():
    # width w, depth d: deferred repairs track the depth, immediate the area
    w, d = 20, 6

    def build(immediate):
        g = EGraph(rebuild_after_merge=immediate)
        xs = []
        for j in range(w):
            node = g.add(leaf(f"x{j}"))
            xs.append(node)
            for level in range(d, 0, -1):
                node = g.add(ENode(f"f{level}", (node,)))
        for x in xs[1:]:
            g.merge(xs[0], x)
        g.rebuild()
        return g

    deferred = build(False)
    immediate = build(True)
    assert deferred.repair_calls <= 3 * d
    assert immediate.repair_calls >= (w - 1) * d / 2
    assert deferred.invariant_check() == []
    assert immediate.invariant_check() == []


def test_invariant_check_fresh_graph_empty():
    g = EGraph()
    g.add_term(parse_term("(+ 1 (+ 2 a))", MATH))
    assert g.invariant_check() == []


def test_invariant_check_reports_congruence_violation():
    g = EGraph()
    a, b, c = (g.add(leaf(x)) for x in "abc")
    g.add(ENode("f", (a, b)))
    g.add(ENode("f", (a, c)))
    g.merge(b, c)
    violations = g.invariant_check()
    assert any("congruence" in v for v in violations)
    g.rebuild()
    assert g.invariant_check() == []


def _damaged_copy(damage):
    """A clean graph and a deep copy of it with `damage` applied."""
    g = math_egraph()
    root = g.add_term(parse_term("(+ (+ a 2) (+ b 2))", MATH))
    g.merge(g.lookup(ENode(sym("a"), ())), g.lookup(ENode(sym("b"), ())))
    g.rebuild()
    assert g.invariant_check() == []
    damaged = copy.deepcopy(g)
    damage(damaged, damaged.find(root))
    return damaged.invariant_check()


def test_invariant_check_reports_wrong_op_index():
    def drop_root(g, root):
        g.classes_with_op("+").remove(root)

    def descend(g, root):
        g.classes_with_op("+").reverse()  # two classes: (+ a 2) and the root

    assert any("op index for '+'" in v for v in _damaged_copy(drop_root))
    assert any("op index for '+'" in v for v in _damaged_copy(descend))


def test_invariant_check_reports_wrong_node_count():
    def miscount(g, root):
        g._n_nodes += 1

    assert any("n_nodes()" in v for v in _damaged_copy(miscount))


def test_invariant_check_reports_class_map_out_of_order():
    def reorder(g, root):
        g.classes = dict(reversed(list(g.classes.items())))

    assert "class map ids do not ascend" in _damaged_copy(reorder)


def test_invariant_check_reports_pending_data_change():
    def mark(g, root):
        g.data_changed.add(root)

    assert any("owe their parents a re-make" in v for v in _damaged_copy(mark))


def test_enode_sort_key_orders_bool_then_num_then_sym_leaves():
    nodes = [ENode(sym("a"), ()), ENode(num(0), ()), ENode(boolean(True), ()),
             ENode("+", (0, 1))]
    ordered = sorted(nodes, key=enode_sort_key)
    assert [n.op.kind if n.children == () else n.op for n in ordered] == [
        "+", "bool", "num", "sym"
    ]


@pytest.mark.parametrize("eager", [False, True], ids=["deferred", "eager"])
def test_invariant_check_leaves_graph_unchanged(eager):
    g = math_egraph(rebuild_after_merge=eager)
    g.add_term(parse_term("(+ a 1)", MATH))
    g.rebuild()
    # off the analysis fixpoint: constant folding would add the leaf 5 to
    # a's class and merge it in
    g[g.lookup(ENode(sym("a"), ()))].data = 5
    before = (g.dump(), g.union_count, g.n_nodes(), g.clean)
    violations = g.invariant_check()
    assert "analysis modify hook is not at a fixpoint" in violations
    assert (g.dump(), g.union_count, g.n_nodes(), g.clean) == before


def test_hashcons_counter_parity():
    rng = random.Random(3)
    for _ in range(20):
        g = EGraph()
        run_script_on_egraph(g, random_operations(rng))
        g.rebuild()
        assert len(g.hashcons) == g.n_nodes()
        distinct = {n for c in g.classes.values() for n in c.nodes}
        assert len(distinct) == g.n_nodes()


def test_ids_stay_valid_forever():
    g = EGraph()
    a, b = g.add(leaf("a")), g.add(leaf("b"))
    g.merge(a, b)
    g.rebuild()
    dead = a if g.find(a) != a else b
    # the merged-away id still resolves through find
    assert g.find(dead) in g.classes


def test_congruence_matches_oracle_on_random_scripts():
    rng = random.Random(42)
    for _ in range(60):
        script = random_operations(rng)
        g = EGraph()
        oracle = NaiveCongruence()
        g_ids = run_script_on_egraph(g, script)
        o_ids = run_script_on_oracle(oracle, script)
        g.rebuild()
        oracle.close()
        assert g.invariant_check() == []
        for i in range(len(g_ids)):
            for j in range(i + 1, len(g_ids)):
                assert g.equiv(g_ids[i], g_ids[j]) == oracle.equiv(
                    o_ids[i], o_ids[j]
                ), f"disagree on adds {i},{j}"


def test_equivalences_only_grow():
    rng = random.Random(11)
    for _ in range(20):
        script = random_operations(rng)
        g = EGraph()
        ids = run_script_on_egraph(g, script)
        g.rebuild()
        equal_pairs = [
            (i, j)
            for i in range(len(ids))
            for j in range(i + 1, len(ids))
            if g.equiv(ids[i], ids[j])
        ]
        # more work never un-merges anything
        more = g.add(ENode("g", (ids[0], ids[-1])))
        g.merge(more, ids[0])
        g.rebuild()
        for i, j in equal_pairs:
            assert g.equiv(ids[i], ids[j])


def test_determinism_identical_scripts():
    rng = random.Random(5)
    script = random_operations(rng)

    def build():
        g = EGraph()
        ids = run_script_on_egraph(g, script)
        g.rebuild()
        return ids, g.dump()

    ids1, dump1 = build()
    ids2, dump2 = build()
    assert ids1 == ids2
    assert dump1 == dump2


def test_dump_format():
    g = EGraph()
    a = g.add(leaf("a"))
    two = g.add(ENode(num(2), ()))
    g.add(ENode("*", (a, two)))
    lines = g.dump().splitlines()
    assert lines[0] == "0: {a} data=None"
    assert lines[1] == "1: {2} data=None"
    assert lines[2] == "2: {(* 0 1)} data=None"


def test_json_serialization_shape():
    g = EGraph()
    g.add_term(parse_term("(* a 2)", MATH))
    doc = g.to_json_dict()
    assert doc["schema"] == 1
    assert doc["eclasses"] == 3 and doc["enodes"] == 3
    assert doc["unionfind"] == [0, 1, 2]
    assert doc["classes"]["2"]["nodes"] == [["*", [0, 1]]]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_rebuild_restores_invariants_property(seed):
    rng = random.Random(seed)
    g = EGraph()
    run_script_on_egraph(g, random_operations(rng, max_adds=25, max_merges=10))
    g.rebuild()
    assert g.invariant_check() == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_interleaved_rebuilds_keep_invariants(seed):
    # rebuild at random points mid-script, with an analysis attached, and
    # compare the final partition against a single-rebuild-at-end run
    from eqsat.extraction import MinCostExtraction, ast_size

    rng = random.Random(seed)
    script = random_operations(rng, max_adds=25, max_merges=10)
    cut_points = sorted(rng.sample(range(1, len(script) + 1), k=min(3, len(script))))

    g_interleaved = EGraph(MinCostExtraction(ast_size))
    ids_a: list[int] = []
    for index, step in enumerate(script, start=1):
        run_script_on_egraph(g_interleaved, [step], ids_a)
        if index in cut_points:
            g_interleaved.rebuild()
            assert g_interleaved.invariant_check() == []
    g_interleaved.rebuild()
    assert g_interleaved.invariant_check() == []

    g_once = EGraph(MinCostExtraction(ast_size))
    ids_b = run_script_on_egraph(g_once, script)
    g_once.rebuild()
    for i in range(len(ids_a)):
        for j in range(i + 1, len(ids_a)):
            assert g_interleaved.equiv(ids_a[i], ids_a[j]) == g_once.equiv(
                ids_b[i], ids_b[j]
            )
