import dataclasses
import random
import time

import pytest

from eqsat import (
    BackoffScheduler,
    ENode,
    Rewrite,
    RunnerConfig,
    StopReason,
    check_equiv,
    check_equiv_batched,
    extract_best,
    parse_pattern,
    parse_rules,
    parse_term,
    run,
    sym,
)
import eqsat.pattern as pattern_module
import eqsat.rewrite as rewrite_module
import eqsat.runner as runner_module
from eqsat.bench import DEFAULT_MATH_EXPRS, partition_signature
from eqsat.rewrite import Applier, PatternApplier
from eqsat.runner import EveryRuleScheduler, RunnerState
from eqsat.domains.math import (
    MATH,
    make_egraph as math_egraph,
    math_rules,
    strength_reduction_rules,
)

from helpers import random_term, run_without_memo


def term(text):
    return parse_term(text, MATH)


def test_division_demo_saturates_to_variable():
    report = run(
        math_egraph(),
        [term("(/ (* a 2) 2)")],
        strength_reduction_rules(),
        RunnerConfig(scheduler="every"),
    )
    assert report.stop_reason is StopReason.SATURATED
    best, cost = extract_best(report.egraph, report.root_ids[0])
    assert str(best) == "a" and cost == 1
    a = report.egraph.lookup(ENode(sym("a"), ()))
    assert report.egraph.find(a) == report.egraph.find(report.root_ids[0])


def test_empty_rule_list_saturates_immediately():
    report = run(math_egraph(), [term("(+ 1 a)")], [], RunnerConfig())
    assert report.stop_reason is StopReason.SATURATED
    assert len(report.iterations) == 1
    assert report.total_applied == 0


def test_commutativity_saturates_once_orientation_present():
    comm = Rewrite.parse("mul-comm", "(* ?x ?y)", "(* ?y ?x)", MATH)
    report = run(math_egraph(), [term("(* 1 2)")], [comm], RunnerConfig(scheduler="every"))
    assert report.stop_reason is StopReason.SATURATED
    applied = [
        sum(st.applied for st in it.rules.values()) for it in report.iterations
    ]
    assert applied[0] >= 1
    assert applied[-1] == 0


def test_iter_limit_stops():
    report = run(
        math_egraph(),
        [term("(+ a (+ b (+ c d)))")],
        math_rules(),
        RunnerConfig(iter_limit=2, scheduler="every", node_limit=100_000),
    )
    assert report.stop_reason is StopReason.ITER_LIMIT
    assert len(report.iterations) == 2


def test_node_limit_stops_between_batches():
    limit = 30
    report = run(
        math_egraph(),
        [term("(+ a (+ b (+ c d)))")],
        math_rules(),
        RunnerConfig(node_limit=limit, scheduler="every"),
    )
    assert report.stop_reason is StopReason.NODE_LIMIT
    assert report.egraph.n_nodes() > limit
    # only the final iteration may overshoot: by one iteration's growth
    for it in report.iterations[:-1]:
        assert it.enodes <= limit
    assert report.egraph.clean
    assert report.iterations[-1].enodes == report.egraph.n_nodes()


def test_time_limit_stops():
    report = run(
        math_egraph(),
        [term("(+ a (+ b (+ c d)))")],
        math_rules(),
        RunnerConfig(time_limit=0.001, node_limit=10**9, iter_limit=10**6),
    )
    assert report.stop_reason is StopReason.TIME_LIMIT


def test_node_limit_takes_precedence_over_the_clock():
    report = run(
        math_egraph(), [term("(+ a b)")], math_rules(),
        RunnerConfig(node_limit=1, time_limit=1e-9),
    )
    assert report.stop_reason is StopReason.NODE_LIMIT and report.iterations == []


def test_time_out_after_search_reports_no_write_phase():
    class SlowScheduler(EveryRuleScheduler):
        def filter_matches(self, iteration, rewrite, matches):
            time.sleep(0.1)
            return matches, False

    g = math_egraph()
    report = run(
        g, [term("(+ a b)")], math_rules(),
        RunnerConfig(time_limit=0.05, scheduler=SlowScheduler()),
    )
    assert report.stop_reason is StopReason.TIME_LIMIT
    [it] = report.iterations
    assert it.stop_reason is StopReason.TIME_LIMIT
    assert it.search_time > 0.05
    assert (it.apply_time, it.rebuild_time, it.repair_calls) == (0.0, 0.0, 0)
    assert sum(st.searched for st in it.rules.values()) > 0
    assert sum(st.applied for st in it.rules.values()) == 0
    assert (it.enodes, it.eclasses) == (g.n_nodes(), g.n_classes()) == (3, 3)


def test_hook_stops_run():
    stops = []

    def hook(state: RunnerState) -> bool:
        stops.append(state.iteration)
        return state.iteration >= 1

    report = run(
        math_egraph(),
        [term("(+ a b)")],
        math_rules(),
        RunnerConfig(scheduler="every", hooks=(hook,)),
    )
    assert report.stop_reason is StopReason.HOOK_STOP
    assert stops == [0, 1]
    assert len(report.iterations) == 1


def test_one_rebuild_per_iteration():
    g = math_egraph()
    report = run(
        g,
        [term("(/ (* a 2) 2)")],
        strength_reduction_rules(),
        RunnerConfig(scheduler="every"),
    )
    # one rebuild when the roots were added, then one per iteration
    assert g.rebuild_calls == 1 + len(report.iterations)


def test_reports_are_consistent():
    report = run(
        math_egraph(),
        [term("(/ (* a 2) 2)")],
        strength_reduction_rules(),
        RunnerConfig(scheduler="every"),
    )
    enodes = [it.enodes for it in report.iterations]
    assert enodes == sorted(enodes), "e-node counts must be non-decreasing"
    for it in report.iterations:
        assert it.enodes >= 0 and it.eclasses >= 0
        assert it.search_time >= 0 and it.apply_time >= 0 and it.rebuild_time >= 0
        for stats in it.rules.values():
            assert stats.searched >= 0 and stats.applied >= 0
    assert report.iterations[-1].stop_reason is StopReason.SATURATED
    assert report.iterations[-1].enodes == report.egraph.n_nodes()
    assert report.iterations[-1].eclasses == report.egraph.n_classes()


def test_phase_timings_bounded_by_wall_time():
    import time as time_module

    start = time_module.perf_counter()
    report = run(
        math_egraph(),
        [term("(/ (* a 2) 2)")],
        strength_reduction_rules(),
        RunnerConfig(scheduler="every"),
    )
    wall = time_module.perf_counter() - start
    phases = sum(
        it.search_time + it.apply_time + it.rebuild_time for it in report.iterations
    )
    assert phases <= wall


def test_analysis_contradiction_stops_run():
    bad = Rewrite.parse("one-is-two", "1", "2", MATH)
    report = run(math_egraph(), [term("(+ 1 2)")], [bad], RunnerConfig())
    assert report.stop_reason is StopReason.ANALYSIS_CONTRADICTION
    assert "conflicting constants" in report.message


def test_backoff_ban_window():
    scheduler = BackoffScheduler(match_limit=1000, ban_length=5)
    rule = Rewrite.parse("comm", "(+ ?a ?b)", "(+ ?b ?a)", MATH)

    class FakeMatches:
        def __init__(self, n):
            self.substs = [{"?a": i} for i in range(n)]

    matches = [FakeMatches(1001)]
    filtered, banned = scheduler.filter_matches(3, rule, matches)
    assert banned and filtered == []
    state = scheduler.state["comm"]
    assert state.banned_until == 8  # banned through iteration 8
    assert state.match_limit == 2000
    assert scheduler.banned(8, rule)
    assert not scheduler.banned(9, rule)


def test_backoff_under_limit_passes_through():
    scheduler = BackoffScheduler(match_limit=1000, ban_length=5)
    rule = Rewrite.parse("comm", "(+ ?a ?b)", "(+ ?b ?a)", MATH)

    class FakeMatches:
        def __init__(self, n):
            self.substs = [{"?a": i} for i in range(n)]

    matches = [FakeMatches(10)]
    filtered, banned = scheduler.filter_matches(0, rule, matches)
    assert filtered == matches and not banned


def test_no_premature_saturation_while_rules_banned():
    # one expansive rule gets banned; the run must not report saturation
    # while the ban is pending even if nothing else applies
    comm = Rewrite.parse("add-comm", "(+ ?a ?b)", "(+ ?b ?a)", MATH)
    assoc = Rewrite.parse("add-assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))", MATH)
    scheduler = BackoffScheduler(match_limit=2, ban_length=2)
    report = run(
        math_egraph(),
        [term("(+ a (+ b (+ c d)))")],
        [comm, assoc],
        RunnerConfig(scheduler=scheduler, iter_limit=30, node_limit=100_000),
    )
    banned_iters = {
        it.index
        for it in report.iterations
        if any(st.banned for st in it.rules.values())
    }
    assert banned_iters, "scenario must actually ban a rule"
    for it in report.iterations[:-1]:
        if it.stop_reason is None:
            continue
    # saturation, if reached, must come after every ban expired
    if report.stop_reason is StopReason.SATURATED:
        last = report.iterations[-1]
        assert not any(st.banned for st in last.rules.values())


def test_check_equiv_division_demo():
    result = check_equiv(
        math_egraph(),
        term("(/ (* a 2) 2)"),
        term("a"),
        strength_reduction_rules(),
        RunnerConfig(scheduler="every"),
    )
    assert result.equal
    assert result.report.stop_reason is StopReason.HOOK_STOP


def test_check_equiv_identical_terms_zero_iterations():
    result = check_equiv(
        math_egraph(), term("(+ a b)"), term("(+ a b)"), math_rules(), RunnerConfig()
    )
    assert result.equal and result.iterations == 0


def test_check_equiv_unconnected_is_unknown():
    comm = Rewrite.parse("add-comm", "(+ ?a ?b)", "(+ ?b ?a)", MATH)
    result = check_equiv(
        math_egraph(), term("(+ a b)"), term("(* a b)"), [comm],
        RunnerConfig(iter_limit=5),
    )
    assert not result.equal


def test_check_equiv_batched_matches_individual():
    pairs = [
        (term("(+ a b)"), term("(+ b a)")),
        (term("(* a b)"), term("(* b a)")),
        (term("(+ a b)"), term("(* a b)")),
    ]
    rules = math_rules()
    config = RunnerConfig(scheduler="every", iter_limit=6)
    individual = [check_equiv(math_egraph(), a, b, rules, config).equal for a, b in pairs]
    batched, _ = check_equiv_batched(math_egraph(), pairs, rules, config)
    assert batched == individual == [True, True, False]


def test_rule_order_invariance_small():
    rules = math_rules()
    pairs = [
        ("(/ (* a 2) 2)", "a"),
        ("(+ a b)", "(+ b a)"),
        ("(* (+ a b) 1)", "(+ b a)"),
        ("(+ a b)", "(* a b)"),
        ("(<< a 1)", "(* a 2)"),
    ]
    rng = random.Random(0)
    baseline = None
    for _ in range(6):
        order = rules[:]
        rng.shuffle(order)
        verdicts = tuple(
            check_equiv(
                math_egraph(),
                term(lhs),
                term(rhs),
                order,
                RunnerConfig(iter_limit=10, scheduler="every"),
            ).equal
            for lhs, rhs in pairs
        )
        if baseline is None:
            baseline = verdicts
        assert verdicts == baseline
    assert baseline == (True, True, True, False, True)


def test_rule_order_preserves_partition():
    # same roots, permuted rules, fixed iterations: identical partitions
    from eqsat.bench import partition_signature

    rules = math_rules()
    rng = random.Random(17)
    signatures = set()
    for _ in range(4):
        order = rules[:]
        rng.shuffle(order)
        g = math_egraph()
        report = run(
            g,
            [term("(/ (* (+ a b) 2) 2)")],
            order,
            RunnerConfig(iter_limit=5, scheduler="every", node_limit=20_000),
        )
        signatures.add(partition_signature(g, report.root_ids))
    assert len(signatures) == 1


SWAP_WHEN_FOLDED = (
    "fold-x: x => 5\n"
    "swap-const: (- ?y ?z) => (- 0 (- ?z ?y)) if is-const ?y\n"
)


def test_conditional_rule_is_rule_order_and_strategy_invariant():
    # `x` is not constant on the graph the iteration searched, so swap-const
    # must not fire in it, whichever rule comes first and however merges
    # are rebuilt
    from eqsat.bench import partition_signature

    rules = parse_rules(SWAP_WHEN_FOLDED, MATH)
    signatures = set()
    for order in (rules, rules[::-1]):
        for eager in (False, True):
            g = math_egraph(rebuild_after_merge=eager)
            report = run(g, [term("(- x w)")], order,
                         RunnerConfig(iter_limit=1, scheduler="every"))
            assert report.iterations[0].rules["swap-const"].applied == 0
            assert (g.n_nodes(), g.n_classes()) == (4, 3)
            signatures.add(partition_signature(g, report.root_ids))
    assert len(signatures) == 1


def test_scheduler_objects_accepted():
    report = run(
        math_egraph(),
        [term("(+ 1 2)")],
        math_rules(),
        RunnerConfig(scheduler=EveryRuleScheduler(), iter_limit=3),
    )
    assert report.stop_reason in (StopReason.SATURATED, StopReason.ITER_LIMIT)


def test_duplicate_rule_names_are_rejected():
    # stats and backoff bans are keyed by rule name, so two rules sharing
    # one would share a ban and overwrite each other's report
    rules = [
        Rewrite.parse("r", "(+ ?a ?b)", "(+ ?b ?a)", MATH),
        Rewrite.parse("r", "(* ?a ?b)", "(* ?b ?a)", MATH),
    ]
    with pytest.raises(ValueError, match="duplicate rule name 'r'"):
        run(math_egraph(), [term("(+ (* a b) c)")], rules)


def test_limits_must_be_positive():
    with pytest.raises(ValueError):
        RunnerConfig(iter_limit=0)
    with pytest.raises(ValueError):
        RunnerConfig(node_limit=-5)


# ----------------------------------------------------------------------
# repeated instances of plain pattern rules are not applied again


def _memo_corpus():
    rng = random.Random(41)
    random_terms = [random_term(rng, MATH, 5, ("a", "b", "c", "d")) for _ in range(12)]
    return [term(t) for t in DEFAULT_MATH_EXPRS] + random_terms


@pytest.mark.parametrize("eager", [False, True], ids=["deferred", "eager"])
@pytest.mark.parametrize("scheduler", ["every", "backoff"])
def test_memo_leaves_the_graph_of_the_memo_free_loop(eager, scheduler):
    skipped = 0
    for t in _memo_corpus():
        g = math_egraph(rebuild_after_merge=eager)
        report = run(
            g, [t], math_rules(),
            RunnerConfig(iter_limit=8, node_limit=10**6, time_limit=600,
                         scheduler=scheduler),
        )
        oracle = math_egraph(rebuild_after_merge=eager)
        oracle_roots = run_without_memo(oracle, [t], math_rules(), 8, scheduler)
        assert g.dump() == oracle.dump(), str(t)
        assert report.root_ids == oracle_roots
        skipped += sum(st.skipped for it in report.iterations for st in it.rules.values())
    assert skipped > 0, "the corpus must repeat some instances"


def _flag_present(egraph, eclass, subst):
    return egraph.lookup(ENode(sym("flag"), ())) is not None


def test_conditional_rule_fires_when_its_condition_turns_true_later():
    # the guarded match (root, ?x=a, ?y=b) keeps its ids in every iteration;
    # `flag` appears only in iteration 1's apply phase, after the guarded
    # rule has run in it
    guarded = Rewrite.parse(
        "swap-if-flag", "(* ?x ?y)", "(* ?y ?x)", MATH, [_flag_present]
    )
    grow = Rewrite.parse("grow-a", "a", "(- a w)", MATH)
    mark = Rewrite.parse("mark-w", "w", "(- w flag)", MATH)
    g = math_egraph()
    report = run(g, [term("(* a b)")], [guarded, grow, mark],
                 RunnerConfig(scheduler="every", iter_limit=10))
    fired = [it.index for it in report.iterations if it.rules["swap-if-flag"].applied]
    assert fired == [2]
    # a rejected instance is not stored, so nothing repeats until it fires
    skipped = [it.rules["swap-if-flag"].skipped for it in report.iterations]
    assert skipped[:3] == [0, 0, 0]
    assert any(skipped[3:]), "the fired instance must be skipped when met again"
    swapped = g.lookup(ENode("*", (g.lookup(ENode(sym("b"), ())),
                                   g.lookup(ENode(sym("a"), ())))))
    assert swapped is not None and g.equiv(swapped, report.root_ids[0])


def test_non_pattern_applier_applies_each_instance_once():
    # any applier's result is a function of the class id and the
    # substitution, so the memo skips its repeats as it does a pattern's
    calls = []

    class Swap(Applier):
        def apply_one(self, egraph, eclass, subst):
            calls.append((eclass, subst["?x"], subst["?y"]))
            return [egraph.add(ENode("+", (subst["?y"], subst["?x"])))]

        def pattern_vars(self):
            return ("?x", "?y")

    swap = Rewrite("swap-add", parse_pattern("(+ ?x ?y)", MATH), Swap())
    g = math_egraph()
    report = run(g, [term("(+ a b)")], [swap], RunnerConfig(scheduler="every"))
    # iteration 0 applies (a, b); iteration 1 finds (a, b) again and (b, a)
    stats = [it.rules["swap-add"] for it in report.iterations]
    assert [(st.searched, st.skipped, st.applied) for st in stats] == [(1, 0, 1), (2, 1, 0)]
    a, b = (g.lookup(ENode(sym(name), ())) for name in "ab")
    assert calls[0] == (report.root_ids[0], a, b)
    assert len(calls) == 2 and len(set(calls)) == 2


def _count_apply_subst(monkeypatch):
    calls = []
    inner = rewrite_module.apply_subst

    def counted(pattern, subst, egraph):
        calls.append((pattern, tuple(sorted(subst.items()))))
        return inner(pattern, subst, egraph)

    monkeypatch.setattr(rewrite_module, "apply_subst", counted)
    return calls


def test_repeated_instance_makes_no_apply_subst_call(monkeypatch):
    calls = _count_apply_subst(monkeypatch)
    comm = Rewrite.parse("mul-comm", "(* ?x ?y)", "(* ?y ?x)", MATH)
    report = run(math_egraph(), [term("(* a b)")], [comm], RunnerConfig(scheduler="every"))
    # iteration 0 applies (a, b); iteration 1 finds (a, b) again and (b, a)
    assert [it.rules["mul-comm"].searched for it in report.iterations] == [1, 2]
    assert [it.rules["mul-comm"].skipped for it in report.iterations] == [0, 1]
    assert len(calls) == 2 and len(set(calls)) == 2

    calls.clear()
    run_without_memo(math_egraph(), [term("(* a b)")], [comm], 30)
    assert len(calls) == 3


def test_apply_subst_calls_are_the_matches_not_skipped(monkeypatch):
    calls = _count_apply_subst(monkeypatch)
    rules = math_rules()
    report = run(
        math_egraph(), [term("(/ (* (+ a b) 2) 2)")], rules,
        RunnerConfig(scheduler="every", iter_limit=6, node_limit=10**6),
    )
    plain = {rw.name: rw.applier.pattern for rw in rules if type(rw.applier) is PatternApplier}
    for name, pattern in plain.items():
        kept = sum(
            it.rules[name].searched - it.rules[name].skipped for it in report.iterations
        )
        assert sum(1 for p, _ in calls if p is pattern) == kept, name
    assert sum(it.rules[n].skipped for it in report.iterations for n in plain) > 0


def test_node_limit_stop_comes_after_a_complete_write_phase(monkeypatch):
    memos, fresh_by_rule, passed = [], {}, {}

    class Watched(runner_module._AppliedInstances):
        def __init__(self, rules):
            super().__init__(rules)
            memos.append(self)

        def to_apply(self, egraph, index, rewrite, matches):
            kept, skipped = super().to_apply(egraph, index, rewrite, matches)
            fresh_by_rule[index] = kept  # the last iteration's survive
            return kept, skipped

    inner = runner_module.apply_rewrite

    def recording(egraph, rewrite, matches):
        passed.setdefault(id(rewrite), []).extend(matches)
        return inner(egraph, rewrite, matches)

    monkeypatch.setattr(runner_module, "_AppliedInstances", Watched)
    monkeypatch.setattr(runner_module, "apply_rewrite", recording)
    rules = math_rules()
    report = run(
        math_egraph(), [term("(/ (* (+ a b) 2) 2)")], rules,
        RunnerConfig(node_limit=20, scheduler="every"),
    )
    assert report.stop_reason is StopReason.NODE_LIMIT
    (memo,) = memos

    def keys(matches):
        return {(m.eclass, *s.values()) for m in matches for s in m.substs}

    left_out = 0
    for index, rw in enumerate(rules):
        assert memo.seen[index] == keys(passed.get(id(rw), [])), rw.name
        left_out += len(keys(fresh_by_rule.get(index, [])) - memo.seen[index])
    assert left_out == 0, "the last write phase applies every kept instance"
    last = report.iterations[-1]
    assert last.rebuild_time > 0 and last.enodes == report.egraph.n_nodes() > 20
    assert report.egraph.clean and report.egraph.invariant_check() == []


# the pattern rules of `math_rules()`, all but the conditional `div-self`
MATH_PATTERN_RULES = """\
add-comm: (+ ?a ?b) => (+ ?b ?a)
mul-comm: (* ?a ?b) => (* ?b ?a)
add-assoc: (+ (+ ?a ?b) ?c) => (+ ?a (+ ?b ?c))
mul-assoc: (* (* ?a ?b) ?c) => (* ?a (* ?b ?c))
double-to-shift: (* ?x 2) => (<< ?x 1)
div-through-mul: (/ (* ?x ?y) ?z) => (* ?x (/ ?y ?z))
mul-one: (* 1 ?x) => ?x
"""


def test_node_limit_stop_does_not_depend_on_rule_order():
    # under the CLI's default limits and scheduler; a stop inside the
    # write phase once made these 6 iterations and 88 nodes forward
    # against 7 iterations and 81 nodes reversed
    lines = MATH_PATTERN_RULES.splitlines()
    outcomes = set()
    for order in (lines, lines[::-1]):
        report = run(
            math_egraph(), [term("(/ (* a 2) 2)")], parse_rules("\n".join(order), MATH),
            RunnerConfig(node_limit=69),
        )
        best, _ = extract_best(report.egraph, report.root_ids[0])
        steps = tuple((it.enodes, it.eclasses) for it in report.iterations)
        outcomes.add((str(best), report.stop_reason, steps))
    assert len(outcomes) == 1
    [(_, stop, steps)] = outcomes
    assert stop is StopReason.NODE_LIMIT and steps[-1][0] > 69


# `<<` is left out: folding a constant shift builds the number before its
# range check
FUZZ_OPS = ("+", "-", "*", "/")


def _random_pattern(rng, leaves, depth):
    """An operator over two subpatterns of depth below `depth`."""
    kids = (
        rng.choice(leaves) if depth == 1 or rng.random() < 0.3
        else _random_pattern(rng, leaves, depth - 1)
        for _ in range(2)
    )
    return f"({rng.choice(FUZZ_OPS)} {' '.join(kids)})"


def _random_rules(rng):
    """3-6 unsound rules as rules-file lines: each left-hand side is
    ``(op X ?b|?c)`` with X a variable or a depth-1 pattern; a quarter
    carry `is-const`."""
    lines = []
    for i in range(rng.randint(3, 6)):
        inner = rng.choice(
            ["?a", "?b", f"({rng.choice(FUZZ_OPS)} ?a {rng.choice(['?a', '?b', '1', '2'])})"]
        )
        lhs = f"({rng.choice(FUZZ_OPS)} {inner} {rng.choice(['?b', '?c'])})"
        variables = sorted({tok.strip("()") for tok in lhs.split() if "?" in tok})
        rhs = _random_pattern(rng, variables, 2)
        condition = f" if is-const {rng.choice(variables)}" if rng.random() < 0.25 else ""
        lines.append(f"r{i}: {lhs} => {rhs}{condition}")
    return lines


def _random_math_text(rng, atoms):
    if atoms == 1:
        return rng.choice(["a", "b", "c", "0", "1", "2"])
    left = rng.randint(1, atoms - 1)
    kids = _random_math_text(rng, left), _random_math_text(rng, atoms - left)
    return f"({rng.choice(FUZZ_OPS)} {' '.join(kids)})"


def test_generated_rules_stop_alike_under_every_strategy_and_order():
    # the shipped rule sets cover few rule shapes.  The node limit binds in
    # some cases, and the unsound rules make some contradict
    stops = set()
    for seed in range(300):
        rng = random.Random(seed)
        rules = parse_rules("\n".join(_random_rules(rng)), MATH)
        root = term(_random_math_text(rng, rng.randint(3, 6)))
        config = RunnerConfig(iter_limit=6, node_limit=rng.randint(15, 120), scheduler="every")
        outcomes = set()
        for order in (rules, rules[::-1]):
            for eager in (False, True):
                g = math_egraph(rebuild_after_merge=eager)
                report = run(g, [root], order, config)
                outcome = (len(report.iterations), report.stop_reason)
                if report.stop_reason is not StopReason.ANALYSIS_CONTRADICTION:
                    outcome += (g.n_nodes(), partition_signature(g, report.root_ids))
                outcomes.add(outcome)
        assert len(outcomes) == 1, (seed, outcomes)
        stops.add(report.stop_reason)
    assert StopReason.NODE_LIMIT in stops and StopReason.ANALYSIS_CONTRADICTION in stops


def _count_substitution_dicts(monkeypatch):
    """Swap in a `Substitutions` view that counts the dicts it builds."""
    made = [0]

    class Counted(pattern_module.Substitutions):
        __slots__ = ()

        def __getitem__(self, index):
            item = super().__getitem__(index)
            made[0] += len(item) if isinstance(index, slice) else 1
            return item

        def __iter__(self):
            for subst in super().__iter__():
                made[0] += 1
                yield subst

    monkeypatch.setattr(pattern_module, "Substitutions", Counted)
    monkeypatch.setattr(runner_module, "Substitutions", Counted)
    return made


@pytest.mark.parametrize("scheduler", ["every", "backoff"])
def test_substitution_dicts_are_made_only_for_applied_matches(monkeypatch, scheduler):
    made = _count_substitution_dicts(monkeypatch)
    found, passed = [0], [0]
    search, apply = Rewrite.search, runner_module.apply_rewrite

    def counting_search(rewrite, egraph):
        matches = search(rewrite, egraph)
        found[0] += sum(len(m.substs) for m in matches)
        return matches

    def counting_apply(egraph, rewrite, matches):
        passed[0] += sum(len(m.substs) for m in matches)
        return apply(egraph, rewrite, matches)

    checked, rejected = [0], [0]

    def counting(condition):
        def check(egraph, eclass, subst):
            checked[0] += 1
            holds = condition(egraph, eclass, subst)
            rejected[0] += not holds
            return holds

        check.variables = condition.variables
        return check

    monkeypatch.setattr(Rewrite, "search", counting_search)
    monkeypatch.setattr(runner_module, "apply_rewrite", counting_apply)
    rules = [
        dataclasses.replace(rw, conditions=tuple(map(counting, rw.conditions)))
        for rw in math_rules()
    ]
    # one condition per rule at most: each check reads one dict
    assert max(len(rw.conditions) for rw in rules) == 1
    banned = skipped = 0
    for text in DEFAULT_MATH_EXPRS:
        report = run(
            math_egraph(), [term(text)], rules,
            RunnerConfig(iter_limit=8, node_limit=10**6, time_limit=600,
                         scheduler=scheduler),
        )
        stats = [st for it in report.iterations for st in it.rules.values()]
        banned += sum(st.banned for st in stats)
        skipped += sum(st.skipped for st in stats)
    assert made[0] == passed[0] + checked[0]
    assert passed[0] > 0 and checked[0] > 0
    assert skipped > 0
    # what a ban drops is neither applied, skipped nor checked, and builds
    # no dict
    dropped = found[0] - passed[0] - skipped - rejected[0]
    assert (banned > 0) == (dropped > 0) == (scheduler == "backoff")
