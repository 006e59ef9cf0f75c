"""Acceptance suite: every shipped claim at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The expensive shared artifacts (the benchmark corpus run and
the randomized congruence campaign) are computed once per session.
"""
import functools
import gc
import random
import time

import pytest

from eqsat import (
    EGraph,
    RunnerConfig,
    StopReason,
    ast_size,
    build_cost_table,
    check_equiv,
    check_equiv_batched,
    extract_best,
    parse_pattern,
    parse_term,
    run,
)
from eqsat.bench import (
    RebuildStrategy,
    default_workloads,
    run_bench,
    run_workload,
    chain_workload,
    spearman,
    speedup_report,
)
from eqsat.domains.lam import LAMBDA, lambda_rules, make_egraph as lam_egraph
from eqsat.domains.math import (
    MATH,
    make_egraph as math_egraph,
    math_rules,
    strength_reduction_rules,
)

from helpers import (
    NaiveCongruence,
    matches_in_class,
    min_size_by_depth,
    oracle_extracted_terms,
    random_operations,
    random_small_egraph,
    reference_cost_table,
    run_script_on_egraph,
    run_script_on_oracle,
)
from test_math import FUZZ_EXPRS, fuzz_fired_instances


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")

        return wrapper

    return decorate


# ----------------------------------------------------------------------
# shared expensive artifacts

@pytest.fixture(scope="session")
def congruence_campaign():
    """1000 random operation scripts checked against the naive oracle."""
    rng = random.Random(20_200_817)
    mismatches = []
    invariant_violations = []
    for case in range(1000):
        script = random_operations(rng, max_adds=40, max_merges=15)
        egraph = EGraph()
        oracle = NaiveCongruence()
        e_ids = run_script_on_egraph(egraph, script)
        o_ids = run_script_on_oracle(oracle, script)
        egraph.rebuild()
        oracle.close()
        violations = egraph.invariant_check()
        if violations:
            invariant_violations.append((case, violations))
        for i in range(len(e_ids)):
            for j in range(i + 1, len(e_ids)):
                if egraph.equiv(e_ids[i], e_ids[j]) != oracle.equiv(o_ids[i], o_ids[j]):
                    mismatches.append((case, i, j))
    return mismatches, invariant_violations


@pytest.fixture(scope="session")
def bench_records():
    return run_bench(default_workloads(), repeats=3)


# ----------------------------------------------------------------------
# criteria

@criterion("1. division demo saturates and extracts the variable")
def test_criterion_1_division_demo():
    start = time.perf_counter()
    report = run(
        math_egraph(),
        [parse_term("(/ (* a 2) 2)", MATH)],
        strength_reduction_rules(),
        RunnerConfig(scheduler="every"),
    )
    elapsed = time.perf_counter() - start
    assert report.stop_reason is StopReason.SATURATED
    assert len(report.iterations) <= 10
    best, cost = extract_best(report.egraph, report.root_ids[0])
    assert str(best) == "a" and cost == 1
    assert elapsed < 1.0


@criterion("2. lambda golden tests under default limits")
def test_criterion_2_lambda_goldens():
    start = time.perf_counter()

    report = run(
        lam_egraph(),
        [parse_term("(lam x (+ 4 (app (lam y (var y)) 4)))", LAMBDA)],
        lambda_rules(),
        RunnerConfig(),
    )
    assert str(extract_best(report.egraph, report.root_ids[0])[0]) == "(lam x 8)"

    report = run(
        lam_egraph(),
        [
            parse_term(
                "(if (= (var a) (var b)) (+ (var a) (var a)) (+ (var a) (var b)))",
                LAMBDA,
            )
        ],
        lambda_rules(),
        RunnerConfig(),
    )
    assert (
        str(extract_best(report.egraph, report.root_ids[0])[0])
        == "(+ (var a) (var b))"
    )

    compose_many = """
    (let compose (lam f (lam g (lam x (app (var f) (app (var g) (var x))))))
    (let add1 (lam y (+ (var y) 1))
    (app (app (var compose) (var add1))
         (app (app (var compose) (var add1))
              (app (app (var compose) (var add1))
                   (app (app (var compose) (var add1))
                        (var add1)))))))
    """
    report = run(
        lam_egraph(),
        [parse_term(compose_many, LAMBDA)],
        lambda_rules(),
        RunnerConfig(),
    )
    goal = parse_pattern("(lam ?x (+ (var ?x) 5))", LAMBDA)
    assert matches_in_class(report.egraph, goal, report.root_ids[0])

    assert time.perf_counter() - start < 10.0


@criterion("3. congruence equals the naive closure oracle on 1000 scripts")
def test_criterion_3_congruence_oracle(congruence_campaign):
    mismatches, _ = congruence_campaign
    assert mismatches == []


@criterion("4. invariant check is empty after every rebuild")
def test_criterion_4_invariants(congruence_campaign):
    _, violations = congruence_campaign
    assert violations == []


@criterion("5. deferred repairs track depth; immediate grows with width")
def test_criterion_5_asymptotics():
    start = time.perf_counter()
    d = 10
    deferred_counts = {}
    immediate_counts = {}
    for w in (10, 50, 100):
        workload = chain_workload(w, d)
        deferred_counts[w] = run_workload(
            workload, RebuildStrategy.DEFERRED, repeats=1
        ).repairs
        immediate_counts[w] = run_workload(
            workload, RebuildStrategy.IMMEDIATE, repeats=1
        ).repairs
    # deferred stays within a constant band of d, independent of width
    assert len(set(deferred_counts.values())) == 1
    for count in deferred_counts.values():
        assert abs(count - d) <= 2 * d
    # immediate grows at least linearly in width
    assert immediate_counts[50] > immediate_counts[10]
    assert immediate_counts[100] > immediate_counts[50]
    assert immediate_counts[100] / deferred_counts[100] >= 5
    assert time.perf_counter() - start < 5.0


@criterion("6. both rebuild strategies produce identical e-graphs")
def test_criterion_6_strategy_equivalence(bench_records):
    by_workload = {}
    for record in bench_records:
        by_workload.setdefault(record.workload, {})[record.strategy] = record
    assert by_workload, "bench corpus must not be empty"
    for name, pair in by_workload.items():
        assert set(pair) == {"deferred", "immediate"}
        assert pair["deferred"].signature == pair["immediate"].signature, name
        assert pair["deferred"].extracted == pair["immediate"].extracted, name


@criterion("7. repair calls correlate with congruence time")
def test_criterion_7_repair_time_correlation(bench_records):
    # measured over the equality-saturation benchmarks: the direct
    # microbenchmarks are built to make single repair calls arbitrarily
    # heavy, which is the effect criterion 5 isolates, not this one
    saturation = [r for r in bench_records if r.kind == "saturation"]
    summary = speedup_report(saturation)
    pairs = summary["repair_time_pairs"]
    assert len(pairs) >= 10
    value = spearman([p[0] for p in pairs], [p[1] for p in pairs])
    assert value > 0.8, f"spearman {value:.3f}"


def _equiv_pair_corpus(rng, count=50):
    """Mix of true algebraic identities and structurally similar non-equal
    pairs over a small shared symbol pool."""
    atoms = ["a", "b", "c", "2"]
    templates = [
        lambda x, y, z: (f"(+ {x} (+ {y} {z}))", f"(+ (+ {x} {y}) {z})"),
        lambda x, y, z: (f"(+ {x} (+ {y} {z}))", f"(+ {z} (+ {y} {x}))"),
        lambda x, y, z: (f"(* {x} (* {y} {z}))", f"(* (* {x} {y}) {z})"),
        lambda x, y, z: (f"(* {x} {y})", f"(* {y} {x})"),
        lambda x, y, z: (f"(* {x} 2)", f"(<< {x} 1)"),
        lambda x, y, z: (f"(* 1 (+ {x} {y}))", f"(+ {y} {x})"),
        # non-identities: same shape, different semantics
        lambda x, y, z: (f"(+ {x} {y})", f"(* {x} {y})"),
        lambda x, y, z: (f"(+ {x} (+ {y} {z}))", f"(+ {x} (* {y} {z}))"),
        lambda x, y, z: (f"(- {x} {y})", f"(- {y} {x})"),
    ]
    pairs = []
    for _ in range(count):
        template = rng.choice(templates)
        picks = [rng.choice(atoms) for _ in range(3)]
        pairs.append(template(*picks))
    return pairs


@criterion("8. verdicts are invariant to rule order")
def test_criterion_8_rule_order_invariance():
    rng = random.Random(4096)
    pairs = [
        (parse_term(lhs, MATH), parse_term(rhs, MATH))
        for lhs, rhs in _equiv_pair_corpus(rng, count=50)
    ]
    rules = math_rules()
    config = RunnerConfig(iter_limit=10, scheduler="every", node_limit=20_000)
    baseline = None
    for _ in range(20):
        order = rules[:]
        rng.shuffle(order)
        verdicts = tuple(
            check_equiv(math_egraph(), lhs, rhs, order, config).equal
            for lhs, rhs in pairs
        )
        if baseline is None:
            baseline = verdicts
        assert verdicts == baseline
    assert any(baseline) and not all(baseline)


@criterion("9. extraction matches the depth-bounded enumeration oracle")
def test_criterion_9_extraction_oracle():
    rng = random.Random(777)
    checked = 0
    while checked < 500:
        egraph, roots = random_small_egraph(
            rng, MATH, n_terms=rng.randint(2, 5), n_merges=rng.randint(0, 4)
        )
        if egraph.n_nodes() > 30:
            continue
        checked += 1
        assert build_cost_table(egraph) == reference_cost_table(egraph, ast_size)
        oracle_terms = oracle_extracted_terms(egraph, ast_size)
        for root in roots:
            term, cost = extract_best(egraph, root)
            assert term == oracle_terms[egraph.find(root)]
            oracle = min_size_by_depth(egraph, root, depth=6)
            assert oracle == cost, f"extractor {cost}, oracle {oracle}"


@criterion("10. ten thousand random evaluations confirm the math rules")
def test_criterion_10_math_soundness_fuzz():
    rng = random.Random(31_337)
    evaluations = fuzz_fired_instances(
        FUZZ_EXPRS,
        math_rules(),
        rng,
        assignments_per_instance=25,
        max_substs=60,
    )
    assert evaluations >= 10_000, f"only {evaluations} evaluations performed"


@criterion("11. batched equivalence checking beats independent runs")
def test_criterion_11_batched_speedup():
    rng = random.Random(2718)
    atoms = ["a", "b", "c", "d"]

    def random_sum_shape():
        order = atoms[:]
        rng.shuffle(order)
        w, x, y, z = order
        shapes = [
            f"(+ {w} (+ {x} (+ {y} {z})))",
            f"(+ (+ {w} {x}) (+ {y} {z}))",
            f"(+ (+ (+ {w} {x}) {y}) {z})",
            f"(+ {w} (+ (+ {x} {y}) {z}))",
            f"(+ (+ {w} (+ {x} {y})) {z})",
        ]
        return rng.choice(shapes)

    pairs = [
        (parse_term(random_sum_shape(), MATH), parse_term(random_sum_shape(), MATH))
        for _ in range(50)
    ]
    rules = math_rules()
    config = RunnerConfig(scheduler="every", iter_limit=12, node_limit=50_000)

    # the collector is paused while timing, as timeit does: one full
    # collection over the session's live objects can outlast the batched call
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        individual = [
            check_equiv(math_egraph(), lhs, rhs, rules, config).equal
            for lhs, rhs in pairs
        ]
        individual_time = time.perf_counter() - start

        start = time.perf_counter()
        batched, _ = check_equiv_batched(math_egraph(), pairs, rules, config)
        batched_time = time.perf_counter() - start
    finally:
        gc.enable()

    assert all(individual) and batched == individual
    ratio = individual_time / max(batched_time, 1e-9)
    assert ratio > 1.5, f"batched speedup only {ratio:.2f}x"
