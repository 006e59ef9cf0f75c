import csv
import gc
import io
import json
import weakref

import pytest

from eqsat.bench import (
    BenchMismatch,
    CSV_COLUMNS,
    RebuildStrategy,
    chain_workload,
    geometric_mean,
    parent_fanout_workload,
    partition_signature,
    records_to_csv,
    records_to_jsonl,
    run_bench,
    saturation_workload,
    spearman,
    speedup_report,
    Workload,
)
from eqsat import EGraph, ENode, sym


def small_suite():
    return [
        parent_fanout_workload(60),
        chain_workload(12, 6),
        saturation_workload("math-demo", "(/ (* a 2) 2)", iter_limit=6),
    ]


def test_repair_counts_deterministic():
    workload = chain_workload(10, 5)
    first = run_bench([workload], repeats=1)
    second = run_bench([workload], repeats=1)
    assert [r.repairs for r in first] == [r.repairs for r in second]
    assert [r.enodes for r in first] == [r.enodes for r in second]


def test_run_bench_rejects_repeats_below_one():
    with pytest.raises(ValueError, match="repeats"):
        run_bench([chain_workload(3, 2)], repeats=0)


def test_deferred_repairs_bounded_by_depth():
    d = 8
    for w in (5, 15, 30):
        deferred, _ = run_bench([chain_workload(w, d)], repeats=1)
        assert deferred.repairs <= 3 * d


def test_immediate_repairs_grow_with_width():
    d = 8
    counts = []
    for w in (5, 15, 30):
        _, immediate = run_bench([chain_workload(w, d)], repeats=1)
        counts.append(immediate.repairs)
    assert counts[0] < counts[1] < counts[2]
    assert counts[2] >= (30 - 1) * d / 2


def test_deferred_never_more_repairs():
    for workload in small_suite():
        deferred, immediate = run_bench([workload], repeats=1)
        assert (deferred.strategy, immediate.strategy) == ("deferred", "immediate")
        assert deferred.repairs <= immediate.repairs


def test_strategies_produce_identical_graphs():
    records = run_bench(small_suite(), repeats=1)
    by_name = {}
    for record in records:
        by_name.setdefault(record.workload, []).append(record)
    for name, pair in by_name.items():
        assert len(pair) == 2
        assert pair[0].signature == pair[1].signature
        assert pair[0].extracted == pair[1].extracted
        assert pair[0].enodes == pair[1].enodes
        assert pair[0].eclasses == pair[1].eclasses


def test_hashcons_updates_thousand_parents():
    # n parents over one merged child: deferring stays linear, eager
    # maintenance touches the whole fan once per merge
    n = 1000

    def build(immediate):
        g = EGraph(rebuild_after_merge=immediate)
        x = g.add(ENode(sym("x"), ()))
        for i in range(n):
            g.add(ENode(f"f{i}", (x,)))
        ys = [g.add(ENode(sym(f"y{i}"), ())) for i in range(n)]
        before = g.hashcons_updates
        for y in ys:
            g.merge(x, y)
        g.rebuild()
        return g.hashcons_updates - before

    assert build(False) <= 2 * n
    assert build(True) >= 10 * n


def test_math_corpus_geometric_mean_speedup_above_one():
    from eqsat.bench import DEFAULT_MATH_EXPRS, saturation_workload

    workloads = [
        saturation_workload(f"math-{i}", expr)
        for i, expr in enumerate(DEFAULT_MATH_EXPRS)
    ]
    records = run_bench(workloads, repeats=3)
    summary = speedup_report(records)
    assert summary["geometric_mean_speedup"] > 1


def test_speedup_grows_with_width():
    # The repair counts carry the claim exactly: eager repairs grow with the
    # width, deferred ones do not.  The times only need to agree at the
    # ends of the range; the 50 -> 100 step is too small for a shared host.
    ratios, speedups = [], []
    for w in (10, 50, 100):
        records = run_bench([chain_workload(w, 10)], repeats=3)
        repairs = {r.strategy: r.repairs for r in records}
        ratios.append(repairs["immediate"] / repairs["deferred"])
        speedups.append(speedup_report(records)["speedups"][f"chain-w{w}-d10"])
    assert ratios == [9, 49, 99]
    assert speedups[0] < speedups[2]


def test_strategy_mismatch_is_hard_failure():
    def fake_run(strategy):
        g = EGraph()
        a = g.add(ENode(sym("a"), ())), g.add(ENode(sym("b"), ()))
        if strategy is RebuildStrategy.IMMEDIATE:
            g.merge(a[0], a[1])
        g.rebuild()
        return g, [a[0]], [(0, 0.0)]

    with pytest.raises(BenchMismatch) as err:
        run_bench([Workload("fake", fake_run)], repeats=1)
    # the serialized graphs of both runs ride along for diagnosis
    assert len(err.value.graph_dumps) == 2
    assert all(d["schema"] == 1 for d in err.value.graph_dumps)


def one_leaf_run(strategy):
    g = EGraph()
    a = g.add(ENode(sym("a"), ()))
    return g, [a], [(0, 0.0)]


@pytest.mark.parametrize("repeats", [1, 3])
@pytest.mark.parametrize("mismatch", [False, True], ids=["agree", "differ"])
def test_each_repeat_runs_each_strategy_once(mismatch, repeats):
    calls = []

    def fake_run(strategy):
        calls.append(strategy.value)
        g, roots, series = one_leaf_run(strategy)
        if mismatch and strategy is RebuildStrategy.IMMEDIATE:
            g.add(ENode(sym("b"), ()))
        return g, roots, series

    if mismatch:
        with pytest.raises(BenchMismatch):
            run_bench([Workload("fake", fake_run)], repeats=repeats)
    else:
        assert len(run_bench([Workload("fake", fake_run)], repeats=repeats)) == 2
    # a mismatch runs nothing again
    assert calls == ["deferred", "immediate"] * repeats


def test_mismatch_dumps_the_graphs_it_compared():
    calls = 0

    def fake_run(strategy):
        # the k-th run makes k leaves, so a graph from any other run than
        # the first repeat's has another class count
        nonlocal calls
        calls += 1
        g = EGraph()
        ids = [g.add(ENode(sym(f"x{i}"), ())) for i in range(calls)]
        return g, ids[:1], [(0, 0.0)]

    with pytest.raises(BenchMismatch, match="fake: enodes, eclasses") as err:
        run_bench([Workload("fake", fake_run)], repeats=3)
    # the deferred and immediate records compared had 1 and 2 classes
    assert [d["eclasses"] for d in err.value.graph_dumps] == [1, 2]


def test_a_later_repeat_graph_is_freed_once_timed():
    graphs = []

    def fake_run(strategy):
        gc.collect()
        alive = [ref() is not None for ref in graphs]
        # the first repeat's two graphs are kept to the end; each later one
        # is freed before the next run starts
        assert all(alive[:2]) and not any(alive[2:]), alive
        g, roots, series = one_leaf_run(strategy)
        graphs.append(weakref.ref(g))
        return g, roots, series

    run_bench([Workload("fake", fake_run)], repeats=3)
    assert len(graphs) == 6


def test_a_graph_that_breaks_its_invariants_is_a_mismatch():
    def fake_run(strategy):
        g, roots, series = one_leaf_run(strategy)
        parent = ENode("f", (roots[0],))
        g.add(parent)
        if strategy is RebuildStrategy.IMMEDIATE:
            del g.hashcons[parent]
        return g, roots, series

    with pytest.raises(
        BenchMismatch,
        match="fake: the immediate graph breaks its invariants: .*hashcons entry missing",
    ) as err:
        run_bench([Workload("fake", fake_run)], repeats=1)
    assert len(err.value.graph_dumps) == 2


def test_partition_signature_distinguishes():
    g1 = EGraph()
    a1, b1 = g1.add(ENode(sym("a"), ())), g1.add(ENode(sym("b"), ()))
    g1.rebuild()
    g2 = EGraph()
    a2, b2 = g2.add(ENode(sym("a"), ())), g2.add(ENode(sym("b"), ()))
    g2.merge(a2, b2)
    g2.rebuild()
    assert partition_signature(g1) != partition_signature(g2)


def test_partition_signature_id_independent():
    # same structure built in different orders gives the same signature
    g1 = EGraph()
    a = g1.add(ENode(sym("a"), ()))
    b = g1.add(ENode(sym("b"), ()))
    g1.add(ENode("f", (a, b)))
    g1.rebuild()
    g2 = EGraph()
    b2 = g2.add(ENode(sym("b"), ()))
    a2 = g2.add(ENode(sym("a"), ()))
    g2.add(ENode("f", (a2, b2)))
    g2.rebuild()
    assert partition_signature(g1) == partition_signature(g2)


def test_spearman_perfect_and_reversed():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)


def test_spearman_handles_ties():
    value = spearman([1, 1, 2, 3], [2, 2, 4, 9])
    assert 0.9 <= value <= 1.0


def test_geometric_mean():
    assert geometric_mean([4.0, 1.0]) == pytest.approx(2.0)


def test_speedup_report_structure():
    records = run_bench(small_suite(), repeats=1)
    summary = speedup_report(records)
    assert set(summary["speedups"]) == {w.workload for w in (records[::2])}
    assert summary["geometric_mean_speedup"] > 0
    assert summary["repair_time_pairs"]
    for name, series in summary["series"].items():
        for point in series:
            assert point["cumulative_rewrites"] >= 0


def test_csv_columns_and_shape():
    records = run_bench([chain_workload(6, 4)], repeats=1)
    text = records_to_csv(records)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert list(rows[0]) == CSV_COLUMNS
    assert {row["strategy"] for row in rows} == {"deferred", "immediate"}
    assert all(int(row["repairs"]) >= 0 for row in rows)


def test_jsonl_round_trips():
    records = run_bench([chain_workload(6, 4)], repeats=1)
    lines = records_to_jsonl(records).strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        row = json.loads(line)
        assert row["workload"] == "chain-w6-d4"
        assert "series" in row
