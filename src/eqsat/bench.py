"""Benchmark harness comparing rebuild strategies.

Runs identical workloads with invariant restoration after every merge
(immediate) and once per phase boundary (deferred), records repair calls
and congruence time (applying matches plus rebuilding), and cross-checks
that both strategies produce identical e-graphs up to class renaming.
"""
from __future__ import annotations

import csv
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

from .egraph import EGraph, ENode
from .extraction import Extractor
from .language import parse_term, sym
from .runner import RunnerConfig, run
from .domains import math as math_domain


class RebuildStrategy(Enum):
    IMMEDIATE = "immediate"
    DEFERRED = "deferred"


@dataclass
class BenchRecord:
    workload: str
    strategy: str
    iterations: int
    rewrites: int
    repairs: int
    congruence_s: float
    total_s: float
    enodes: int
    eclasses: int
    # per-iteration (cumulative rewrites, congruence seconds) series
    series: list = field(default_factory=list)
    signature: object = None
    extracted: tuple = ()
    kind: str = "direct"

    def csv_row(self) -> dict:
        return {
            "workload": self.workload,
            "strategy": self.strategy,
            "iters": self.iterations,
            "rewrites": self.rewrites,
            "repairs": self.repairs,
            "congruence_ms": round(self.congruence_s * 1000, 4),
            "total_ms": round(self.total_s * 1000, 4),
            "enodes": self.enodes,
            "eclasses": self.eclasses,
        }


CSV_COLUMNS = [
    "workload", "strategy", "iters", "rewrites", "repairs",
    "congruence_ms", "total_ms", "enodes", "eclasses",
]


def partition_signature(egraph: EGraph, root_ids: Sequence[int] = ()) -> tuple:
    """Canonical fingerprint of the term-equivalence partition, independent
    of class-id assignment: iterated refinement of per-class labels."""
    labels = {cid: 0 for cid in egraph.classes}
    for _ in range(max(1, len(labels))):
        raw = {}
        for cid, eclass in egraph.classes.items():
            raw[cid] = tuple(
                sorted(
                    (
                        str(node.op),
                        tuple(labels[egraph.find(c)] for c in node.children),
                    )
                    for node in eclass.nodes
                )
            )
        ordered = {sig: i for i, sig in enumerate(sorted(set(raw.values())))}
        new_labels = {cid: ordered[sig] for cid, sig in raw.items()}
        if new_labels == labels:
            break
        labels = new_labels
    counts: dict[int, int] = {}
    for label in labels.values():
        counts[label] = counts.get(label, 0) + 1
    roots = tuple(labels[egraph.find(r)] for r in root_ids)
    return (tuple(sorted(counts.items())), roots)


class BenchMismatch(Exception):
    """The two strategies produced different e-graphs; engine bug.

    Carries the serialized graphs of the disagreeing runs for inspection.
    """

    def __init__(self, message, graph_dumps=()):
        super().__init__(message)
        self.graph_dumps = tuple(graph_dumps)


@dataclass
class Workload:
    name: str
    # run(strategy) -> (egraph, root_ids, series), where series holds one
    # (cumulative rewrites, congruence seconds) pair per iteration
    run: Callable[[RebuildStrategy], tuple]
    # "direct" add/merge scripts stress one asymptotic effect;
    # "saturation" workloads are full equality saturation runs
    kind: str = "direct"


def _run_direct(build: Callable[[EGraph], tuple], strategy: RebuildStrategy):
    """Direct add/merge scripts: the merge block is the congruence phase."""
    egraph = EGraph(rebuild_after_merge=strategy is RebuildStrategy.IMMEDIATE)
    root_ids, merges = build(egraph)
    merge_start = time.perf_counter()
    for a, b in merges:
        egraph.merge(a, b)
    egraph.rebuild()
    return egraph, root_ids, [(len(merges), time.perf_counter() - merge_start)]


def parent_fanout_workload(n: int) -> Workload:
    """Terms f_i(x) and y_i; merging x with every y_i invalidates every
    f_i(x) hashcons entry, once per merge if maintained eagerly."""

    def build(egraph: EGraph):
        x = egraph.add_leaf(sym("x"))
        roots = [x]
        for i in range(n):
            roots.append(egraph.add(ENode(f"f{i}", (x,))))
        ys = [egraph.add_leaf(sym(f"y{i}")) for i in range(n)]
        return roots + ys, [(x, y) for y in ys]

    return Workload(f"fanout-n{n}", lambda strategy: _run_direct(build, strategy))


def chain_workload(width: int, depth: int) -> Workload:
    """w nested chains f1(f2(...fd(x_j))); merging all the x_j together
    forces one layer of upward merging per depth level."""

    def build(egraph: EGraph):
        roots = []
        xs = []
        for j in range(width):
            node = egraph.add_leaf(sym(f"x{j}"))
            xs.append(node)
            for level in range(depth, 0, -1):
                node = egraph.add(ENode(f"f{level}", (node,)))
            roots.append(node)
        return roots, [(xs[0], x) for x in xs[1:]]

    return Workload(
        f"chain-w{width}-d{depth}", lambda strategy: _run_direct(build, strategy)
    )


DEFAULT_MATH_EXPRS = [
    "(/ (* a 2) 2)",
    "(* (+ a b) (+ c d))",
    "(+ (* a (+ b c)) (* a (+ b c)))",
    "(/ (* (+ a b) 2) 2)",
    "(* 2 (* 2 (* 2 (+ a b))))",
]


def nested_sum_expr(n_atoms: int) -> str:
    atoms = ["a", "b", "c", "d", "e", "f", "g", "h"]
    expr = atoms[0]
    for atom in atoms[1:n_atoms]:
        expr = f"(+ {expr} {atom})"
    return f"(/ (* {expr} 2) 2)"


def saturation_workload(name: str, expr_text: str, iter_limit: int = 8) -> Workload:
    """Equality saturation on one math expression under both strategies."""

    def run_strategy(strategy: RebuildStrategy):
        egraph = math_domain.make_egraph(
            rebuild_after_merge=strategy is RebuildStrategy.IMMEDIATE
        )
        term = parse_term(expr_text, math_domain.MATH)
        config = RunnerConfig(
            iter_limit=iter_limit, node_limit=50_000, time_limit=60.0,
            scheduler="every",
        )
        report = run(egraph, [term], math_domain.math_rules(), config)
        series = []
        cumulative = 0
        for it in report.iterations:
            cumulative += sum(st.applied for st in it.rules.values())
            series.append((cumulative, it.apply_time + it.rebuild_time))
        return egraph, report.root_ids, series

    return Workload(name, run_strategy, kind="saturation")


def default_workloads() -> list[Workload]:
    workloads = [
        parent_fanout_workload(100),
        parent_fanout_workload(400),
        parent_fanout_workload(1000),
        chain_workload(10, 10),
        chain_workload(50, 10),
        chain_workload(100, 10),
        chain_workload(100, 25),
        chain_workload(50, 40),
        chain_workload(20, 80),
    ]
    workloads += [
        saturation_workload(f"math-{i}", expr)
        for i, expr in enumerate(DEFAULT_MATH_EXPRS)
    ]
    # a size ladder of saturation runs; repair counts span two decades
    workloads += [
        saturation_workload(f"sum-{k}", nested_sum_expr(k)) for k in range(3, 7)
    ]
    return workloads


def run_workload(
    workload: Workload, strategy: RebuildStrategy, repeats: int = 5
) -> BenchRecord:
    return _run_strategies(workload, [strategy], repeats)[0]


def _run_strategies(
    workload: Workload, strategies: Sequence[RebuildStrategy], repeats: int
) -> list[BenchRecord]:
    """One record per strategy.  Counters come from a single run (they are
    exactly reproducible); wall-clock times are medians over the repeats,
    and the strategies take turns within each repeat, so that a change in
    the host's speed reaches each of them alike.  ``total_s`` times the
    whole ``workload.run`` call; ``congruence_s`` sums its series."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    runs = [([], []) for _ in strategies]
    for _ in range(repeats):
        for strategy, (results, totals) in zip(strategies, runs):
            start = time.perf_counter()
            results.append(workload.run(strategy))
            totals.append(time.perf_counter() - start)
    records = []
    for strategy, (results, totals) in zip(strategies, runs):
        congruences = [sum(seconds for _, seconds in series) for _, _, series in results]
        egraph, root_ids, series = results[0]
        extractor = Extractor(egraph)
        roots_best = tuple(str(extractor.best(r)[0]) for r in root_ids)
        records.append(BenchRecord(
            workload=workload.name,
            strategy=strategy.value,
            iterations=len(series),
            rewrites=series[-1][0] if series else 0,
            repairs=egraph.repair_calls,
            congruence_s=sorted(congruences)[repeats // 2],
            total_s=sorted(totals)[repeats // 2],
            enodes=egraph.n_nodes(),
            eclasses=egraph.n_classes(),
            series=series,
            signature=partition_signature(egraph, root_ids),
            extracted=roots_best,
            kind=workload.kind,
        ))
    return records


def run_bench(
    workloads: Optional[Sequence[Workload]] = None,
    strategies: Sequence[RebuildStrategy] = (
        RebuildStrategy.DEFERRED,
        RebuildStrategy.IMMEDIATE,
    ),
    repeats: int = 5,
) -> list[BenchRecord]:
    """One record per (workload, strategy); raises BenchMismatch unless all
    strategies agree on the final e-graph."""
    workloads = list(workloads) if workloads is not None else default_workloads()
    records = []
    for workload in workloads:
        per_strategy = _run_strategies(workload, strategies, repeats)
        first = per_strategy[0]
        for other in per_strategy[1:]:
            if other.signature != first.signature or other.extracted != first.extracted:
                what = (
                    "partition" if other.signature != first.signature
                    else "extracted terms"
                )
                dumps = [
                    workload.run(RebuildStrategy(record.strategy))[0].to_json_dict()
                    for record in (first, other)
                ]
                raise BenchMismatch(
                    f"{workload.name}: {what} differ between "
                    f"{first.strategy} and {other.strategy}",
                    dumps,
                )
        records.extend(per_strategy)
    return records


def _ranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (Pearson on average ranks); 0.0 when a
    sample is constant."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two equal-length samples of size >= 2")
    try:
        return statistics.correlation(_ranks(xs), _ranks(ys))
    except statistics.StatisticsError:
        return 0.0


def geometric_mean(values: Sequence[float]) -> float:
    return statistics.geometric_mean(values) if values else 1.0


def speedup_report(records: Sequence[BenchRecord]) -> dict:
    """Pair deferred/immediate records per workload: speedup ratios, their
    geometric mean, the per-iteration cumulative-rewrites series, and the
    repair-count vs congruence-time correlation."""
    by_workload: dict[str, dict[str, BenchRecord]] = {}
    for record in records:
        by_workload.setdefault(record.workload, {})[record.strategy] = record
    speedups = {}
    series = {}
    for name, pair in sorted(by_workload.items()):
        if {"deferred", "immediate"} <= set(pair):
            deferred, immediate = pair["deferred"], pair["immediate"]
            denom = max(deferred.congruence_s, 1e-9)
            speedups[name] = immediate.congruence_s / denom
            points = []
            for (rewrites, d_time), (_, i_time) in zip(
                deferred.series, immediate.series
            ):
                points.append(
                    {
                        "cumulative_rewrites": rewrites,
                        "speedup": i_time / max(d_time, 1e-9),
                    }
                )
            series[name] = points
    repair_time_pairs = [
        (r.repairs, r.congruence_s) for r in records if r.repairs > 0
    ]
    correlation = None
    if len(repair_time_pairs) >= 2:
        correlation = spearman(
            [p[0] for p in repair_time_pairs], [p[1] for p in repair_time_pairs]
        )
    return {
        "speedups": speedups,
        "geometric_mean_speedup": geometric_mean(list(speedups.values())),
        "series": series,
        "repair_time_pairs": repair_time_pairs,
        "repair_time_spearman": correlation,
    }


def records_to_csv(records: Sequence[BenchRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for record in records:
        writer.writerow(record.csv_row())
    return buffer.getvalue()


def records_to_jsonl(records: Sequence[BenchRecord]) -> str:
    lines = []
    for record in records:
        row = record.csv_row()
        row["series"] = [
            {"rewrites": r, "congruence_ms": round(t * 1000, 4)}
            for r, t in record.series
        ]
        lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + "\n"
