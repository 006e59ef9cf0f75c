"""eqsat end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; eqsat is imported from its ``src``.  One
client sends requests one after another in this process (a closed loop).
The requests come from the seeded stream of the workload, in whole blocks,
until S seconds of requests have run; then every output is checked against
the benchmark's own reference.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of blocks from the start of the same stream (S does not apply)
untraced, then again with a span around every call into eqsat's public
entry points, and prints the per-layer metrics, totalled over those
blocks; spans and per-rule numbers go to
``perfbench/out/trace-<workload>-<seed>``.

The exact counters of every request (repairs, hashcons updates, unions,
e-nodes, e-classes, matches, applications, iterations) must be identical
between the traced and the untraced run and between runs of one seed, and
the traced run's call counts (every entry point and analysis hook) between
traced runs of one seed; ``perfbench/out/counters-*.json`` keeps them per
seed and per source tree.  A difference ends the run with exit code 3.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 11

# A fresh interpreter that imports eqsat and builds the workload's rules.
SETUP_PROBE = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
start = time.perf_counter()
workloads.WORKLOADS[sys.argv[3]].setup()
print(repr(time.perf_counter() - start))
"""


class GuardError(Exception):
    """Exact counters differ where they must be identical."""


def fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest() -> str:
    """Identifies the program and the benchmark that made a set of counters."""
    digest = hashlib.sha256()
    paths = list((SRC / "eqsat").rglob("*.py")) + list(Path(__file__).parent.glob("*.py"))
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def measure_setup(workload) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(Path(__file__).parent),
             str(SRC), workload.name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# ----------------------------------------------------------------------
# the request loop

class Record(NamedTuple):
    request: dict
    seconds: float
    out: Optional[dict]  # None when the request raised
    counters: Optional[tuple]
    error: Optional[str]  # the exception's type name


def serve_blocks(workload, blocks, new_graph, tracer=None) -> tuple[list[Record], float]:
    """Serve every request of the given blocks; returns the records and the
    wall time spent serving them, which leaves out making the blocks."""
    records = []
    loop_s = 0.0
    for block in blocks:
        block_start = time.perf_counter()
        for request in block:
            if tracer is not None:
                span = tracer.request_span(len(records))
            start = time.perf_counter()
            try:
                out, counters = workload.serve(request, new_graph)
                error = None
            except Exception as exc:  # a failed request is a result, not a crash
                out, counters, error = None, None, type(exc).__name__
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.close(span)
            records.append(Record(request, seconds, out, counters, error))
        loop_s += time.perf_counter() - block_start
    return records, loop_s


def timed_blocks(workload, seed: int, seconds: float):
    """Whole blocks of the seeded stream until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    for block in workload.blocks(seed):
        yield block
        if time.perf_counter() >= deadline:
            return


def first_blocks(workload, seed: int, count: int):
    return list(itertools.islice(workload.blocks(seed), count))


def judge(workload, records) -> tuple[bool, int, list[bool]]:
    """(every output agrees with the reference, failures, per-request ok);
    says on standard error why requests failed."""
    correct, ok, reasons = True, [], Counter()
    for record in records:
        if record.error is not None:
            reasons[record.error] += 1
            ok.append(False)
        elif workload.failed(record.out):
            reasons[f"stopped: {record.out['stop']}"] += 1
            ok.append(False)
        elif not workload.check(record.request, record.out):
            reasons["output disagrees with the reference"] += 1
            correct = False
            ok.append(False)
        else:
            ok.append(True)
    if reasons:
        print(f"failed requests: {dict(reasons)}", file=sys.stderr)
    return correct, len(records) - sum(ok), ok


# ----------------------------------------------------------------------
# determinism guard

def compare_counters(label: str, a: list, b: list) -> None:
    for index, (x, y) in enumerate(zip(a, b)):
        if x != y:
            raise GuardError(
                f"{label}: request {index} counters differ:\n  {x}\n  {y}\n"
                f"  ({', '.join(workloads.COUNTER_NAMES)})"
            )


def guard_against_stored(workload, seed: int, counters: list, totals=None) -> None:
    """Compare with what earlier runs of this seed on this source tree
    recorded, then store the longer record."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"counters-{workload.name}-{seed}-{source_digest()}.json"
    stored = {"requests": [], "trace_totals": None}
    if path.exists():
        stored = json.loads(path.read_text(encoding="utf-8"))
    compare_counters(f"seed {seed} vs an earlier run", counters,
                     [tuple(c) if c is not None else None for c in stored["requests"]])
    if totals is not None and stored["trace_totals"] not in (None, totals):
        raise GuardError(
            f"seed {seed}: traced totals differ from an earlier run:\n"
            f"  {totals}\n  {stored['trace_totals']}"
        )
    if len(counters) > len(stored["requests"]):
        stored["requests"] = counters
    if totals is not None:
        stored["trace_totals"] = totals
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored), encoding="utf-8")
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# metrics

def metric(value, unit):
    return {"value": value, "unit": unit}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; a failed request is +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload, records, loop_s, ok, setup_times) -> dict:
    latencies = [r.seconds if good else float("inf") for r, good in zip(records, ok)]
    succeeded = sum(ok)
    cost = size = proved = true_pairs = 0
    for record, good in zip(records, ok):
        if workload.extracts and good:
            c, s = workload.sizes(record.request, record.out)
            cost, size = cost + c, size + s
        if workload.proves and good:
            p, t = workload.decided(record.request, record.out)
            proved, true_pairs = proved + p, true_pairs + t
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "throughput_rps": metric(succeeded / loop_s, "1/s"),
        "latency_p50_s": metric(percentile(latencies, 0.5), "s"),
        "latency_p90_s": metric(percentile(latencies, 0.9), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
        "cost_ratio": metric(cost / size if size else 1.0, "ratio"),
        "decided_ratio": metric(proved / true_pairs if true_pairs else 1.0, "ratio"),
    }


def per_layer(summary, records, overhead) -> dict:
    layers, counts = summary["layers"], summary["counts"]
    calls = {name: entry["calls"] for name, entry in summary["by_span"].items()}
    totals = dict.fromkeys(workloads.COUNTER_NAMES[:-1], 0)
    ran = iter_limited = 0
    for record in records:
        if record.counters is None:
            continue
        for name, value in zip(workloads.COUNTER_NAMES, record.counters):
            if name != "stop_reason":
                totals[name] += value
        stop = record.counters[-1]
        ran += bool(stop)
        iter_limited += stop == "iter_limit"
    join_calls = calls.get("analysis.join", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "pattern.search_s": (layers.get("pattern.search_s", 0.0), "s"),
        "pattern.search_calls": (calls.get("pattern.search", 0), "count"),
        "pattern.matches": (counts["matches"], "count"),
        "rewrite.apply_s": (layers.get("rewrite.apply_s", 0.0), "s"),
        "rewrite.applied": (counts["applied"], "count"),
        "rewrite.useful_ratio": (ratio(counts["applied"], counts["matches"]), "ratio"),
        "egraph.rebuild_s": (layers.get("egraph.rebuild_s", 0.0), "s"),
        "egraph.rebuild_calls": (calls.get("egraph.rebuild", 0), "count"),
        "egraph.repairs": (totals["repairs"], "count"),
        "egraph.hashcons_updates": (totals["hashcons_updates"], "count"),
        "egraph.unions": (totals["unions"], "count"),
        "egraph.repairs_per_union": (ratio(totals["repairs"], totals["unions"]), "ratio"),
        "egraph.enodes": (totals["enodes"], "count"),
        "egraph.eclasses": (totals["eclasses"], "count"),
        "egraph.add_s": (layers.get("egraph.add_s", 0.0), "s"),
        "egraph.merge_s": (layers.get("egraph.merge_s", 0.0), "s"),
        "analysis.s": (layers.get("analysis.s", 0.0), "s"),
        "analysis.make_calls": (calls.get("analysis.make", 0), "count"),
        "analysis.join_calls": (join_calls, "count"),
        "analysis.modify_calls": (calls.get("analysis.modify", 0), "count"),
        "analysis.join_changed_ratio": (ratio(counts["join_changed"], join_calls), "ratio"),
        "extraction.s": (layers.get("extraction.s", 0.0), "s"),
        "extraction.classes": (counts["extraction_classes"], "count"),
        "language.parse_s": (layers.get("language.parse_s", 0.0), "s"),
        "language.parse_nodes": (counts["parse_nodes"], "count"),
        "language.print_s": (layers.get("language.print_s", 0.0), "s"),
        "runner.self_s": (layers.get("runner.self_s", 0.0), "s"),
        "runner.iterations": (totals["iterations"], "count"),
        "runner.iter_limit_ratio": (ratio(iter_limited, ran), "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


# ----------------------------------------------------------------------

def measure(workload, seed: int, seconds: float, new_graph):
    """The untraced run: end-to-end metrics."""
    setup_times = measure_setup(workload)
    records, loop_s = serve_blocks(
        workload, timed_blocks(workload, seed, seconds), new_graph
    )
    guard_against_stored(workload, seed, [r.counters for r in records])
    correct, failed, ok = judge(workload, records)
    return correct, len(records), failed, end_to_end(
        workload, records, loop_s, ok, setup_times
    )


def measure_traced(workload, seed: int, new_graph):
    """The first blocks of the stream, untraced and then traced: per-layer
    metrics, totalled over those blocks."""
    import tracing

    eqsat = workload.eqsat
    blocks = first_blocks(workload, seed, workload.trace_blocks)
    plain, _ = serve_blocks(workload, blocks, new_graph)
    tracer = tracing.Tracer(eqsat)
    tracer.install()
    try:
        traced, _ = serve_blocks(
            workload, blocks,
            lambda: eqsat.EGraph(tracer.analysis(workload.analysis())),
            tracer,
        )
    finally:
        tracer.uninstall()
    compare_counters(
        "traced vs untraced",
        [r.counters for r in plain], [r.counters for r in traced],
    )
    summary = tracer.summary()
    totals = {name: entry["calls"] for name, entry in summary["by_span"].items()}
    totals.update(summary["counts"])
    guard_against_stored(workload, seed, [r.counters for r in plain], totals)

    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain)
    summary.update(workload=workload.name, seed=seed, overhead_ratio=overhead)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}-{seed}", summary)
    print(
        f"trace: {summary['spans']} spans, layer spans cover "
        f"{summary['coverage']:.1%} of request time",
        file=sys.stderr,
    )
    correct_plain, _, _ = judge(workload, plain)
    correct, failed, _ = judge(workload, traced)
    return correct and correct_plain, len(traced), failed, per_layer(
        summary, traced, overhead
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eqsat" / "__init__.py").is_file():
        fail(f"no eqsat sources under {SRC}; run from the root of a checkout", 2)
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    workload.setup()
    eqsat = workload.eqsat
    if Path(eqsat.__file__).resolve().parent != SRC / "eqsat":
        fail(f"imported eqsat from {eqsat.__file__}, not from {SRC}", 2)

    def new_graph():
        return eqsat.EGraph(workload.analysis())

    try:
        if args.trace:
            result = measure_traced(workload, args.seed, new_graph)
        else:
            result = measure(workload, args.seed, args.seconds, new_graph)
    except GuardError as exc:
        fail(f"determinism guard failed: {exc}", 3)
    correct, attempted, failed, metrics = result
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
