"""Command-line front end: simplify terms, check equivalences, run benches.

Exit codes:
  0  success; `check-equiv`: every pair proved equal
  1  `check-equiv`: some pair left unknown (saturation cannot disprove)
  2  usage error or malformed input: a term, a line of the --pairs file,
     an unreadable --pairs file or one with no pairs, LHS and RHS given
     with --pairs or not both given without it, a missing, unreadable or
     malformed rules file, a limit (--iters, --nodes, --time-ms, --repeats)
     below 1, or a `bench` --out or --json-lines file that cannot be written
  3  analysis contradiction (the rules equate distinct constants), in
     `simplify` or in any run of `check-equiv`
"""
from __future__ import annotations

import contextlib
import json
import sys

import click

from . import bench as bench_module
from .extraction import Extractor, ast_depth, ast_size
from .language import LanguageError, ParseError, Term, parse_term, read_sexp, tokenize
from .runner import RunnerConfig, StopReason, check_equiv_batched, run
from .rewrite import parse_rules
from .domains import lam as lambda_domain
from .domains import math as math_domain

COSTS = {"ast-size": ast_size, "ast-depth": ast_depth}


def _load_setup(rules_name, lang_name, unsafe_math):
    """Resolve --rules/--lang into (language, rules, egraph factory)."""
    if rules_name == "math":
        return math_domain.MATH, math_domain.math_rules(unsafe_math), math_domain.make_egraph
    if rules_name == "lambda":
        return lambda_domain.LAMBDA, lambda_domain.lambda_rules(), lambda_domain.make_egraph
    if lang_name == "lambda":
        lang, factory = lambda_domain.LAMBDA, lambda_domain.make_egraph
    else:
        lang, factory = math_domain.MATH, math_domain.make_egraph
    text = _read_or_exit(rules_name, "rules")
    try:
        rules = parse_rules(text, lang)
    except LanguageError as exc:
        click.echo(f"rules error: {exc}", err=True)
        sys.exit(2)
    return lang, rules, factory


def _read_or_exit(path, what):
    """The text of a user-named file, or exit 2 with one line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        click.echo(f"{what} error: cannot read {path}: {reason}", err=True)
        sys.exit(2)


def _open_or_exit(path, newline):
    """A user-named output file opened for writing, or exit 2 with one line."""
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        click.echo(f"output error: cannot write {path}: {exc.strerror or exc}", err=True)
        sys.exit(2)


def _parse_or_exit(text, lang):
    try:
        return parse_term(text, lang)
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(2)


def _exit_on_contradiction(report):
    if report.stop_reason is StopReason.ANALYSIS_CONTRADICTION:
        click.echo(f"analysis contradiction: {report.message}", err=True)
        sys.exit(3)


def _at_least_one(*limits):
    for flag, value in limits:
        if value < 1:
            click.echo(f"usage error: {flag} must be at least 1, got {value}", err=True)
            sys.exit(2)


def _config(iters, nodes, time_ms, scheduler):
    _at_least_one(("--iters", iters), ("--nodes", nodes), ("--time-ms", time_ms))
    return RunnerConfig(
        iter_limit=iters,
        node_limit=nodes,
        time_limit=time_ms / 1000.0,
        scheduler=scheduler,
    )


def common_options(fn):
    fn = click.option(
        "--rules", "rules_name", default="math", show_default=True,
        help="Rule set name (math|lambda) or a rules file path.",
    )(fn)
    fn = click.option(
        "--lang", "lang_name", default="math", show_default=True,
        type=click.Choice(["math", "lambda"]),
        help="Language for terms when --rules is a file.",
    )(fn)
    fn = click.option("--iters", default=30, show_default=True, help="Iteration limit.")(fn)
    fn = click.option("--nodes", default=10_000, show_default=True,
                      help="E-node limit; a run may end one iteration's growth above it.")(fn)
    fn = click.option(
        "--time-ms", default=5000, show_default=True, help="Time limit in milliseconds."
    )(fn)
    fn = click.option(
        "--scheduler", default="backoff", show_default=True,
        type=click.Choice(["every", "backoff"]),
    )(fn)
    fn = click.option(
        "--unsafe-math", is_flag=True,
        help="Allow x/x -> 1 without a nonzero-constant guard.",
    )(fn)
    return fn


@click.group()
def main():
    """E-graph based term simplifier and equivalence checker."""


@main.command()
@click.argument("expr")
@common_options
@click.option(
    "--cost", default="ast-size", show_default=True,
    type=click.Choice(sorted(COSTS)),
)
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report.")
def simplify(expr, rules_name, lang_name, iters, nodes, time_ms, scheduler,
             unsafe_math, cost, as_json):
    """Saturate EXPR with the selected rules and print the cheapest form."""
    config = _config(iters, nodes, time_ms, scheduler)
    lang, rules, factory = _load_setup(rules_name, lang_name, unsafe_math)
    report = run(factory(), [_parse_or_exit(expr, lang)], rules, config)
    _exit_on_contradiction(report)
    best, best_cost = Extractor(report.egraph, COSTS[cost]).best(report.root_ids[0])
    if as_json:
        click.echo(json.dumps(
            {
                "schema": 1,
                **report.to_dict(),
                "best": {"term": str(best), "cost": str(best_cost)},
            },
            sort_keys=True,
        ))
    else:
        click.echo(str(best))
        click.echo(f"cost: {best_cost}")


@main.command("check-equiv")
@click.argument("lhs", required=False)
@click.argument("rhs", required=False)
@common_options
@click.option("--pairs", "pairs_file", type=click.Path(exists=True),
              help="File of pairs, two s-expressions per line.")
@click.option("--batched", is_flag=True,
              help="Share one e-graph across all pairs from --pairs.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report.")
def check_equiv_cmd(lhs, rhs, rules_name, lang_name, iters, nodes, time_ms,
                    scheduler, unsafe_math, pairs_file, batched, as_json):
    """Check whether LHS and RHS are provably equal under the rules.

    Prints `equal` or `unknown`; saturation cannot disprove, so there is no
    `unequal` verdict.
    """
    config = _config(iters, nodes, time_ms, scheduler)
    lang, rules, factory = _load_setup(rules_name, lang_name, unsafe_math)
    terms = [t for t in (lhs, rhs) if t is not None]
    if len(terms) != (0 if pairs_file else 2):
        click.echo("provide LHS and RHS, or --pairs FILE", err=True)
        sys.exit(2)
    if pairs_file:
        pairs = _read_pairs(pairs_file, lang)
    else:
        pairs = [(_parse_or_exit(lhs, lang), _parse_or_exit(rhs, lang))]
    runs, results = [], []
    for group in [pairs] if batched else [[pair] for pair in pairs]:
        verdicts, report = check_equiv_batched(factory(), group, rules, config)
        runs.append(report)
        results += [(equal, len(report.iterations)) for equal in verdicts]
    for report in runs:
        _exit_on_contradiction(report)
    if as_json:
        click.echo(json.dumps(
            {
                "schema": 1,
                "results": [{"equal": e, "iterations": n} for e, n in results],
                "runs": [report.to_dict() for report in runs],
            },
            sort_keys=True,
        ))
    elif pairs_file:
        for (a, b), (equal, _) in zip(pairs, results):
            click.echo(f"{'equal' if equal else 'unknown'}\t{a}\t{b}")
    else:
        equal, n = results[0]
        click.echo(f"{'equal' if equal else 'unknown'} (iterations: {n})")
    sys.exit(0 if all(equal for equal, _ in results) else 1)


def _read_pairs(path, lang) -> list[tuple[Term, Term]]:
    """The pairs of a --pairs file, or exit 2 with one line."""
    pairs = []
    for lineno, raw in enumerate(_read_or_exit(path, "pairs").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            pairs.append(read_pair(line, lang))
        except ParseError as exc:
            click.echo(f"parse error: {exc} (line {lineno})", err=True)
            sys.exit(2)
    if not pairs:
        click.echo(f"no pairs in {path}", err=True)
        sys.exit(2)
    return pairs


def read_pair(line: str, lang) -> tuple[Term, Term]:
    """Read one line holding exactly two s-expressions."""
    tokens = tokenize(line)
    first: list = []
    second: list = []
    at = read_sexp(tokens, 0, lang, first)
    at = read_sexp(tokens, at, lang, second)
    if at != len(tokens):
        raise ParseError("trailing input after the second term", tokens[at][1])
    return Term(tuple(first)), Term(tuple(second))


@main.command("bench")
@click.option("--out", "csv_path", type=click.Path(), default=None,
              help="Write the per-run CSV here.")
@click.option("--json-lines", "jsonl_path", type=click.Path(), default=None,
              help="Write JSON-lines records here.")
@click.option("--repeats", default=5, show_default=True)
def bench_cmd(csv_path, jsonl_path, repeats):
    """Compare immediate vs deferred invariant maintenance on the built-in
    workload suite and report the congruence speedup."""
    _at_least_one(("--repeats", repeats))
    with contextlib.ExitStack() as files:
        # opened before the bench runs, so a bad path costs no run
        csv_out = csv_path and files.enter_context(_open_or_exit(csv_path, ""))
        jsonl_out = jsonl_path and files.enter_context(_open_or_exit(jsonl_path, None))
        records = bench_module.run_bench(repeats=repeats)
        if csv_out:
            csv_out.write(bench_module.records_to_csv(records))
        if jsonl_out:
            jsonl_out.write(bench_module.records_to_jsonl(records))
    summary = bench_module.speedup_report(records)
    click.echo(f"{'workload':<24}{'speedup':>10}")
    for name, speedup in summary["speedups"].items():
        click.echo(f"{name:<24}{speedup:>10.2f}")
    click.echo(f"geometric mean speedup: {summary['geometric_mean_speedup']:.2f}")
    if summary["repair_time_spearman"] is not None:
        click.echo(
            f"repairs vs congruence-time spearman: "
            f"{summary['repair_time_spearman']:.3f}"
        )


if __name__ == "__main__":
    main()
