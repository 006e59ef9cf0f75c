"""The phase-split equality saturation loop.

Each iteration searches every (unbanned) rule against a clean graph and
decides the matches' conditions there, applies the kept matches in a write
phase that may temporarily break invariants, and restores the invariants
with a single rebuild.  Appliers only instantiate, so splitting the phases
makes the result invariant to rule order and lets the rebuild be deferred
safely.  A match whose canonical ids repeat an instance the run already
applied is not applied again.  Stops are decided between iterations, on the
rebuilt graph (the clock is also read after the search), so a stop depends
on neither the rebuild strategy nor the rule order, and a run may end above
its node limit by one iteration's growth.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Callable, Optional, Sequence

from .analysis import AnalysisError
from .egraph import EGraph
from .language import Term
from .pattern import Pattern, SearchMatches, Substitutions
from .rewrite import Rewrite, apply_rewrite


class StopReason(Enum):
    SATURATED = "saturated"
    ITER_LIMIT = "iter_limit"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"
    HOOK_STOP = "hook_stop"
    ANALYSIS_CONTRADICTION = "analysis_contradiction"


class Scheduler:
    """Decides which rules search and whether their matches get applied;
    this base scheduler (``every``) searches and applies every rule, every
    iteration."""

    def banned(self, iteration: int, rewrite: Rewrite) -> bool:
        return False

    def filter_matches(self, iteration: int, rewrite: Rewrite, matches):
        """Returns (matches, banned_now)."""
        return matches, False


@dataclass
class RuleBackoff:
    match_limit: int
    times_banned: int = 0
    banned_until: int = -1


class BackoffScheduler(Scheduler):
    """Temporarily bans rules whose match counts outgrow an exponentially
    increasing threshold, keeping expansive rules from dominating."""

    def __init__(self, match_limit: int = 1000, ban_length: int = 5):
        self.match_limit = match_limit
        self.ban_length = ban_length
        self.state: dict[str, RuleBackoff] = {}

    def _state(self, rewrite: Rewrite) -> RuleBackoff:
        return self.state.setdefault(rewrite.name, RuleBackoff(self.match_limit))

    def banned(self, iteration, rewrite):
        return iteration <= self._state(rewrite).banned_until

    def filter_matches(self, iteration, rewrite, matches):
        state = self._state(rewrite)
        total = sum(len(m.substs) for m in matches)
        if total > state.match_limit:
            state.banned_until = iteration + self.ban_length * 2**state.times_banned
            state.times_banned += 1
            state.match_limit *= 2
            return [], True
        return matches, False


def make_scheduler(kind) -> Scheduler:
    if isinstance(kind, Scheduler):
        return kind
    if kind == "every":
        return Scheduler()
    if kind == "backoff":
        return BackoffScheduler()
    raise ValueError(f"unknown scheduler {kind!r}")


@dataclass
class RunnerConfig:
    """Limits, read between iterations: a run may end above `node_limit` by
    one iteration's growth."""

    iter_limit: int = 30
    node_limit: int = 10_000
    time_limit: float = 5.0
    scheduler: object = "backoff"
    hooks: tuple = ()

    def __post_init__(self):
        if self.iter_limit <= 0 or self.node_limit <= 0 or self.time_limit <= 0:
            raise ValueError("runner limits must be strictly positive")


@dataclass(slots=True)
class RuleStats:
    """Per rule, per iteration: the matches the scheduler kept
    (``searched``), how many of them repeated an instance the run had
    already applied and were not applied again (``skipped``), and how many
    applied ones made a new union (``applied``).  A match whose conditions
    do not all hold is not applied, and counts in neither."""

    searched: int = 0
    skipped: int = 0
    applied: int = 0
    banned: bool = False


class _AppliedInstances:
    """The instances a run has applied, per rule: ``(class id,
    *substitution ids)``, the ids read from the `Substitutions` tuples
    (variable-name order), so no dict is built.  An instance is recorded
    when it is kept: each kept instance is applied in the same iteration,
    or else the run ends.

    An applier's result depends on the class id and the substitution alone,
    the graph only grows, and congruence holds at every clean point: so an
    instance applied once keeps what it added, merged with the matched
    class; met again with the same canonical ids, it can add no node and
    make no union.  A key made stale by a merge only misses.  What a
    condition rejected is not stored, as the condition can turn true
    later."""

    def __init__(self, rules: Sequence[Rewrite]):
        self.seen = [set() for _ in rules]

    def to_apply(self, egraph: EGraph, index: int, rewrite: Rewrite, matches):
        """The matches of rule `index`, `rewrite`, not applied before and
        whose conditions hold on the clean graph, now recorded as applied;
        and how many repeated."""
        seen, conditions = self.seen[index], rewrite.conditions
        kept, skipped = [], 0
        for eclass, substs in matches:
            new = []
            for i, ids in enumerate(substs.ids):
                if (eclass, *ids) in seen:
                    skipped += 1
                    continue
                if conditions:
                    subst = substs[i]
                    if not all(cond(egraph, eclass, subst) for cond in conditions):
                        continue
                new.append(ids)
                seen.add((eclass, *ids))
            if new:
                kept.append(SearchMatches(eclass, Substitutions(substs.names, new)))
        return kept, skipped


@dataclass
class IterationReport:
    index: int
    rules: dict[str, RuleStats]
    enodes: int
    eclasses: int
    search_time: float
    apply_time: float
    rebuild_time: float
    repair_calls: int
    stop_reason: Optional[StopReason] = None

    def to_dict(self):
        report = asdict(self)
        report["stop_reason"] = self.stop_reason.value if self.stop_reason else None
        return report


@dataclass
class RunReport:
    egraph: EGraph
    root_ids: list[int]
    iterations: list[IterationReport]
    stop_reason: StopReason
    message: str = ""

    def to_dict(self):
        return {
            "stop_reason": self.stop_reason.value,
            "iterations": [it.to_dict() for it in self.iterations],
        }


@dataclass
class RunnerState:
    """What per-iteration hooks get to see.  A hook returning True stops
    the run."""

    egraph: EGraph
    root_ids: list[int]
    iteration: int


Hook = Callable[[RunnerState], bool]


def run(
    egraph: EGraph,
    roots: Sequence[Term],
    rules: Sequence[Rewrite],
    config: Optional[RunnerConfig] = None,
) -> RunReport:
    """Add the roots (batch simplification takes several) and saturate."""
    config = config or RunnerConfig()
    names = [rw.name for rw in rules]
    if len(set(names)) != len(names):
        dup = next(n for i, n in enumerate(names) if n in names[:i])
        raise ValueError(f"duplicate rule name {dup!r}")  # stats and bans key on it
    scheduler = make_scheduler(config.scheduler)
    applied_before = _AppliedInstances(rules)
    start = time.perf_counter()

    try:
        root_ids = [egraph.add_term(t) for t in roots]
        egraph.rebuild()
    except AnalysisError as exc:
        return RunReport(egraph, [], [], StopReason.ANALYSIS_CONTRADICTION, str(exc))

    iterations: list[IterationReport] = []
    stop_reason = None
    message = ""
    saturated = False

    while stop_reason is None:
        # every stop between iterations is decided here, on the rebuilt graph
        iteration = len(iterations)
        if egraph.n_nodes() > config.node_limit:
            stop_reason = StopReason.NODE_LIMIT
        elif time.perf_counter() - start > config.time_limit:
            stop_reason = StopReason.TIME_LIMIT
        elif saturated:
            stop_reason = StopReason.SATURATED
        elif iteration >= config.iter_limit:
            stop_reason = StopReason.ITER_LIMIT
        elif any(hook(RunnerState(egraph, root_ids, iteration)) for hook in config.hooks):
            stop_reason = StopReason.HOOK_STOP
        if stop_reason is not None:
            break

        stats = {rw.name: RuleStats() for rw in rules}
        unions_before = egraph.union_count
        nodes_before = egraph.n_nodes()

        # read phase: collect matches for every rule before applying any;
        # rules on one left-hand side share its search
        search_start = time.perf_counter()
        found: dict[Pattern, list[SearchMatches]] = {}
        collected = []
        for index, rw in enumerate(rules):
            st = stats[rw.name]
            if scheduler.banned(iteration, rw):
                st.banned = True
                continue
            matches = found.get(rw.searcher)
            if matches is None:
                matches = found[rw.searcher] = rw.search(egraph)
            # the scheduler sees every match; repeats and rejects go after it
            matches, st.banned = scheduler.filter_matches(iteration, rw, matches)
            st.searched = sum(len(m.substs) for m in matches)
            matches, st.skipped = applied_before.to_apply(egraph, index, rw, matches)
            if matches:
                collected.append((rw, matches))
        search_time = time.perf_counter() - search_start

        # write phase: every kept match, then one rebuild.  An iteration out
        # of time after its search reports no write phase
        repairs_before = egraph.repair_calls
        apply_time = rebuild_time = 0.0
        if time.perf_counter() - start > config.time_limit:
            stop_reason = StopReason.TIME_LIMIT
        else:
            apply_start = time.perf_counter()
            try:
                for rw, matches in collected:
                    stats[rw.name].applied = apply_rewrite(egraph, rw, matches)
                apply_time = time.perf_counter() - apply_start
                rebuild_start = time.perf_counter()
                egraph.rebuild()
                rebuild_time = time.perf_counter() - rebuild_start
            except AnalysisError as exc:
                stop_reason = StopReason.ANALYSIS_CONTRADICTION
                message = str(exc)
                apply_time = time.perf_counter() - apply_start

        iterations.append(
            IterationReport(
                iteration,
                stats,
                egraph.n_nodes(),
                egraph.n_classes(),
                search_time,
                apply_time,
                rebuild_time,
                egraph.repair_calls - repairs_before,
            )
        )
        productive = egraph.union_count > unions_before or egraph.n_nodes() > nodes_before
        # saturation requires a fully unthrottled, unproductive pass:
        # a banned rule may still be holding matches back
        saturated = not productive and not any(st.banned for st in stats.values())

    if iterations:
        iterations[-1].stop_reason = stop_reason
    return RunReport(egraph, root_ids, iterations, stop_reason, message)


@dataclass
class EquivResult:
    equal: bool
    iterations: int
    report: RunReport


def check_equiv(
    egraph: EGraph,
    lhs: Term,
    rhs: Term,
    rules: Sequence[Rewrite],
    config: Optional[RunnerConfig] = None,
) -> EquivResult:
    """Prove two terms equal by saturating with the rules and checking they
    land in one class: the one-pair case of `check_equiv_batched`.  Failure
    within limits is inconclusive, not a disproof."""
    verdicts, report = check_equiv_batched(egraph, [(lhs, rhs)], rules, config)
    return EquivResult(bool(verdicts and verdicts[0]), len(report.iterations), report)


def check_equiv_batched(
    egraph: EGraph,
    pairs: Sequence[tuple[Term, Term]],
    rules: Sequence[Rewrite],
    config: Optional[RunnerConfig] = None,
) -> tuple[list[bool], RunReport]:
    """Verify many pairs in one e-graph; structurally similar pairs share
    rewriting work.  Stops as soon as every pair is unified."""
    config = config or RunnerConfig()

    def all_unified(state: RunnerState) -> bool:
        return all(_pair_verdicts(state.egraph, state.root_ids))

    batched = replace(config, hooks=tuple(config.hooks) + (all_unified,))
    roots = [t for pair in pairs for t in pair]
    report = run(egraph, roots, rules, batched)
    return _pair_verdicts(report.egraph, report.root_ids), report


def _pair_verdicts(egraph: EGraph, root_ids: list[int]) -> list[bool]:
    """Whether each pair of roots (``root_ids[2i]``, ``root_ids[2i+1]``)
    shares a class; no verdicts when no roots were added."""
    find = egraph.find
    return [find(root_ids[i]) == find(root_ids[i + 1]) for i in range(0, len(root_ids), 2)]
