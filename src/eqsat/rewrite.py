"""Named rewrite rules: a searcher pattern, an applier and conditions.

A rule's conditions are read-only tests of a match, and they make every
decision the rule takes; the runner decides them in the read phase, on the
clean graph the match was found in, so no merge of the same iteration can
change their answer.  An applier only instantiates what a kept match says.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional

from .egraph import EGraph
from .language import LanguageDef, LanguageError, read_sexp, tokenize
from .pattern import (
    Pattern,
    SearchMatches,
    Substitutions,
    apply_subst,
    ematch,
    lookup_subst,
    parse_pattern,
    subst_ids,
)

# A condition may declare the pattern variables it reads as a `variables`
# tuple; a rewrite then rejects any the searcher does not bind.
Condition = Callable[[EGraph, int, dict], bool]


class Applier:
    """Gives the class ids a kept match's class is merged with.

    `apply_one` only instantiates: it may add nodes, but its result is a
    function of the matched class id and the substitution alone, and it
    reads no class data and no union-find state.  So a run applies each
    instance once, and the write phase cannot change what a rule decides.
    """

    def apply_one(self, egraph: EGraph, eclass: int, subst: dict) -> list[int]:
        raise NotImplementedError

    def pattern_vars(self) -> tuple[str, ...]:
        """Variables the applier needs bound by the searcher."""
        return ()


@dataclass
class PatternApplier(Applier):
    pattern: Pattern

    def apply_one(self, egraph, eclass, subst):
        return [apply_subst(self.pattern, subst, egraph)]

    def pattern_vars(self):
        return self.pattern.vars()


@dataclass
class ConditionEqual:
    """True iff instantiating both patterns under the substitution lands in
    the same class.  Lookup-only: absent subterms make the condition false,
    and the graph is never mutated."""

    p1: Pattern
    p2: Pattern

    def __call__(self, egraph, eclass, subst):
        a = lookup_subst(self.p1, subst, egraph)
        if a is None:
            return False
        b = lookup_subst(self.p2, subst, egraph)
        return b is not None and a == b

    @property
    def variables(self) -> tuple[str, ...]:
        return self.p1.vars() + self.p2.vars()

    @staticmethod
    def parse(text1: str, text2: str, lang: LanguageDef) -> "ConditionEqual":
        return ConditionEqual(parse_pattern(text1, lang), parse_pattern(text2, lang))


def class_constant(egraph: EGraph, class_id: int):
    """Constant recorded by the class's analysis data, if any (duck-typed:
    the data either is the constant or carries a `.constant` attribute)."""
    data = egraph[class_id].data
    return getattr(data, "constant", data)


def is_const(var: str) -> Condition:
    def cond(egraph, eclass, subst):
        return class_constant(egraph, subst[var]) is not None

    cond.variables = (var,)
    return cond


def is_nonzero_const(var: str) -> Condition:
    def cond(egraph, eclass, subst):
        value = class_constant(egraph, subst[var])
        return value is not None and value != 0

    cond.variables = (var,)
    return cond


def is_not_same_var(v1: str, v2: str) -> Condition:
    def cond(egraph, eclass, subst):
        return egraph.find(subst[v1]) != egraph.find(subst[v2])

    cond.variables = (v1, v2)
    return cond


class RewriteError(LanguageError):
    pass


@dataclass
class Rewrite:
    """Where `searcher` matches and every condition holds on the clean
    graph, `applier` gives what the matched class is merged with."""

    name: str
    searcher: Pattern
    applier: Applier
    conditions: tuple[Condition, ...] = ()

    def __post_init__(self):
        self.conditions = tuple(self.conditions)
        searched = set(self.searcher.vars())
        missing = [v for v in self.applier.pattern_vars() if v not in searched]
        if missing:
            raise RewriteError(
                f"rewrite {self.name!r} uses unbound variables: {', '.join(missing)}"
            )
        declared = [v for c in self.conditions for v in getattr(c, "variables", ())]
        unbound = [v for v in dict.fromkeys(declared) if v not in searched]
        if unbound:
            raise RewriteError(
                f"rewrite {self.name!r}: condition uses variables the "
                f"left-hand side does not bind: {', '.join(unbound)}"
            )

    @staticmethod
    def parse(
        name: str,
        lhs: str,
        rhs: str,
        lang: LanguageDef,
        conditions: Iterable[Condition] = (),
    ) -> "Rewrite":
        applier = PatternApplier(parse_pattern(rhs, lang))
        return Rewrite(name, parse_pattern(lhs, lang), applier, conditions)

    def search(self, egraph: EGraph) -> list[SearchMatches]:
        return ematch(egraph, self.searcher)

    @cached_property
    def _applier_ids(self) -> Optional[Callable]:
        """For a `PatternApplier`: the function from a match's id tuple to
        the one its pattern's builder reads, or None when they are the same;
        made on first use."""
        names = [name for name, _ in self.searcher.program.var_regs]
        slots = [names.index(name) for name, _ in self.applier.pattern.program.var_regs]
        if slots != list(range(len(names))):
            return lambda ids: tuple([ids[i] for i in slots])
        return None


def apply_rewrite(
    egraph: EGraph, rewrite: Rewrite, matches: list[SearchMatches]
) -> int:
    """Apply previously collected matches; returns how many substitutions
    performed at least one new union.  May leave the graph dirty.  It
    decides no condition: a caller passing `Rewrite.search` output must
    first drop the matches whose conditions do not hold.  A plain
    `PatternApplier` is given each match's id tuple, with no dict."""
    applied = 0
    applier, merge = rewrite.applier, egraph.merge
    if type(applier) is PatternApplier:
        pattern, add, pick = applier.pattern, egraph.add, rewrite._applier_ids
        build = pattern.builder
        for eclass, substs in matches:
            if isinstance(substs, Substitutions):
                rows = substs.ids if pick is None else map(pick, substs.ids)
            else:  # substitution dicts, as a caller that filtered them passes
                rows = [subst_ids(pattern, subst) for subst in substs]
            for ids in rows:
                before = egraph.union_count
                merge(eclass, build(add, ids))
                applied += egraph.union_count > before
        return applied
    for eclass, substs in matches:
        for subst in substs:
            before = egraph.union_count
            for produced in applier.apply_one(egraph, eclass, subst):
                merge(eclass, produced)
            applied += egraph.union_count > before
    return applied


# ----------------------------------------------------------------------
# rules file format: one rule per line,
#   name: <lhs-sexp> => <rhs-sexp> [if <builtin-condition>]
# with builtin conditions `is-const ?x`, `not-same-var ?a ?b`, `eq <p1> <p2>`.

def _read_pattern(tokens: list[tuple[str, int]], at: int, lang: LanguageDef):
    """The pattern read from token index `at`, and the index just past it."""
    nodes: list = []
    after = read_sexp(tokens, at, lang, nodes, allow_vars=True)
    return Pattern(tuple(nodes)), after


def _parse_condition(tokens: list[tuple[str, int]], lang: LanguageDef) -> Condition:
    """The builtin condition named after a rule's `if`."""
    if not tokens:
        raise RewriteError("empty condition")
    head = tokens[0][0]
    rest = tuple(token for token, _ in tokens[1:])
    if head == "is-const":
        if len(rest) != 1 or not rest[0].startswith("?"):
            raise RewriteError("is-const takes one pattern variable")
        return is_const(rest[0])
    if head == "not-same-var":
        if len(rest) != 2:
            raise RewriteError("not-same-var takes two pattern variables")
        return is_not_same_var(*rest)
    if head == "eq":
        p1, at = _read_pattern(tokens, 1, lang)
        p2, at = _read_pattern(tokens, at, lang)
        if at != len(tokens):
            raise RewriteError("eq takes exactly two patterns")
        return ConditionEqual(p1, p2)
    raise RewriteError(f"unknown builtin condition {head!r}")


def _parse_rule(line: str, lang: LanguageDef) -> Rewrite:
    name, colon, rest = line.partition(":")
    if not colon or not name.strip():
        raise RewriteError("expected 'name: lhs => rhs'")
    lhs_text, arrow, rhs_rest = rest.partition("=>")
    if not arrow:
        raise RewriteError("missing '=>'")
    searcher = parse_pattern(lhs_text, lang)
    tokens = tokenize(rhs_rest)
    if not tokens:
        raise RewriteError("missing right-hand side")
    rhs, at = _read_pattern(tokens, 0, lang)
    conditions = ()
    if at < len(tokens):
        if tokens[at][0] != "if":
            raise RewriteError("trailing tokens after rhs")
        conditions = (_parse_condition(tokens[at + 1 :], lang),)
    return Rewrite(name.strip(), searcher, PatternApplier(rhs), conditions)


def parse_rules(text: str, lang: LanguageDef) -> list[Rewrite]:
    """Rules from rules-file text; any error is a RewriteError naming its line."""
    rules, first_line = [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rule = _parse_rule(line, lang)
        except LanguageError as exc:
            raise RewriteError(f"line {lineno}: {exc}") from exc
        first = first_line.setdefault(rule.name, lineno)
        if first != lineno:
            raise RewriteError(
                f"line {lineno}: duplicate rule name {rule.name!r} (first on line {first})"
            )
        rules.append(rule)
    return rules
