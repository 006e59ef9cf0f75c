"""A partial evaluator for the untyped lambda calculus.

Binding is handled by explicit substitution: `let` terms are introduced by
beta reduction and pushed through the term by rewrite rules until they are
eliminated at variables and constants.  A per-class analysis tracks an
over-approximation of free variables (by symbol name) together with the
class's constant value, if any; the free-variable sets drive
capture-avoiding substitution under binders.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis import (
    Analysis,
    AnalysisContradiction,
    check_folded,
    join_optional_constant,
)
from ..egraph import EGraph
from ..language import LanguageDef, Leaf, Term, boolean, num, sym
from ..pattern import apply_subst, parse_pattern
from ..rewrite import (
    Applier,
    Condition,
    ConditionEqual,
    Rewrite,
    is_const,
    is_not_same_var,
)

LAMBDA = LanguageDef(
    name="lambda",
    operators={
        "+": 2,
        "=": 2,
        "if": 3,
        "app": 2,
        "lam": 2,
        "let": 3,
        "fix": 2,
        "var": 1,
    },
    leaf_kinds=frozenset({"num", "bool", "sym"}),
)


NO_NAMES: frozenset[str] = frozenset()


@dataclass(frozen=True)
class LamData:
    """free: names of the variables possibly free in the class's terms
    (an over-approximation); constant: the known constant leaf, if any;
    symbols: names of the symbol leaves in the class."""

    free: frozenset[str]
    constant: Optional[Leaf]
    symbols: frozenset[str] = NO_NAMES


def eval_node(op, kids: list[LamData]) -> Optional[Leaf]:
    """Constant value of an operator node whose children are all constants."""
    if op == "+":
        a, b = (kid.constant for kid in kids)
        if a is None or b is None or a.kind != "num" or b.kind != "num":
            return None
        return num(check_folded(a.value + b.value))
    if op == "=":
        a, b = (kid.constant for kid in kids)
        if a is None or b is None:
            return None
        return boolean(a == b)
    return None


def bind(free: frozenset[str], binder: LamData) -> frozenset[str]:
    """Free names of a body under a binder class.  A binder class holding
    several symbols (two symbol classes were merged) binds no one name for
    sure, so nothing is removed: the result stays an over-approximation."""
    if len(binder.symbols) == 1:
        return free - binder.symbols
    return free


class LamAnalysis(Analysis):
    def make(self, egraph, node):
        op = node.op
        if isinstance(op, Leaf):
            if op.kind == "sym":
                return LamData(NO_NAMES, None, frozenset((op.value,)))
            return LamData(NO_NAMES, op)
        kids = [egraph[child].data for child in node.children]
        if op == "var":
            free = kids[0].symbols
        elif op == "let":
            v, a, b = kids
            free = bind(b.free, v) | a.free
        elif op in ("lam", "fix"):
            v, b = kids
            free = bind(b.free, v)
        else:
            free = NO_NAMES
            for kid in kids:
                free |= kid.free
        return LamData(free, eval_node(op, kids))

    def join(self, into, other):
        try:
            constant, changed = join_optional_constant(into.constant, other.constant)
        except AnalysisContradiction as exc:
            raise AnalysisContradiction(f"lambda constants disagree: {exc}") from None
        # most joins change nothing: keep `into` rather than build an equal copy
        free, symbols = into.free, into.symbols
        if not other.free <= free:
            free, changed = free | other.free, True
        if not other.symbols <= symbols:
            symbols, changed = symbols | other.symbols, True
        return (LamData(free, constant, symbols), True) if changed else (into, False)

    def modify(self, egraph, class_id):
        constant = egraph[class_id].data.constant
        if constant is not None:
            egraph.merge(class_id, egraph.add_leaf(constant))

    def show(self, data):
        if data is None:
            return "none"
        free = ",".join(sorted(data.free))
        const = "-" if data.constant is None else str(data.constant.value)
        return f"free={{{free}}} const={const}"


def make_egraph(rebuild_after_merge=False) -> EGraph:
    return EGraph(LamAnalysis(), rebuild_after_merge=rebuild_after_merge)


def binder_free_in(v: str, e: str, holds: bool = True) -> Condition:
    """Whether a symbol of class `v` may be free in class `e` (read from the
    analysis), compared with `holds`: a `let` pushed under a `lam` binding
    such a symbol must rename the binder first."""

    def cond(egraph, eclass, subst):
        free = egraph[subst[e]].data.free
        return bool(egraph[subst[v]].data.symbols & free) == holds

    cond.variables = (v, e)
    return cond


def fresh_name(eclass: int) -> str:
    """The binder `RenameBinder` makes for a match of class `eclass`."""
    return f"_{eclass}"


def fresh_name_unused(v: str, *scopes: str) -> Condition:
    """Whether the match's fresh name is no symbol of class `v` and may be
    free in none of the `scopes` classes: a binder by that name would
    capture the user's symbol."""

    def cond(egraph, eclass, subst):
        name = fresh_name(eclass)
        if name in egraph[subst[v]].data.symbols:
            return False
        return not any(name in egraph[subst[s]].data.free for s in scopes)

    cond.variables = (v, *scopes)
    return cond


class RenameBinder(Applier):
    """Instantiates `rhs` with `fresh` bound to a new symbol named after the
    matched class id (so deterministic)."""

    def __init__(self, fresh: str, rhs: str):
        self.fresh = fresh
        self.rhs = parse_pattern(rhs, LAMBDA)

    def apply_one(self, egraph, eclass, subst):
        extended = {**subst, self.fresh: egraph.add_leaf(sym(fresh_name(eclass)))}
        return [apply_subst(self.rhs, extended, egraph)]

    def pattern_vars(self):
        return tuple(v for v in self.rhs.vars() if v != self.fresh)

    def fresh_vars(self):
        return (self.fresh,)


class AddProbes(Applier):
    """Adds the instantiated probe terms and merges nothing with the match.
    Later iterations evaluate them, and a sibling rule's `ConditionEqual` on
    the same patterns sees when the graph proves them equal; a lookup alone
    would never see them, as nothing else builds these terms."""

    def __init__(self, *probes: str):
        self.probes = tuple(parse_pattern(p, LAMBDA) for p in probes)

    def apply_one(self, egraph, eclass, subst):
        for probe in self.probes:
            apply_subst(probe, subst, egraph)
        return []

    def pattern_vars(self):
        return tuple(dict.fromkeys(v for p in self.probes for v in p.vars()))


def lambda_rules() -> list[Rewrite]:
    def rw(name, lhs, rhs, *conditions):
        return Rewrite.parse(name, lhs, rhs, LAMBDA, conditions)

    # a choice is a pair of rules on one left-hand side, told apart by conditions
    branch = "(if (= (var ?x) ?e) ?then ?else)"
    probes = ("(let ?x ?e ?then)", "(let ?x ?e ?else)")
    under_lam = "(let ?v1 ?e (lam ?v2 ?body))"
    return [
        # open-term rules
        rw("if-true", "(if true ?then ?else)", "?then"),
        rw("if-false", "(if false ?then ?else)", "?else"),
        rw("if-elim", branch, "?else", ConditionEqual.parse(*probes, LAMBDA)),
        Rewrite("if-elim-probe", parse_pattern(branch, LAMBDA), AddProbes(*probes)),
        rw("add-comm", "(+ ?a ?b)", "(+ ?b ?a)"),
        rw("add-assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
        rw("eq-comm", "(= ?a ?b)", "(= ?b ?a)"),
        # substitution introduction
        rw("fix", "(fix ?v ?e)", "(let ?v (fix ?v ?e) ?e)"),
        rw("beta", "(app (lam ?v ?body) ?e)", "(let ?v ?e ?body)"),
        # substitution propagation
        rw("let-app", "(let ?v ?e (app ?a ?b))", "(app (let ?v ?e ?a) (let ?v ?e ?b))"),
        rw("let-add", "(let ?v ?e (+ ?a ?b))", "(+ (let ?v ?e ?a) (let ?v ?e ?b))"),
        rw("let-eq", "(let ?v ?e (= ?a ?b))", "(= (let ?v ?e ?a) (let ?v ?e ?b))"),
        rw(
            "let-if",
            "(let ?v ?e (if ?cond ?then ?else))",
            "(if (let ?v ?e ?cond) (let ?v ?e ?then) (let ?v ?e ?else))",
        ),
        # substitution elimination
        rw("let-const", "(let ?v ?e ?c)", "?c", is_const("?c")),
        rw("let-var-same", "(let ?v1 ?e (var ?v1))", "?e"),
        rw(
            "let-var-diff",
            "(let ?v1 ?e (var ?v2))",
            "(var ?v2)",
            is_not_same_var("?v1", "?v2"),
        ),
        rw("let-lam-same", "(let ?v1 ?e (lam ?v1 ?body))", "(lam ?v1 ?body)"),
        rw(
            "let-lam-diff",
            under_lam,
            "(lam ?v2 (let ?v1 ?e ?body))",
            is_not_same_var("?v1", "?v2"),
            binder_free_in("?v2", "?e", holds=False),
        ),
        Rewrite(
            "let-lam-rename",
            parse_pattern(under_lam, LAMBDA),
            RenameBinder("?fresh", "(lam ?fresh (let ?v1 ?e (let ?v2 (var ?fresh) ?body)))"),
            (is_not_same_var("?v1", "?v2"), binder_free_in("?v2", "?e"),
             fresh_name_unused("?v1", "?e", "?body")),
        ),
    ]


class ClosedTermError(Exception):
    pass


@dataclass
class Closure:
    param: str
    body: Term
    env: dict


def eval_closed(term: Term, fuel: int = 10_000):
    """Reference big-step evaluator for closed terms, independent of the
    e-graph.  Returns a Python int/bool or a Closure."""

    def ev(t: Term, env: dict, fuel: int):
        if fuel <= 0:
            raise ClosedTermError("evaluation fuel exhausted")
        op = t.root_op
        if isinstance(op, Leaf):
            if op.kind in ("num", "bool"):
                return op.value
            raise ClosedTermError(f"bare symbol {op.value!r} is not a value")
        kids = t.children()
        if op == "var":
            name = kids[0].root_op.value
            if name not in env:
                raise ClosedTermError(f"unbound variable {name!r}")
            value = env[name]
            # a fix binding is a thunk: unfold it on use
            if isinstance(value, tuple) and value and value[0] == "fix":
                return ev(value[1], value[2], fuel - 1)
            return value
        if op == "+":
            return ev(kids[0], env, fuel - 1) + ev(kids[1], env, fuel - 1)
        if op == "=":
            left = ev(kids[0], env, fuel - 1)
            right = ev(kids[1], env, fuel - 1)
            # booleans never equal numbers, though Python says 1 == True
            if isinstance(left, bool) != isinstance(right, bool):
                return False
            return left == right
        if op == "if":
            cond = ev(kids[0], env, fuel - 1)
            return ev(kids[1] if cond else kids[2], env, fuel - 1)
        if op == "lam":
            return Closure(kids[0].root_op.value, kids[1], dict(env))
        if op == "let":
            name = kids[0].root_op.value
            bound = ev(kids[1], env, fuel - 1)
            return ev(kids[2], {**env, name: bound}, fuel - 1)
        if op == "app":
            fn = ev(kids[0], env, fuel - 1)
            if not isinstance(fn, Closure):
                raise ClosedTermError("applying a non-function")
            arg = ev(kids[1], env, fuel - 1)
            return ev(fn.body, {**fn.env, fn.param: arg}, fuel - 1)
        if op == "fix":
            name = kids[0].root_op.value
            return ev(kids[1], {**env, name: ("fix", t, env)}, fuel - 1)
        raise ClosedTermError(f"no evaluation for operator {op!r}")

    return ev(term, {}, fuel)
