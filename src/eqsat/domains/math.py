"""A small computer algebra rule set with constant folding.

Rules cover strength reduction (shift), division cancellation, and the
usual commutativity/associativity of + and *.  Division by a class that is
not provably a nonzero constant is never cancelled unless unsafe mode is
requested explicitly.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ..analysis import Analysis, ConstantOverflow, check_folded, join_optional_constant
from ..egraph import EGraph
from ..language import LanguageDef, Leaf, Term, num
from ..rewrite import Rewrite, is_nonzero_const

MATH = LanguageDef(
    name="math",
    operators={"+": 2, "-": 2, "*": 2, "/": 2, "<<": 2},
    leaf_kinds=frozenset({"num", "sym"}),
)


def _as_fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def fold(op: str, a, b) -> Optional[object]:
    """Fold one arithmetic step over exact rationals; None when undefined.
    Results outside the 64-bit envelope raise ConstantOverflow."""
    a, b = _as_fraction(a), _as_fraction(b)
    if op == "+":
        result = a + b
    elif op == "-":
        result = a - b
    elif op == "*":
        result = a * b
    elif op == "/":
        if b == 0:
            return None
        result = a / b
    elif op == "<<":
        if b.denominator != 1 or b < 0:
            return None
        # |a| * 2**b > 2**(b + bits(numerator) - 1 - bits(denominator)), so
        # the range is decided before the result, however far the shift
        if a and b + a.numerator.bit_length() - a.denominator.bit_length() > 63:
            raise ConstantOverflow(f"folded constant out of range: {a} << {b}")
        result = a * 2**int(b) if a else a
    else:
        return None
    check_folded(result)
    return int(result) if result.denominator == 1 else result


class MathFolding(Analysis):
    """Constant folding: the domain is an optional exact rational."""

    def make(self, egraph, node):
        if isinstance(node.op, Leaf):
            return node.op.value if node.op.kind == "num" else None
        kids = [egraph[c].data for c in node.children]
        if len(kids) != 2 or kids[0] is None or kids[1] is None:
            return None
        return fold(node.op, kids[0], kids[1])

    def join(self, into, other):
        return join_optional_constant(into, other)

    def modify(self, egraph, class_id):
        value = egraph[class_id].data
        if value is not None:
            egraph.merge(class_id, egraph.add_leaf(num(value)))

    def show(self, data):
        return "none" if data is None else str(data)


def make_egraph(rebuild_after_merge=False) -> EGraph:
    return EGraph(MathFolding(), rebuild_after_merge=rebuild_after_merge)


def math_rules(unsafe_math: bool = False) -> list[Rewrite]:
    rules = [
        Rewrite.parse("add-comm", "(+ ?a ?b)", "(+ ?b ?a)", MATH),
        Rewrite.parse("mul-comm", "(* ?a ?b)", "(* ?b ?a)", MATH),
        Rewrite.parse("add-assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))", MATH),
        Rewrite.parse("mul-assoc", "(* (* ?a ?b) ?c)", "(* ?a (* ?b ?c))", MATH),
        Rewrite.parse("double-to-shift", "(* ?x 2)", "(<< ?x 1)", MATH),
        Rewrite.parse("div-through-mul", "(/ (* ?x ?y) ?z)", "(* ?x (/ ?y ?z))", MATH),
        Rewrite.parse("mul-one", "(* 1 ?x)", "?x", MATH),
    ]
    if unsafe_math:
        rules.append(Rewrite.parse("div-self", "(/ ?x ?x)", "1", MATH))
    else:
        rules.append(
            Rewrite.parse(
                "div-self", "(/ ?x ?x)", "1", MATH,
                conditions=[is_nonzero_const("?x")],
            )
        )
    return rules


def strength_reduction_rules() -> list[Rewrite]:
    """Minimal four-rule demo: strength reduction plus division
    cancellation, with x/x -> 1 unguarded.  The cancellation of a produced
    `(* x 1)` matches the operand order the graph actually holds."""
    return [
        Rewrite.parse("double-to-shift", "(* ?x 2)", "(<< ?x 1)", MATH),
        Rewrite.parse("div-through-mul", "(/ (* ?x ?y) ?z)", "(* ?x (/ ?y ?z))", MATH),
        Rewrite.parse("div-self", "(/ ?x ?x)", "1", MATH),
        Rewrite.parse("mul-one", "(* ?x 1)", "?x", MATH),
    ]


def eval_term(term: Term, env: dict[str, object]) -> Optional[Fraction]:
    """Reference evaluator over exact rationals; None where undefined
    (division by zero, fractional or negative shift amounts).  Independent
    of the e-graph machinery, used to cross-check rewrites."""
    values: list[Optional[Fraction]] = []
    for op, kids in term.nodes:
        if isinstance(op, Leaf):
            if op.kind == "num":
                values.append(_as_fraction(op.value))
            elif op.kind == "sym":
                values.append(_as_fraction(env[op.value]))
            else:
                values.append(None)
            continue
        a, b = (values[k] for k in kids)
        if a is None or b is None:
            values.append(None)
        elif op == "+":
            values.append(a + b)
        elif op == "-":
            values.append(a - b)
        elif op == "*":
            values.append(a * b)
        elif op == "/":
            values.append(None if b == 0 else a / b)
        elif op == "<<":
            if b.denominator != 1 or b < 0:
                values.append(None)
            else:
                values.append(a * 2**int(b))
        else:
            raise ValueError(f"no evaluation for operator {op!r}")
    return values[-1]
