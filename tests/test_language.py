import random

import pytest
from hypothesis import given, settings, strategies as st

from eqsat import (
    ArityError,
    LanguageDef,
    LanguageError,
    ParseError,
    Term,
    UnknownOperatorError,
    num,
    parse_term,
    print_term,
    sym,
)
from eqsat.domains.lam import LAMBDA
from eqsat.domains.math import MATH
from eqsat.pattern import parse_pattern

from helpers import random_term, reference_print, shallow_recursion_limit


def test_parse_division_demo_term():
    term = parse_term("(/ (* a 2) 2)", MATH)
    assert term.root_op == "/"
    mul, two = term.children()
    assert mul.root_op == "*"
    assert two == Term.leaf(num(2))
    a, multiplier = mul.children()
    assert a == Term.leaf(sym("a"))
    assert multiplier == Term.leaf(num(2))


def test_parse_single_symbol():
    assert parse_term("a", MATH) == Term.leaf(sym("a"))


def test_parse_nested_addition():
    term = parse_term("(+ 1 (+ 2 3))", MATH)
    assert term.root_op == "+"
    assert len(term) == 5
    assert term.depth() == 3


def test_children_precede_parents():
    term = parse_term("(+ 1 (+ 2 3))", MATH)
    for index, (_, kids) in enumerate(term.nodes):
        assert all(k < index for k in kids)


def test_print_leaf():
    assert print_term(Term.leaf(sym("a"))) == "a"


def test_print_is_parse_inverse():
    text = "(/ (* a 2) 2)"
    assert print_term(parse_term(text, MATH)) == text


def test_print_canonical_spacing():
    term = parse_term("( +   1 (  +  2   3 ) )", MATH)
    assert print_term(term) == "(+ 1 (+ 2 3))"


def test_symbol_interning_identity():
    t1 = parse_term("(+ a a)", MATH)
    left, right = t1.children()
    assert left.root_op.value is right.root_op.value


def test_unknown_operator_rejected():
    with pytest.raises(UnknownOperatorError):
        parse_term("(foo 1 2)", MATH)


def test_arity_mismatch_rejected():
    with pytest.raises(ArityError):
        parse_term("(+ 1 2 3)", MATH)
    with pytest.raises(ArityError):
        parse_term("(+ 1)", MATH)


def test_operator_as_bare_atom_rejected():
    with pytest.raises(ArityError):
        parse_term("(+ + 1)", MATH)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_term("(+ 1 2", MATH)
    assert err.value.position == 0
    with pytest.raises(UnknownOperatorError) as err:
        parse_term("(+ 1 (bogus 2 2))", MATH)
    assert err.value.position == 6


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_term("(+ 1 2) extra", MATH)


def test_pattern_variable_rejected_in_ground_term():
    with pytest.raises(ParseError):
        parse_term("(+ ?x 1)", MATH)


def test_booleans_only_where_admitted():
    assert parse_term("true", LAMBDA).root_op.kind == "bool"
    # math has no bool leaves, so `true` is an ordinary symbol
    assert parse_term("true", MATH).root_op == sym("true")


def test_rational_leaf_round_trip():
    term = parse_term("3/2", MATH)
    assert term.root_op.kind == "num"
    assert print_term(term) == "3/2"
    assert parse_term("4/2", MATH) == Term.leaf(num(2))


def test_negative_numbers():
    assert parse_term("-7", MATH) == Term.leaf(num(-7))


def test_lambda_term_surface():
    term = parse_term("(lam x (+ 4 (app (lam y (var y)) 4)))", LAMBDA)
    assert print_term(term) == "(lam x (+ 4 (app (lam y (var y)) 4)))"


def test_duplicate_arity_validation():
    for arity in (-1, None):
        with pytest.raises(LanguageError, match="bad arity"):
            LanguageDef("bad", {"f": arity})


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_round_trip_random_math_terms(seed):
    rng = random.Random(seed)
    term = random_term(rng, MATH, depth=rng.randint(1, 5))
    assert print_term(term) == reference_print(term)
    assert parse_term(print_term(term), MATH) == term


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_round_trip_random_lambda_terms(seed):
    rng = random.Random(seed)
    term = random_term(rng, LAMBDA, depth=rng.randint(1, 4))
    assert print_term(term) == reference_print(term)
    assert parse_term(print_term(term), LAMBDA) == term


def test_subterm_extraction_matches_children():
    term = parse_term("(* (+ a b) (/ c 2))", MATH)
    left, right = term.children()
    assert print_term(left) == "(+ a b)"
    assert print_term(right) == "(/ c 2)"


# Recorded from the recursive reader this one replaced: every error keeps its
# type, message and position.
READER_ERRORS = [
    ("unclosed-depth-3", parse_term, "(+ a (+ b (* c d)",
     ParseError, "unclosed '(' (at position 5)", 5),
    ("unclosed-depth-2000", parse_term, "(+ a " * 2000 + "b",
     ParseError, "unclosed '(' (at position 9995)", 9995),
    ("stray-close", parse_term, ")",
     ParseError, "unexpected ')' (at position 0)", 0),
    ("close-after-term", parse_term, "(+ a b))",
     ParseError, "trailing input after expression (at position 7)", 7),
    ("empty-application", parse_term, "()",
     ParseError, "expected an operator after '(' (at position 0)", 0),
    ("application-as-operator", parse_term, "((+ a b) c)",
     ParseError, "expected an operator after '(' (at position 0)", 0),
    ("too-few-arguments", parse_term, "(+ 1)",
     ArityError, "operator '+' expects 2 arguments, got 1 (at position 1)", 1),
    ("operator-as-atom", parse_term, "(+ a +)",
     ArityError, "operator '+' expects 2 arguments, got 0 (at position 5)", 5),
    ("unknown-operator", parse_term, "(foo a b)",
     UnknownOperatorError, "unknown operator 'foo' (at position 1)", 1),
    ("bare-?-in-pattern", parse_pattern, "(+ ? a)",
     ParseError, "bare '?' is not a variable name (at position 3)", 3),
    ("bare-?-in-term", parse_term, "(+ ? a)",
     ParseError, "pattern variable '?' not allowed in a ground term (at position 3)", 3),
    ("trailing-input", parse_term, "(+ a b) c",
     ParseError, "trailing input after expression (at position 8)", 8),
    ("empty-input", parse_term, "",
     ParseError, "expected an expression (at position 0)", 0),
    ("zero-denominator", parse_term, "(+ 1/0 a)",
     ParseError, "zero denominator in '1/0' (at position 3)", 3),
]


@pytest.mark.parametrize(
    "reader, text, error, message, position",
    [case[1:] for case in READER_ERRORS],
    ids=[case[0] for case in READER_ERRORS],
)
def test_reader_error_parity(reader, text, error, message, position):
    with shallow_recursion_limit(), pytest.raises(ParseError) as err:
        reader(text, MATH)
    assert type(err.value) is error
    assert str(err.value) == message
    assert err.value.position == position
