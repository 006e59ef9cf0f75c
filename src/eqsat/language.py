"""User-defined term languages: operators, leaf payloads, and s-expressions.

Terms are stored flat: a postorder array of ``(op, child_indices)`` nodes in
which children always precede their parent and the root is the last entry.
This keeps hashing, traversal, and bulk insertion into an e-graph cheap.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union


class Leaf(NamedTuple):
    """Payload of a childless node: a number, a boolean, or a symbol; in a
    pattern, also a variable.

    The kind tag participates in equality and ordering, so ``Leaf("bool",
    True)`` never collides with ``Leaf("num", 1)``.
    """

    kind: str  # "num" | "bool" | "sym" | "var" (patterns only)
    value: object


def num(value) -> Leaf:
    """Numeric leaf; integral fractions normalize to int so 6/2 equals 3."""
    if isinstance(value, Fraction) and value.denominator == 1:
        value = int(value)
    return Leaf("num", value)


def boolean(value) -> Leaf:
    return Leaf("bool", bool(value))


def sym(name: str) -> Leaf:
    # interned so equal symbol names share one string object
    return Leaf("sym", sys.intern(name))


# An operator is either a function symbol (interned str) or a leaf payload.
Op = Union[str, Leaf]


class LanguageError(Exception):
    pass


class ParseError(LanguageError):
    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownOperatorError(ParseError):
    pass


class ArityError(ParseError):
    pass


@dataclass
class LanguageDef:
    """Operator symbols with fixed arities plus the admitted leaf kinds.

    Treated as immutable after construction; safe to share across threads.
    """

    name: str
    operators: dict[str, int]
    leaf_kinds: frozenset[str] = frozenset({"num", "sym"})

    def __post_init__(self):
        ops = {}
        for op, arity in self.operators.items():
            if not isinstance(arity, int) or arity < 0:
                raise LanguageError(f"bad arity for operator {op!r}: {arity!r}")
            ops[sys.intern(op)] = arity
        self.operators = ops
        self.leaf_kinds = frozenset(self.leaf_kinds)


@dataclass(frozen=True)
class Term:
    """Ground term as a flat postorder node array (children precede parents)."""

    nodes: tuple[tuple[Op, tuple[int, ...]], ...]

    @staticmethod
    def leaf(payload: Leaf) -> "Term":
        return Term(((payload, ()),))

    @staticmethod
    def apply(op: str, *children: "Term") -> "Term":
        nodes: list[tuple[Op, tuple[int, ...]]] = []
        roots = []
        for child in children:
            offset = len(nodes)
            for c_op, kids in child.nodes:
                nodes.append((c_op, tuple(k + offset for k in kids)))
            roots.append(len(nodes) - 1)
        nodes.append((sys.intern(op), tuple(roots)))
        return Term(tuple(nodes))

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def root_op(self) -> Op:
        return self.nodes[-1][0]

    def depth(self) -> int:
        depths = []
        for _, kids in self.nodes:
            depths.append(1 + max((depths[k] for k in kids), default=0))
        return depths[-1]

    def subtree_sizes(self) -> list[int]:
        sizes = []
        for _, kids in self.nodes:
            sizes.append(1 + sum(sizes[k] for k in kids))
        return sizes

    def subterm(self, index: int) -> "Term":
        """Subterm rooted at a node index; subtrees are contiguous slices."""
        size = self.subtree_sizes()[index]
        start = index - size + 1
        return Term(
            tuple(
                (op, tuple(k - start for k in kids))
                for op, kids in self.nodes[start : index + 1]
            )
        )

    def children(self) -> tuple["Term", ...]:
        return tuple(self.subterm(k) for k in self.nodes[-1][1])

    def __str__(self) -> str:
        return print_term(self)


_INT_RE = re.compile(r"^[+-]?\d+$")
_RATIONAL_RE = re.compile(r"^[+-]?\d+/\d+$")


def tokenize(text: str) -> list[tuple[str, int]]:
    """Split s-expression text into (token, position) pairs."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append((c, i))
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append((text[i:j], i))
            i = j
    return tokens


def atom_to_leaf(token: str, lang: LanguageDef, position: int = 0) -> Leaf:
    """Classify a bare atom: integers and p/q rationals as numbers,
    true/false as booleans, anything else as a symbol (where admitted)."""
    if "num" in lang.leaf_kinds:
        if _INT_RE.match(token):
            return num(int(token))
        if _RATIONAL_RE.match(token):
            try:
                return num(Fraction(token))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {token!r}", position) from None
    if "bool" in lang.leaf_kinds and token in ("true", "false"):
        return boolean(token == "true")
    if "sym" in lang.leaf_kinds:
        if token.startswith("?"):
            raise ParseError(
                f"pattern variable {token!r} not allowed in a ground term", position
            )
        return sym(token)
    raise ParseError(f"cannot parse atom {token!r} in language {lang.name}", position)


def is_var(op: Op) -> bool:
    """Is this a pattern variable leaf (kind "var", name with its `?`)?"""
    return isinstance(op, Leaf) and op.kind == "var"


def _read_atom(token: str, pos: int, lang: LanguageDef, allow_vars: bool) -> Op:
    if allow_vars and token.startswith("?"):
        if len(token) == 1:
            raise ParseError("bare '?' is not a variable name", pos)
        return Leaf("var", sys.intern(token))
    if token in lang.operators:
        arity = lang.operators[token]
        if arity != 0:
            raise ArityError(
                f"operator {token!r} expects {arity} arguments, got 0", pos
            )
        return sys.intern(token)
    return atom_to_leaf(token, lang, pos)


def read_sexp(
    tokens: list[tuple[str, int]],
    at: int,
    lang: LanguageDef,
    nodes: list[tuple[Op, tuple[int, ...]]],
    allow_vars: bool = False,
) -> int:
    """Read one s-expression starting at token index `at`, validating
    operators and arities, and append its nodes to `nodes` in postorder;
    returns the index just past it.  With `allow_vars`, `?name` atoms are
    read as variable leaves; without it they are rejected as atoms.

    Open applications live on an explicit stack, so nesting depth is
    bounded by memory, not by the interpreter's recursion limit."""
    n = len(tokens)
    if at >= n:
        raise ParseError("expected an expression", tokens[-1][1] if tokens else 0)
    # one entry per open '(': (operator, its position, the '(' position,
    # node indexes of the arguments read so far)
    open_apps: list[tuple[str, int, int, list[int]]] = []
    while True:
        token, pos = tokens[at]
        if token == "(":
            if at + 1 >= n or tokens[at + 1][0] in ("(", ")"):
                raise ParseError("expected an operator after '('", pos)
            head, head_pos = tokens[at + 1]
            if head not in lang.operators:
                raise UnknownOperatorError(f"unknown operator {head!r}", head_pos)
            open_apps.append((sys.intern(head), head_pos, pos, []))
            at += 2
        elif token == ")":
            raise ParseError("unexpected ')'", pos)
        else:
            nodes.append((_read_atom(token, pos, lang, allow_vars), ()))
            at += 1
            if open_apps:
                open_apps[-1][3].append(len(nodes) - 1)
        # close every application whose ')' comes next
        while open_apps:
            if at >= n:
                raise ParseError("unclosed '('", open_apps[-1][2])
            if tokens[at][0] != ")":
                break
            head, head_pos, _, kids = open_apps.pop()
            arity = lang.operators[head]
            if len(kids) != arity:
                raise ArityError(
                    f"operator {head!r} expects {arity} arguments, got {len(kids)}",
                    head_pos,
                )
            nodes.append((head, tuple(kids)))
            at += 1
            if open_apps:
                open_apps[-1][3].append(len(nodes) - 1)
        if not open_apps:
            return at


def read_one(text: str, lang: LanguageDef, allow_vars: bool = False) -> tuple:
    """Postorder nodes of the single s-expression that makes up `text`."""
    tokens = tokenize(text)
    nodes: list[tuple[Op, tuple[int, ...]]] = []
    after = read_sexp(tokens, 0, lang, nodes, allow_vars)
    if after != len(tokens):
        raise ParseError("trailing input after expression", tokens[after][1])
    return tuple(nodes)


def parse_term(text: str, lang: LanguageDef) -> Term:
    """Parse an s-expression into a Term, validating operators and arities."""
    return Term(read_one(text, lang))


def leaf_to_str(leaf: Leaf) -> str:
    if leaf.kind == "bool":
        return "true" if leaf.value else "false"
    return str(leaf.value)


def print_term(term: Term) -> str:
    """Render a term; one space between atoms, round-trips through parse."""
    nodes = term.nodes
    out: list[str] = []
    # node indexes still to render, interleaved with literal text
    stack: list = [len(nodes) - 1]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        op, kids = nodes[item]
        if isinstance(op, Leaf):
            out.append(leaf_to_str(op))
        elif not kids:
            out.append(op)
        else:
            out.append("(" + op)
            stack.append(")")
            for k in reversed(kids):
                stack.append(k)
                stack.append(" ")
    return "".join(out)
